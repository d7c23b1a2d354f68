//===- MinimalModels.cpp --------------------------------------------------===//

#include "sat/MinimalModels.h"

#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace dfence;
using namespace dfence::sat;

bool MonotoneCnf::isSatisfiedBy(const std::vector<bool> &Assign) const {
  for (const std::vector<Var> &Clause : Clauses) {
    bool Hit = false;
    for (Var V : Clause)
      if (Assign[V]) {
        Hit = true;
        break;
      }
    if (!Hit)
      return false;
  }
  return true;
}

namespace {

/// Greedily shrinks a model of a monotone formula to an inclusion-minimal
/// one: try to flip each true variable to false, keeping the flip whenever
/// all clauses stay satisfied. Correct because satisfaction is monotone.
void minimizeModel(const MonotoneCnf &F, std::vector<bool> &Assign) {
  for (Var V = 0; V != F.NumVars; ++V) {
    if (!Assign[V])
      continue;
    Assign[V] = false;
    if (!F.isSatisfiedBy(Assign))
      Assign[V] = true;
  }
}

} // namespace

namespace {

void fillStats(SolveStats *Stats, const MonotoneCnf &F, const Solver &S,
               size_t Models, bool Truncated = false) {
  if (!Stats)
    return;
  Stats->Truncated = Truncated;
  Stats->Vars = F.NumVars;
  Stats->Clauses = F.Clauses.size();
  Stats->Models = Models;
  Stats->Conflicts = S.numConflicts();
  Stats->Decisions = S.numDecisions();
  Stats->Propagations = S.numPropagations();
}

} // namespace

std::vector<std::vector<Var>>
sat::enumerateMinimalModels(const MonotoneCnf &F, size_t MaxModels,
                            bool &Unsat, SolveStats *Stats) {
  // Wall-clock effort accounting for the flight recorder; stamped into
  // Stats on every exit path below.
  auto T0 = std::chrono::steady_clock::now();
  auto StampNs = [&](SolveStats *St) {
    if (St)
      St->SolveNs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - T0)
              .count());
  };
  Unsat = false;
  Solver S;
  for (unsigned V = 0; V != F.NumVars; ++V)
    S.newVar();
  for (const std::vector<Var> &Clause : F.Clauses) {
    std::vector<Lit> Lits;
    Lits.reserve(Clause.size());
    for (Var V : Clause)
      Lits.push_back(Lit::pos(V));
    if (!S.addClause(std::move(Lits))) {
      Unsat = true;
      fillStats(Stats, F, S, 0);
      StampNs(Stats);
      return {};
    }
  }

  std::vector<std::vector<Var>> Models;
  bool Complete = false; // Every minimal model was found.
  while (Models.size() < MaxModels) {
    if (!S.solve()) {
      Complete = true;
      break;
    }
    std::vector<bool> Assign(F.NumVars, false);
    for (Var V = 0; V != F.NumVars; ++V)
      Assign[V] = S.modelValue(V) == LBool::True;
    assert(F.isSatisfiedBy(Assign) && "SAT model does not satisfy CNF");
    minimizeModel(F, Assign);

    std::vector<Var> Model;
    std::vector<Lit> Blocking;
    for (Var V = 0; V != F.NumVars; ++V) {
      if (!Assign[V])
        continue;
      Model.push_back(V);
      Blocking.push_back(Lit::neg(V));
    }
    Models.push_back(std::move(Model));
    // The empty model satisfies everything: nothing else to find. A
    // rejected blocking clause means every remaining model is blocked.
    if (Blocking.empty() || !S.addClause(std::move(Blocking))) {
      Complete = true;
      break;
    }
  }
  if (Models.empty() && !S.okay())
    Unsat = true;
  fillStats(Stats, F, S, Models.size(), /*Truncated=*/!Complete);
  StampNs(Stats);
  return Models;
}

std::vector<Var> sat::minimumModel(const MonotoneCnf &F, bool &Unsat,
                                   SolveStats *Stats) {
  std::vector<std::vector<Var>> Models =
      enumerateMinimalModels(F, MinimumModelCap, Unsat, Stats);
  if (Models.empty())
    return {};
  auto Better = [](const std::vector<Var> &A, const std::vector<Var> &B) {
    if (A.size() != B.size())
      return A.size() < B.size();
    return A < B;
  };
  return *std::min_element(Models.begin(), Models.end(), Better);
}

namespace {

/// Exact branch-and-bound minimum hitting set.
class HittingSetSolver {
public:
  explicit HittingSetSolver(const MonotoneCnf &F) : F(F) {}

  std::vector<Var> solve(bool &Unsat) {
    Unsat = false;
    for (const std::vector<Var> &C : F.Clauses)
      if (C.empty()) {
        Unsat = true;
        return {};
      }
    Best.assign(F.NumVars + 1, 0); // Sentinel: "size NumVars+1".
    BestSize = F.NumVars + 1;
    std::vector<bool> Chosen(F.NumVars, false);
    branch(Chosen, 0);
    if (BestSize > F.NumVars) {
      // Hit everything with all variables (always possible w/o empty
      // clauses); should have been found, but guard anyway.
      std::vector<Var> All;
      for (Var V = 0; V != F.NumVars; ++V)
        All.push_back(V);
      return All;
    }
    std::vector<Var> Result;
    for (Var V = 0; V != F.NumVars; ++V)
      if (Best[V])
        Result.push_back(V);
    return Result;
  }

private:
  void branch(std::vector<bool> &Chosen, size_t Size) {
    if (Size + 1 >= BestSize + 1 && Size >= BestSize)
      return;
    // Find the first unhit clause.
    const std::vector<Var> *Unhit = nullptr;
    for (const std::vector<Var> &C : F.Clauses) {
      bool Hit = false;
      for (Var V : C)
        if (Chosen[V]) {
          Hit = true;
          break;
        }
      if (!Hit) {
        Unhit = &C;
        break;
      }
    }
    if (!Unhit) {
      if (Size < BestSize) {
        BestSize = Size;
        for (Var V = 0; V != F.NumVars; ++V)
          Best[V] = Chosen[V];
      }
      return;
    }
    if (Size + 1 >= BestSize)
      return; // Cannot improve.
    for (Var V : *Unhit) {
      Chosen[V] = true;
      branch(Chosen, Size + 1);
      Chosen[V] = false;
    }
  }

  const MonotoneCnf &F;
  std::vector<uint8_t> Best;
  size_t BestSize = 0;
};

} // namespace

std::vector<Var> sat::minimumHittingSet(const MonotoneCnf &F, bool &Unsat) {
  HittingSetSolver S(F);
  return S.solve(Unsat);
}
