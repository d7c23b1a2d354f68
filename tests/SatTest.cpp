//===- SatTest.cpp - CDCL solver and minimal-model tests ------------------===//

#include "sat/MinimalModels.h"
#include "sat/Solver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dfence;
using namespace dfence::sat;

namespace {

/// Brute-force SAT check for cross-validation (n <= ~20 vars).
bool bruteForceSat(unsigned NumVars,
                   const std::vector<std::vector<Lit>> &Clauses) {
  for (uint64_t Assign = 0; Assign < (1ULL << NumVars); ++Assign) {
    bool AllSat = true;
    for (const auto &C : Clauses) {
      bool Sat = false;
      for (Lit L : C) {
        bool V = (Assign >> L.var()) & 1;
        if (V != L.sign()) {
          Sat = true;
          break;
        }
      }
      if (!Sat) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

} // namespace

TEST(SolverTest, TrivialSat) {
  Solver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause({Lit::pos(A)}));
  EXPECT_TRUE(S.solve());
  EXPECT_EQ(S.modelValue(A), LBool::True);
}

TEST(SolverTest, TrivialUnsat) {
  Solver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause({Lit::pos(A)}));
  EXPECT_FALSE(S.addClause({Lit::neg(A)}));
  EXPECT_FALSE(S.solve());
}

TEST(SolverTest, UnitPropagationChain) {
  Solver S;
  std::vector<Var> V;
  for (int I = 0; I < 10; ++I)
    V.push_back(S.newVar());
  S.addClause({Lit::pos(V[0])});
  for (int I = 0; I + 1 < 10; ++I)
    S.addClause({Lit::neg(V[I]), Lit::pos(V[I + 1])}); // v_i -> v_{i+1}
  ASSERT_TRUE(S.solve());
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(S.modelValue(V[I]), LBool::True);
}

TEST(SolverTest, ModelSatisfiesAllClauses) {
  Solver S;
  std::vector<Var> V;
  for (int I = 0; I < 6; ++I)
    V.push_back(S.newVar());
  std::vector<std::vector<Lit>> Clauses = {
      {Lit::pos(V[0]), Lit::pos(V[1])},
      {Lit::neg(V[0]), Lit::pos(V[2])},
      {Lit::neg(V[1]), Lit::neg(V[2]), Lit::pos(V[3])},
      {Lit::neg(V[3]), Lit::pos(V[4]), Lit::pos(V[5])},
      {Lit::neg(V[4])},
  };
  for (auto &C : Clauses)
    ASSERT_TRUE(S.addClause(C));
  ASSERT_TRUE(S.solve());
  for (const auto &C : Clauses) {
    bool Sat = false;
    for (Lit L : C)
      if (S.modelValue(L.var()) ==
          (L.sign() ? LBool::False : LBool::True))
        Sat = true;
    EXPECT_TRUE(Sat);
  }
}

TEST(SolverTest, PigeonholeUnsat) {
  // 4 pigeons into 3 holes: classic small UNSAT needing real search.
  const int P = 4, H = 3;
  Solver S;
  Var X[4][3];
  for (int I = 0; I < P; ++I)
    for (int J = 0; J < H; ++J)
      X[I][J] = S.newVar();
  bool Ok = true;
  for (int I = 0; I < P; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J < H; ++J)
      C.push_back(Lit::pos(X[I][J]));
    Ok = S.addClause(C) && Ok;
  }
  for (int J = 0; J < H; ++J)
    for (int I1 = 0; I1 < P; ++I1)
      for (int I2 = I1 + 1; I2 < P; ++I2)
        Ok = S.addClause({Lit::neg(X[I1][J]), Lit::neg(X[I2][J])}) && Ok;
  EXPECT_FALSE(Ok && S.solve());
}

TEST(SolverTest, IncrementalSolvingWithBlockingClauses) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause({Lit::pos(A), Lit::pos(B)});
  int Models = 0;
  while (S.solve() && Models < 10) {
    ++Models;
    std::vector<Lit> Block;
    for (Var V : {A, B})
      Block.push_back(S.modelValue(V) == LBool::True ? Lit::neg(V)
                                                     : Lit::pos(V));
    if (!S.addClause(Block))
      break;
  }
  EXPECT_EQ(Models, 3) << "a|b has exactly three models";
}

// Property test: random 3-SAT instances agree with brute force.
class RandomSatTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSatTest, AgreesWithBruteForce) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const unsigned NumVars = 8;
  const unsigned NumClauses = 3 + R.nextBelow(30);
  std::vector<std::vector<Lit>> Clauses;
  for (unsigned I = 0; I < NumClauses; ++I) {
    std::vector<Lit> C;
    for (int K = 0; K < 3; ++K) {
      Var V = static_cast<Var>(R.nextBelow(NumVars));
      C.push_back(R.nextBool(0.5) ? Lit::pos(V) : Lit::neg(V));
    }
    Clauses.push_back(std::move(C));
  }
  Solver S;
  for (unsigned V = 0; V < NumVars; ++V)
    S.newVar();
  bool AddOk = true;
  for (auto &C : Clauses)
    AddOk = S.addClause(C) && AddOk;
  bool SolverSat = AddOk && S.solve();
  EXPECT_EQ(SolverSat, bruteForceSat(NumVars, Clauses));
  if (SolverSat) {
    for (const auto &C : Clauses) {
      bool Sat = false;
      for (Lit L : C)
        if (S.modelValue(L.var()) ==
            (L.sign() ? LBool::False : LBool::True))
          Sat = true;
      EXPECT_TRUE(Sat) << "returned model must satisfy every clause";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random3Sat, RandomSatTest,
                         ::testing::Range(0, 60));

//===----------------------------------------------------------------------===//
// Minimal models of monotone CNF
//===----------------------------------------------------------------------===//

TEST(MinimalModelsTest, SingleClause) {
  MonotoneCnf F;
  F.NumVars = 3;
  F.Clauses = {{0, 1, 2}};
  bool Unsat = false;
  auto Models = enumerateMinimalModels(F, 100, Unsat);
  EXPECT_FALSE(Unsat);
  ASSERT_EQ(Models.size(), 3u) << "each single var is a minimal model";
  for (const auto &M : Models)
    EXPECT_EQ(M.size(), 1u);
}

TEST(MinimalModelsTest, TwoDisjointClauses) {
  MonotoneCnf F;
  F.NumVars = 4;
  F.Clauses = {{0, 1}, {2, 3}};
  bool Unsat = false;
  auto Models = enumerateMinimalModels(F, 100, Unsat);
  EXPECT_EQ(Models.size(), 4u); // {0,2},{0,3},{1,2},{1,3}
  for (const auto &M : Models)
    EXPECT_EQ(M.size(), 2u);
}

TEST(MinimalModelsTest, SharedVariablePreferred) {
  MonotoneCnf F;
  F.NumVars = 3;
  F.Clauses = {{0, 2}, {1, 2}};
  bool Unsat = false;
  auto Min = minimumModel(F, Unsat);
  ASSERT_EQ(Min.size(), 1u);
  EXPECT_EQ(Min[0], 2u) << "hitting both clauses with var 2 is minimum";
}

TEST(MinimalModelsTest, EmptyFormulaHasEmptyModel) {
  MonotoneCnf F;
  F.NumVars = 3;
  bool Unsat = false;
  auto Min = minimumModel(F, Unsat);
  EXPECT_FALSE(Unsat);
  EXPECT_TRUE(Min.empty());
}

TEST(MinimalModelsTest, EmptyClauseUnsat) {
  MonotoneCnf F;
  F.NumVars = 2;
  F.Clauses = {{}};
  bool Unsat = false;
  enumerateMinimalModels(F, 10, Unsat);
  EXPECT_TRUE(Unsat);
}

TEST(MinimalModelsTest, TruncatedOnlyWhenTheCapStopsEnumeration) {
  MonotoneCnf F;
  F.NumVars = 4;
  F.Clauses = {{0, 1}, {2, 3}}; // Exactly four minimal models.
  bool Unsat = false;
  SolveStats SS;
  EXPECT_EQ(enumerateMinimalModels(F, 5, Unsat, &SS).size(), 4u);
  EXPECT_FALSE(SS.Truncated);
  EXPECT_EQ(enumerateMinimalModels(F, 3, Unsat, &SS).size(), 3u);
  EXPECT_TRUE(SS.Truncated);
  EXPECT_TRUE(enumerateMinimalModels(F, 0, Unsat, &SS).empty());
  EXPECT_TRUE(SS.Truncated);
}

TEST(MinimalModelsTest, MinimumModelReportsItsCap) {
  // 13 disjoint two-literal clauses have 2^13 = 8192 minimal models,
  // twice minimumModel's cap.
  MonotoneCnf Big;
  Big.NumVars = 26;
  for (Var V = 0; V != 26; V += 2)
    Big.Clauses.push_back({V, V + 1});
  bool Unsat = false;
  SolveStats SS;
  std::vector<Var> Min = minimumModel(Big, Unsat, &SS);
  EXPECT_EQ(SS.Models, MinimumModelCap);
  EXPECT_TRUE(SS.Truncated);
  EXPECT_EQ(Min.size(), 13u) << "every minimal model hits each clause once";

  MonotoneCnf Small;
  Small.NumVars = 3;
  Small.Clauses = {{0, 2}, {1, 2}};
  minimumModel(Small, Unsat, &SS);
  EXPECT_FALSE(SS.Truncated);
}

// Property test: SAT-based minimum model cardinality matches the exact
// branch-and-bound hitting-set solver on random monotone formulas.
class MinModelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MinModelPropertyTest, MatchesExactHittingSet) {
  Rng R(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  MonotoneCnf F;
  F.NumVars = 2 + static_cast<unsigned>(R.nextBelow(8));
  unsigned NumClauses = 1 + R.nextBelow(10);
  for (unsigned I = 0; I < NumClauses; ++I) {
    std::vector<Var> C;
    unsigned Len = 1 + R.nextBelow(4);
    for (unsigned K = 0; K < Len; ++K)
      C.push_back(static_cast<Var>(R.nextBelow(F.NumVars)));
    std::sort(C.begin(), C.end());
    C.erase(std::unique(C.begin(), C.end()), C.end());
    F.Clauses.push_back(std::move(C));
  }
  bool UnsatA = false, UnsatB = false;
  auto A = minimumModel(F, UnsatA);
  auto B = minimumHittingSet(F, UnsatB);
  EXPECT_EQ(UnsatA, UnsatB);
  if (!UnsatA) {
    EXPECT_EQ(A.size(), B.size())
        << "SAT-based and exact minimum cardinalities must agree";
    std::vector<bool> Assign(F.NumVars, false);
    for (Var V : A)
      Assign[V] = true;
    EXPECT_TRUE(F.isSatisfiedBy(Assign));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMonotone, MinModelPropertyTest,
                         ::testing::Range(0, 60));
