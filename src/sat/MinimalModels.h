//===- MinimalModels.h - Minimal models of monotone CNF ---------*- C++ -*-===//
//
// The repair formula Φ is monotone: a conjunction of disjunctions of
// positive literals (one per ordering predicate). Its minimal satisfying
// assignments are exactly the inclusion-minimal hitting sets of the clause
// family. Following the paper, we enumerate models with the SAT solver
// (minimize each greedily, block it, repeat) and then select the smallest;
// a direct branch-and-bound hitting-set solver doubles as an independent
// cross-check (used in tests and the ablation bench).
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SAT_MINIMALMODELS_H
#define DFENCE_SAT_MINIMALMODELS_H

#include "sat/Solver.h"

#include <vector>

namespace dfence::sat {

/// A monotone CNF formula over variables 0..NumVars-1: each clause is a
/// disjunction of positive literals.
struct MonotoneCnf {
  unsigned NumVars = 0;
  std::vector<std::vector<Var>> Clauses;

  bool isSatisfiedBy(const std::vector<bool> &Assign) const;
};

/// Solver-effort telemetry for one enumerate/minimum call, filled from the
/// Solver's own statistics accessors. Purely observational — the results
/// of the solve do not depend on it.
struct SolveStats {
  uint64_t Vars = 0;         ///< Variables of the formula.
  uint64_t Clauses = 0;      ///< Input clauses (blocking clauses excluded).
  uint64_t Models = 0;       ///< Minimal models enumerated.
  uint64_t Conflicts = 0;    ///< Solver conflicts across all solve() calls.
  uint64_t Decisions = 0;    ///< Solver decisions across all solve() calls.
  uint64_t Propagations = 0; ///< Solver propagations across all calls.
  /// Enumeration stopped because it reached its model cap, not because
  /// every minimal model was found: a minimumModel result is then only
  /// the smallest of the models enumerated, not a proven minimum.
  bool Truncated = false;
  /// Wall-clock nanoseconds the enumeration took. Machine-dependent —
  /// feeds the flight recorder's sat_solve phase histogram and the round
  /// log, never a counter or a canonical result field (everything above
  /// is deterministic given the formula; this is not).
  uint64_t SolveNs = 0;
};

/// Enumerates all inclusion-minimal models via SAT + blocking clauses
/// (stops after \p MaxModels, setting SolveStats::Truncated). Each model
/// is the sorted set of true vars.
/// An unsatisfiable formula (only possible with an empty clause) yields an
/// empty result with \p Unsat set. When \p Stats is non-null it receives
/// solver-effort telemetry for the call.
std::vector<std::vector<Var>>
enumerateMinimalModels(const MonotoneCnf &F, size_t MaxModels, bool &Unsat,
                       SolveStats *Stats = nullptr);

/// Among the minimal models, returns one of minimum cardinality
/// (lexicographically smallest for determinism). Empty when unsat.
/// Enumerates at most MinimumModelCap models; SolveStats::Truncated
/// reports when the cap cut enumeration short.
constexpr size_t MinimumModelCap = 4096;
std::vector<Var> minimumModel(const MonotoneCnf &F, bool &Unsat,
                              SolveStats *Stats = nullptr);

/// Independent exact minimum hitting set by branch and bound; used to
/// cross-check the SAT-based path.
std::vector<Var> minimumHittingSet(const MonotoneCnf &F, bool &Unsat);

} // namespace dfence::sat

#endif // DFENCE_SAT_MINIMALMODELS_H
