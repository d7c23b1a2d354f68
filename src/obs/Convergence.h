//===- Convergence.h - Per-round convergence telemetry ---------*- C++ -*-===//
//
// The second leg of the flight recorder: a compact per-round record of how
// synthesis is converging — violations found, growth of the predicate
// universe Φ, cache effectiveness, SAT effort, wall time, clean-round
// streak — emitted as one JSON object per line (`--round-log FILE`). The
// stream is the reward signal the ROADMAP's fuzzer/bandit work consumes:
// "violations per second" and "new predicates per round" are both directly
// readable off it.
//
// Layering: this is plain telemetry data, deliberately independent of the
// synthesizer's types (obs sits below synth). The synthesizer translates
// its RoundStats into RoundRecords; consumers parse the JSON lines.
//
// Determinism note: most fields are deterministic (byte-identical at any
// --jobs); RoundWallUs/SatSolveUs are wall-clock and the cache-hit fields
// depend on the cache mode. The canonical serve/CLI result serialization
// therefore carries only the deterministic subset — the round log file
// is the place the rest lives.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_OBS_CONVERGENCE_H
#define DFENCE_OBS_CONVERGENCE_H

#include "support/Json.h"

#include <cstdint>
#include <mutex>
#include <ostream>

namespace dfence::obs {

/// One synthesis round, as the round log reports it.
struct RoundRecord {
  unsigned Round = 0;           ///< 1-based round number.
  uint64_t Executions = 0;      ///< Slots that actually ran.
  uint64_t Violations = 0;      ///< Violating executions among them.
  uint64_t NewPredicates = 0;   ///< Distinct predicates Φ gained this round.
  uint64_t DistinctPredicates = 0; ///< |Φ| after this round.
  unsigned FencesEnforced = 0;  ///< Fences present after this round.
  unsigned CleanStreak = 0;     ///< Consecutive clean rounds incl. this one.
  bool Truncated = false;       ///< Round cut short by a budget/deadline.

  // Cache effectiveness (jobs-invariant; differ between cache modes).
  uint64_t ExecCacheHits = 0;
  uint64_t ExecCacheMisses = 0;

  // SAT effort of this round's solve (zero when no solve happened).
  uint64_t SatClauses = 0;
  uint64_t SatModels = 0;
  uint64_t SatConflicts = 0;
  uint64_t SatDecisions = 0;
  uint64_t SatPropagations = 0;

  // Wall-clock (machine-dependent; excluded from canonical results).
  uint64_t RoundWallUs = 0;
  uint64_t SatSolveUs = 0;
};

/// Serializes \p R as the round log's line object (stable key order).
Json roundRecordJson(const RoundRecord &R);

/// Thread-safe JSON-lines sink for round records. The caller owns the
/// stream (a file the CLI opened, or stdout) and keeps it alive for the
/// writer's lifetime; each write emits exactly one line and flushes, so a
/// consumer tailing the file sees rounds as they complete.
class RoundLogWriter {
public:
  explicit RoundLogWriter(std::ostream &OS) : OS(OS) {}

  void write(const RoundRecord &R);

private:
  std::ostream &OS;
  std::mutex Mu;
};

} // namespace dfence::obs

#endif // DFENCE_OBS_CONVERGENCE_H
