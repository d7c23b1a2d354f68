//===- BenchUtil.h - Shared helpers for the bench binaries ------*- C++ -*-===//

#ifndef DFENCE_BENCH_BENCHUTIL_H
#define DFENCE_BENCH_BENCHUTIL_H

#include "frontend/Compiler.h"
#include "programs/Benchmark.h"
#include "support/Diagnostics.h"
#include "support/Json.h"
#include "synth/Synthesizer.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace dfence::bench {

/// Standard synthesis configuration used by the reproduction benches:
/// flush probability 0.1 on TSO / 0.5 on PSO (the paper's §6.5 optima),
/// K executions per round.
inline synth::SynthConfig
makeConfig(vm::MemModel Model, synth::SpecKind Spec,
           const spec::SpecFactory &Factory, unsigned K = 400) {
  synth::SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = Spec;
  Cfg.Factory = Factory;
  Cfg.ExecsPerRound = K;
  Cfg.MaxRounds = 16;
  Cfg.MaxRepairRounds = 16;
  // Two consecutive clean rounds before declaring convergence: a single
  // clean round can be sampling luck on a low-rate residual violation.
  Cfg.CleanRoundsRequired = 2;
  Cfg.MaxStepsPerExec = 30000;
  Cfg.FlushProb = Model == vm::MemModel::TSO ? 0.1 : 0.5;
  // PSO runs mix in a low-probability regime so long store-load delays
  // (the F1-class races) surface as reliably as store-store ones.
  if (Model == vm::MemModel::PSO)
    Cfg.FlushProbs = {0.5, 0.1};
  return Cfg;
}

/// Runs synthesis for one benchmark under (Model, Spec).
inline synth::SynthResult runOne(const programs::Benchmark &B,
                                 vm::MemModel Model, synth::SpecKind Spec,
                                 unsigned K = 400) {
  auto CR = frontend::compileMiniC(B.Source);
  if (!CR.Ok)
    reportFatalError(B.Name + ": " + CR.Error);
  return synth::synthesize(CR.Module, B.Clients,
                           makeConfig(Model, Spec, B.Factory, K));
}

/// Formats a synthesis result the way Table 3 reports a cell: "0" when no
/// fences, "-" when the property cannot be satisfied, else the fence list.
inline std::string cell(const synth::SynthResult &R) {
  if (R.CannotFix || !R.Converged)
    return "-";
  if (R.Fences.empty())
    return "0";
  return R.fenceSummary();
}

/// Process CPU time in seconds, summed over all threads. The gated
/// micro-benches time their cells with it: it counts the work a cell
/// did, not the time a shared host kept it waiting.
inline double cpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return T.tv_sec + T.tv_nsec * 1e-9;
}

inline double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Writes \p Doc to \p Path, then re-reads and parses the file and
/// checks its "schema" and "schema_version", so a bench's self-check
/// validates what a reader of the file sees (the smoke ctest entries
/// rely on this instead of a JSON oracle of their own). Returns the
/// parsed document, or nullopt after printing why it is unusable.
inline std::optional<Json> writeAndReread(const std::string &Path,
                                          const Json &Doc,
                                          const std::string &Schema,
                                          uint64_t Version, bool Smoke) {
  {
    std::ofstream Out(Path);
    Out << Doc.dump(2) << "\n";
  }
  std::printf("\nwrote %s%s\n", Path.c_str(), Smoke ? " (smoke)" : "");
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Error;
  std::optional<Json> Parsed = Json::parse(SS.str(), Error);
  if (!Parsed) {
    std::fprintf(stderr, "%s is unparsable: %s\n", Path.c_str(),
                 Error.c_str());
    return std::nullopt;
  }
  const Json *S = Parsed->find("schema");
  const Json *V = Parsed->find("schema_version");
  if (!S || S->asString() != Schema || !V || V->asU64() != Version) {
    std::fprintf(stderr, "%s is not %s version %llu\n", Path.c_str(),
                 Schema.c_str(), static_cast<unsigned long long>(Version));
    return std::nullopt;
  }
  return Parsed;
}

} // namespace dfence::bench

#endif // DFENCE_BENCH_BENCHUTIL_H
