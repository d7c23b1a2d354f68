//===- cache_speedup.cpp - Execution-cache round-loop speedup -------------===//
//
// Measures what the execution cache (src/cache/) buys on cross-run
// re-verification: verify a fenced module through a shared ExecCache
// twice. The cold pass populates the cache; the warm pass — the
// "re-verify the same program with the same knobs" loop that CI and the
// suite-sweep verification step run constantly — serves its entire round
// loop from the cache, skipping interpretation and checking both. Each
// pass is timed in process CPU time.
//
// Emits BENCH_cache.json (schema "dfence-cache-speedup-v2", version 3:
// the seconds fields are CPU seconds). Pass a number to scale executions
// per round (default 2000); pass "--smoke" for a tiny run that validates
// the pipeline — the binary re-reads the JSON it wrote, checks its
// structure plus the deterministic invariants (full exec-cache hit rate
// on the warm pass), and exits nonzero on failure, which the
// bench_cache_smoke ctest entry asserts. The ≥1.3x round-loop-speedup
// acceptance bar is enforced on full runs only; smoke runs are too short
// to time reliably.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "cache/ExecCache.h"
#include "support/Rng.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace dfence;
using vm::MemModel;

namespace {

synth::SynthConfig verifyConfig(const programs::Benchmark &B, unsigned K) {
  synth::SynthConfig Cfg =
      bench::makeConfig(MemModel::PSO, synth::SpecKind::Linearizability,
                        B.Factory, K);
  // Pure verification rounds: never enforce, never stop early, so both
  // timed passes run the identical number of executions.
  Cfg.MaxRounds = 3;
  Cfg.MaxRepairRounds = 0;
  Cfg.CleanRoundsRequired = 3;
  Cfg.BaseSeed = deriveSeed(0xfeedbeef, B.Name);
  return Cfg;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned ExecsPer = 2000;
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
      ExecsPer = 100;
    } else {
      ExecsPer = static_cast<unsigned>(std::atoi(Argv[I]));
      if (ExecsPer == 0)
        ExecsPer = 1;
    }
  }

  const char *Schema = "dfence-cache-speedup-v2";
  const uint64_t Version = 3;
  Json Doc = Json::object();
  Doc.set("schema", Json::string(Schema));
  Doc.set("schema_version", Json::number(Version));
  Doc.set("execs_per_round", Json::number(uint64_t(ExecsPer)));

  // Synthesize fences once, then verify the fenced module twice through
  // one shared ExecCache: cold populates, warm replays the whole round
  // loop from the cache.
  const programs::Benchmark &B = programs::benchmarkByName("MS2 Queue");
  auto CR = frontend::compileMiniC(B.Source);
  if (!CR.Ok)
    reportFatalError(B.Name + ": " + CR.Error);
  synth::SynthResult Fenced =
      bench::runOne(B, MemModel::PSO, synth::SpecKind::Linearizability,
                    Smoke ? 100 : 400);
  if (!Fenced.Converged)
    reportFatalError(B.Name + " did not converge: " +
                     Fenced.FirstViolation);

  synth::SynthConfig Cfg = verifyConfig(B, ExecsPer);
  cache::ExecCache Shared;
  Cfg.ExecResultCache = &Shared;
  double C0 = bench::cpuSeconds();
  synth::SynthResult Cold =
      synth::synthesize(Fenced.FencedModule, B.Clients, Cfg);
  double C1 = bench::cpuSeconds();
  synth::SynthResult Warm =
      synth::synthesize(Fenced.FencedModule, B.Clients, Cfg);
  double SecCold = C1 - C0, SecWarm = bench::cpuSeconds() - C1;
  double Speedup = SecWarm > 0 ? SecCold / SecWarm : 0;
  std::printf("Shared-cache re-verification (%s, %llu executions)\n",
              B.Name.c_str(),
              static_cast<unsigned long long>(Warm.TotalExecutions));
  std::printf("cold %.3f CPU s -> warm %.3f CPU s  round-loop speedup "
              "%.1fx (exec hits %llu/%llu)\n",
              SecCold, SecWarm, Speedup,
              static_cast<unsigned long long>(Warm.ExecCacheHits),
              static_cast<unsigned long long>(Warm.TotalExecutions));

  Json JRe = Json::object();
  JRe.set("subject", Json::string(B.Name));
  JRe.set("cold_seconds", Json::number(SecCold));
  JRe.set("warm_seconds", Json::number(SecWarm));
  JRe.set("executions", Json::number(Warm.TotalExecutions));
  JRe.set("exec_hits", Json::number(Warm.ExecCacheHits));
  JRe.set("round_loop_speedup", Json::number(Speedup));
  Doc.set("reverification", std::move(JRe));

  // Self-check: the shape and the deterministic invariants; the ≥1.3x
  // bar applies to full runs.
  auto Parsed = bench::writeAndReread("BENCH_cache.json", Doc, Schema,
                                      Version, Smoke);
  if (!Parsed)
    return 1;
  const Json *Re = Parsed->find("reverification");
  if (!Re) {
    std::fprintf(stderr, "BENCH_cache.json is malformed\n");
    return 1;
  }
  // The warm pass must be served entirely from the shared cache; this is
  // deterministic, so it gates smoke runs too.
  if (Re->find("exec_hits")->asU64() != Re->find("executions")->asU64() ||
      Re->find("executions")->asU64() == 0) {
    std::fprintf(stderr, "warm re-verification was not fully cached\n");
    return 1;
  }
  if (!Smoke && Re->find("round_loop_speedup")->asDouble() < 1.3) {
    std::fprintf(stderr, "round-loop speedup below the 1.3x bar\n");
    return 1;
  }
  return 0;
}
