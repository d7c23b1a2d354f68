//===- driver.cpp - perfbench driver: table3 and fuzz workloads -----------===//
//
// Usage: perfbench_driver --workload table3|fuzz|serve|selftest
//            --seed N --seconds S --trace 0|1
//            [--dfence PATH] [--run-dir DIR]
//
// In-process synthesis runs as wide as the machine has hardware threads.
//
// Prints one JSON document of raw samples on its last stdout line; run.py
// turns it into the benchmark's metrics. Everything is timed from
// outside the system: the driver calls frontend::compileMiniC,
// serve::prepareJob, synth::synthesize, fuzz::generateScenarios and, for
// the oracle and the per-layer probe, vm::ExecContext::run,
// synth::checkExecution, sat::minimumModel and synth::enforcePredicates.
//
// In-process workloads (table3, fuzz) run their problems in repeated
// passes until --seconds have elapsed, cycling through three seed sets
// (at least four passes, so the canonical result bytes of one seed are
// compared across passes). A problem's time is the CPU time of its
// synthesize call: the mean over the seed sets of its fastest pass of
// each set.
// The correctness oracle runs after the timed passes:
//   * every verdict of each seed set's last pass must be converged or
//     cannot-fix;
//   * every converged fenced module is re-executed on held-out seeds
//     and must show no violation;
//   * every litmus shape must land exactly on its golden fences;
//   * a same-seed result whose canonical bytes differ between passes
//     fails the run;
//   * a self-test removes one fence from converged litmus results and
//     requires the re-verification to catch it.
//
//===----------------------------------------------------------------------===//

#include "Driver.h"

#include "frontend/Compiler.h"
#include "fuzz/Campaign.h"
#include "fuzz/Generator.h"
#include "fuzz/LitmusCorpus.h"
#include "obs/Obs.h"
#include "programs/Benchmark.h"
#include "sat/MinimalModels.h"
#include "serve/Protocol.h"
#include "support/Rng.h"
#include "synth/FenceEnforcer.h"
#include "vm/ExecContext.h"
#include "vm/Prepared.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <thread>
#include <ctime>
#include <unistd.h>

using namespace dfence;
using namespace perfbench;

namespace {

/// Executions per converged result when re-verifying on held-out seeds.
constexpr unsigned Table3ReverifyExecs = 1000;
constexpr unsigned FuzzReverifyExecs = 200;
/// Executions per problem in the per-layer probe.
constexpr unsigned ProbeExecs = 24;
/// Seed sets per run: pass P synthesizes with set P % SeedSets. A
/// problem's reading is the mean over the sets of its fastest pass of
/// each set: a set's passes do the same work, so the fastest is the one
/// the machine disturbed least; and the time of the SAT-heavy problems
/// depends on their synthesis seed far more than on the machine (one
/// fuzz sweep costs 6-9 CPU seconds depending on the seed), so a mean
/// over five seeds moves much less from one --seed to the next than any
/// one seed's time. (Ten-run spreads of fuzz cpu_s: 0.12 for the median
/// of three seeds, 0.055 for the mean of five.) MinPasses gives every
/// set a pass and repeats one, so a seed's canonical result bytes are
/// always compared across passes.
constexpr unsigned SeedSets = 5;
constexpr size_t MinPasses = SeedSets + 1;
/// Set-up repetitions whose median is reported as setup_s: some before
/// the timed passes and some after each pass, so the median samples the
/// whole run (set-up is a few milliseconds for table3, tens for fuzz).
constexpr unsigned Table3SetupReps = 9, Table3SetupRepsPerPass = 3;
constexpr unsigned FuzzSetupReps = 5, FuzzSetupRepsPerPass = 2;

/// CPU seconds this process has used, all threads. The batch workloads
/// time synthesis by it rather than by the wall clock: on a shared host
/// the wall time of the same work moves with other tenants' load by far
/// more than any change worth measuring, while the CPU time the work
/// itself takes (the kernel leaves out time the host steals) stays put.
double cpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return T.tv_sec + T.tv_nsec * 1e-9;
}

/// The execution config synthesis gives execution \p I of a round of
/// \p P whose seeds start at \p Seed, flush-probability portfolio
/// included; the oracle and the probe both run executions through it.
vm::ExecConfig execConfigFor(const Problem &P, uint64_t Seed, unsigned I) {
  vm::ExecConfig EC;
  EC.Model = P.Cfg.Model;
  EC.Dispatch = P.Cfg.Dispatch;
  EC.Seed = Seed + I;
  EC.MaxSteps = P.Cfg.MaxStepsPerExec;
  EC.FlushProb = P.Cfg.FlushProbs.empty()
                     ? P.Cfg.FlushProb
                     : P.Cfg.FlushProbs[I % P.Cfg.FlushProbs.size()];
  EC.PartialOrderReduction = P.Cfg.PartialOrderReduction;
  EC.InterOpPredicates = P.Cfg.InterOpPredicates;
  return EC;
}

//===--- Workload inputs --------------------------------------------------===//

/// The Table-3 configuration of the paper's reproduction: K executions
/// per round, two clean rounds to converge, flush probability 0.1 on TSO
/// and a {0.5, 0.1} portfolio on PSO.
synth::SynthConfig table3Config(vm::MemModel Model, synth::SpecKind Spec,
                                const spec::SpecFactory &Factory,
                                unsigned Jobs, uint64_t Seed) {
  synth::SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = Spec;
  Cfg.Factory = Factory;
  Cfg.ExecsPerRound = 1000;
  Cfg.MaxRounds = 16;
  Cfg.MaxRepairRounds = 16;
  Cfg.CleanRoundsRequired = 2;
  Cfg.MaxStepsPerExec = 30000;
  Cfg.FlushProb = Model == vm::MemModel::TSO ? 0.1 : 0.5;
  if (Model == vm::MemModel::PSO)
    Cfg.FlushProbs = {0.5, 0.1};
  Cfg.Jobs = Jobs;
  Cfg.BaseSeed = Seed;
  return Cfg;
}

/// Every Table-3 cell: 13 algorithms x their (spec, model) pairs.
/// \p CompileS receives the frontend time.
std::vector<Problem> table3Problems(uint64_t Seed, unsigned Jobs,
                                    double &CompileS) {
  std::vector<Problem> Ps;
  CompileS = 0;
  for (const programs::Benchmark &B : programs::allBenchmarks()) {
    auto T0 = Clock::now();
    auto CR = frontend::compileMiniC(B.Source);
    CompileS += secondsSince(T0);
    if (!CR.Ok) {
      std::fprintf(stderr, "compile %s: %s\n", B.Name.c_str(),
                   CR.Error.c_str());
      std::exit(1);
    }
    std::vector<std::pair<synth::SpecKind, vm::MemModel>> Cells;
    synth::SpecKind Safety = B.UseNoGarbage ? synth::SpecKind::NoGarbage
                                            : synth::SpecKind::MemorySafety;
    for (vm::MemModel M : {vm::MemModel::TSO, vm::MemModel::PSO})
      Cells.push_back({Safety, M});
    if (B.Factory)
      for (vm::MemModel M : {vm::MemModel::TSO, vm::MemModel::PSO}) {
        Cells.push_back({synth::SpecKind::SequentialConsistency, M});
        Cells.push_back({synth::SpecKind::Linearizability, M});
      }
    for (auto [Spec, Model] : Cells) {
      Problem P;
      P.Name = B.Name + "/" + synth::specKindName(Spec) + "/" +
               vm::memModelName(Model);
      P.M = CR.Module;
      P.Clients = B.Clients;
      P.Cfg = table3Config(Model, Spec, B.Factory, Jobs,
                           deriveSeed(Seed, P.Name) | 1);
      Ps.push_back(std::move(P));
    }
  }
  return Ps;
}

/// The fuzz corpus: generated scenarios plus the litmus shapes, resolved
/// exactly like the daemon resolves a request. Litmus problems get their
/// golden PSO fences in \p Golden (keyed by problem index).
///
/// The corpus is the one of campaign seed CorpusSeed; \p Seed re-seeds
/// every scenario's synthesis. A corpus drawn from \p Seed instead has
/// its wall time set by how many of its ~12 SAT-heavy scenarios it
/// happens to contain, which moved it by 30-40% from seed to seed.
std::vector<Problem>
fuzzProblems(uint64_t Seed, unsigned Jobs, double &GenerateS,
             double &CompileS, uint64_t &Rejected,
             std::map<size_t, std::vector<fuzz::GoldenFence>> &Golden) {
  constexpr uint64_t CorpusSeed = 0xf022;
  auto T0 = Clock::now();
  fuzz::GeneratorOptions GO;
  GO.FuzzSeed = CorpusSeed;
  GO.Count = 150;
  std::vector<fuzz::Scenario> Corpus = fuzz::generateScenarios(GO);
  for (fuzz::Scenario &S : fuzz::litmusScenarios(CorpusSeed))
    Corpus.push_back(std::move(S));
  for (fuzz::Scenario &S : Corpus)
    S.Seed = deriveSeed(Seed, S.Name) | 1;
  GenerateS = secondsSince(T0);

  fuzz::CampaignConfig CC;
  CC.Model = "pso";
  CC.K = 80;
  CC.Rounds = 8;
  T0 = Clock::now();
  std::vector<Problem> Ps;
  Rejected = 0;
  Golden.clear();
  for (const fuzz::Scenario &S : Corpus) {
    std::string Error;
    auto Req = serve::parseRequest(fuzz::requestJson(S, CC), Error);
    std::optional<serve::SynthJob> Job;
    if (Req)
      Job = serve::prepareJob(*Req, Error);
    if (!Job) {
      ++Rejected;
      continue;
    }
    for (const fuzz::LitmusShape &L : fuzz::litmusCorpus())
      if (S.Name == "litmus-" + L.Name)
        Golden[Ps.size()] = L.MinPso;
    Problem P;
    P.Name = S.Name;
    P.M = std::move(Job->M);
    P.Clients = std::move(Job->Clients);
    P.Cfg = std::move(Job->Cfg);
    P.Cfg.Jobs = Jobs;
    Ps.push_back(std::move(P));
  }
  CompileS = secondsSince(T0);
  return Ps;
}

//===--- Timed passes -----------------------------------------------------===//

struct PassResult {
  double CpuS = 0;  ///< Sum of VerdictMs, in seconds.
  double WallS = 0; ///< Wall time of the synthesize calls.
  std::vector<double> VerdictMs; ///< Per problem: CPU ms of its synthesis.
  std::vector<std::string> Canon;
  std::vector<synth::SynthResult> Results;
};

/// Synthesizes every problem once, in order, with a cold cache each. A
/// non-null \p Reg turns on the registry and a trace sink: one sink per
/// problem, whose span durations are summed by name into \p SpanUs, so
/// memory stays bounded.
PassResult runPass(const std::vector<Problem> &Ps, obs::Registry *Reg,
                   std::map<std::string, double> *SpanUs) {
  PassResult R;
  for (const Problem &P : Ps) {
    std::optional<obs::TraceSink> Sink;
    obs::ObsContext Obs;
    synth::SynthConfig Cfg = P.Cfg;
    if (Reg) {
      Sink.emplace();
      Obs.Metrics = Reg;
      Obs.Trace = &*Sink;
      Cfg.Obs = &Obs;
    }
    double C0 = cpuSeconds();
    auto T0 = Clock::now();
    synth::SynthResult SR = synth::synthesize(P.M, P.Clients, Cfg);
    R.WallS += secondsSince(T0);
    R.VerdictMs.push_back((cpuSeconds() - C0) * 1000);
    R.CpuS += R.VerdictMs.back() / 1000;
    R.Canon.push_back(serve::resultToJson(SR).dump());
    R.Results.push_back(std::move(SR));
    if (Sink && SpanUs) {
      Json T = Sink->toJson();
      if (const Json *Events = T.find("traceEvents"))
        for (const Json &E : Events->items())
          if (const Json *D = E.find("dur"))
            (*SpanUs)[E.find("name")->asString()] += D->asDouble();
    }
  }
  return R;
}

//===--- Correctness oracle -----------------------------------------------===//

struct Verdicts {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Fences = 0;
  std::vector<std::string> FailedNames;
};

/// Judges one pass: statuses, held-out re-verification and goldens.
Verdicts judge(const std::vector<Problem> &Ps, const PassResult &R,
               const std::map<size_t, std::vector<fuzz::GoldenFence>> &Golden,
               uint64_t HeldOutSeed, unsigned Execs, unsigned Jobs) {
  Verdicts V;
  std::vector<const Problem *> ToCheck;
  std::vector<const ir::Module *> Fenced;
  std::vector<size_t> Index;
  std::vector<std::string> Bad(Ps.size());
  for (size_t I = 0; I != Ps.size(); ++I) {
    const synth::SynthResult &SR = R.Results[I];
    ++V.Attempted;
    V.Fences += SR.Fences.size();
    if (SR.Status == synth::SynthStatus::Converged) {
      ToCheck.push_back(&Ps[I]);
      Fenced.push_back(&SR.FencedModule);
      Index.push_back(I);
    } else if (SR.Status != synth::SynthStatus::CannotFix) {
      Bad[I] = synth::synthStatusName(SR.Status);
    }
    auto G = Golden.find(I);
    if (G != Golden.end()) {
      std::vector<std::string> Strs;
      for (const synth::InsertedFence &F : SR.Fences)
        Strs.push_back(F.str());
      if (!fuzz::fencesMatchGolden(Strs, G->second))
        Bad[I] = "golden";
    }
  }
  std::vector<uint64_t> Viol =
      reverifyAll(ToCheck, Fenced, HeldOutSeed, Execs, Jobs);
  for (size_t J = 0; J != Viol.size(); ++J)
    if (Viol[J])
      Bad[Index[J]] = "held-out violation";
  for (size_t I = 0; I != Ps.size(); ++I)
    if (!Bad[I].empty()) {
      ++V.Failed;
      V.FailedNames.push_back(Ps[I].Name + ": " + Bad[I]);
    }
  return V;
}

/// Removes one synthesized fence from converged litmus results (whose
/// goldens are minimal, so every fence is needed) and requires the
/// re-verification to report a violation. Returns error strings; \p Cuts
/// receives the number of fences removed.
std::vector<std::string> oracleSelfTest(unsigned Jobs, unsigned &Cuts) {
  std::vector<std::string> Errors;
  Cuts = 0;
  for (const fuzz::Scenario &S : fuzz::litmusScenarios(0x5e1f)) {
    fuzz::CampaignConfig CC;
    CC.Model = "pso";
    CC.K = 80;
    CC.Rounds = 8;
    std::string Error;
    auto Req = serve::parseRequest(fuzz::requestJson(S, CC), Error);
    auto Job = Req ? serve::prepareJob(*Req, Error) : std::nullopt;
    if (!Job) {
      Errors.push_back("self-test: " + S.Name + ": " + Error);
      continue;
    }
    Problem P{S.Name, std::move(Job->M), std::move(Job->Clients),
              std::move(Job->Cfg)};
    P.Cfg.Jobs = Jobs;
    synth::SynthResult SR = synth::synthesize(P.M, P.Clients, P.Cfg);
    // Only a result that verifies with all its fences can show that a
    // cut is caught.
    if (SR.Status != synth::SynthStatus::Converged || SR.Fences.empty() ||
        reverify(P, SR.FencedModule, 0x0dd5eed, 400) != 0)
      continue;
    for (const synth::InsertedFence &F : SR.Fences) {
      ir::Module Cut = SR.FencedModule;
      auto Fn = Cut.functionOfLabel(F.FenceLabel);
      if (!Fn) {
        Errors.push_back("self-test: fence label not found in " + S.Name);
        continue;
      }
      Cut.function(*Fn).erase(F.FenceLabel);
      ++Cuts;
      if (reverify(P, Cut, 0x0dd5eed, 400) == 0)
        Errors.push_back("self-test: oracle missed " + S.Name +
                         " without " + F.str());
    }
  }
  if (Cuts == 0)
    Errors.push_back("self-test: no fenced litmus result to cut");
  return Errors;
}

//===--- Per-layer readings -----------------------------------------------===//

void setLayer(Json &L, const std::string &Name, double V) {
  L.set(Name, Json::number(V));
}

/// Per-layer metrics of one traced pass.
Json layersOf(const PassResult &R, obs::Registry &Reg,
              const std::map<std::string, double> &SpanUs, unsigned Jobs) {
  double SolveUs = 0, Clauses = 0, Models = 0, Conflicts = 0;
  double Rounds = 0, Execs = 0, Violating = 0, Discarded = 0, Retried = 0;
  double Hits = 0, Misses = 0;
  for (const synth::SynthResult &SR : R.Results) {
    for (const synth::RoundStats &RS : SR.RoundLog) {
      SolveUs += RS.SatSolveUs;
      Clauses += RS.SatClauses;
      Models += RS.SatModels;
      Conflicts += RS.SatConflicts;
    }
    Rounds += SR.Rounds;
    Execs += SR.TotalExecutions;
    Violating += SR.ViolatingExecutions;
    Discarded += SR.DiscardedExecutions;
    Retried += SR.RetriedExecutions;
    Hits += SR.ExecCacheHits;
    Misses += SR.ExecCacheMisses;
  }
  auto Span = [&](const char *N) {
    auto It = SpanUs.find(N);
    return It == SpanUs.end() ? 0.0 : It->second;
  };
  double PoolWall = Reg.gauge("exec_pool_wall_us").value();
  double PoolBusy = Reg.gauge("exec_pool_busy_us").value();
  Json L = Json::object();
  setLayer(L, "sat.solve_ms", SolveUs / 1000);
  setLayer(L, "sat.clauses", Clauses);
  setLayer(L, "sat.models", Models);
  setLayer(L, "sat.conflicts", Conflicts);
  setLayer(L, "sat.share", R.WallS > 0 ? SolveUs / 1e6 / R.WallS : 0);
  setLayer(L, "vm.steps",
           static_cast<double>(Reg.counter("vm_steps_total").value()));
  setLayer(L, "exec.busy_ratio",
           PoolWall > 0 ? PoolBusy / (Jobs * PoolWall) : 0);
  setLayer(L, "exec.queue_wait_p50_us",
           Reg.histogram("exec_pool_queue_wait_us").percentile(0.5));
  setLayer(L, "synth.rounds", Rounds);
  setLayer(L, "synth.executions", Execs);
  setLayer(L, "synth.violating", Violating);
  setLayer(L, "synth.enforce_ms", Span("enforce") / 1000);
  setLayer(L, "synth.fold_ms", Span("fold") / 1000);
  setLayer(L, "harness.discarded", Discarded);
  setLayer(L, "harness.retries", Retried);
  setLayer(L, "harness.discarded_share", Execs > 0 ? Discarded / Execs : 0);
  setLayer(L, "harness.retries_share", Execs > 0 ? Retried / Execs : 0);
  setLayer(L, "cache.hit_ratio",
           Hits + Misses > 0 ? Hits / (Hits + Misses) : 0);
  return L;
}

/// The traced run's two passes over \p Ps, plain then with a registry
/// and trace sink, plus the probe. Returns the per-layer metrics,
/// trace.overhead included; \p Passes receives both passes.
Json tracedLayers(const std::vector<Problem> &Ps, unsigned Jobs,
                  uint64_t Seed, std::vector<PassResult> &Passes) {
  obs::Registry Reg;
  std::map<std::string, double> SpanUs;
  Passes.push_back(runPass(Ps, nullptr, nullptr));
  Passes.push_back(runPass(Ps, &Reg, &SpanUs));
  Json L = layersOf(Passes[1], Reg, SpanUs, Jobs);
  setLayer(L, "trace.overhead", Passes[1].CpuS / Passes[0].CpuS);
  setLayer(L, "wall_s", Passes[0].WallS);
  std::vector<const Problem *> Probe;
  for (const Problem &P : Ps)
    Probe.push_back(&P);
  probeLayers(Probe, Seed, L);
  return L;
}

//===--- Workloads --------------------------------------------------------===//

Json runBatch(const std::string &Workload, const RunOptions &O) {
  const bool IsFuzz = Workload == "fuzz";
  // One problem list per seed set; they differ only in synthesis seeds.
  std::vector<std::vector<Problem>> Sets(SeedSets);
  std::map<size_t, std::vector<fuzz::GoldenFence>> Golden;
  uint64_t Rejected = 0;
  std::vector<double> SetupS, CompileS, GenerateS;
  unsigned NextSet = 0;
  auto SetUp = [&](unsigned Reps) {
    for (unsigned Rep = 0; Rep != Reps; ++Rep, ++NextSet) {
      unsigned S = NextSet % SeedSets;
      uint64_t Seed = deriveSeed(O.Seed, "set-" + std::to_string(S));
      double C0 = cpuSeconds();
      double Gen = 0, Comp = 0;
      Sets[S] = IsFuzz
                    ? fuzzProblems(Seed, O.Jobs, Gen, Comp, Rejected, Golden)
                    : table3Problems(Seed, O.Jobs, Comp);
      SetupS.push_back(cpuSeconds() - C0);
      CompileS.push_back(Comp);
      GenerateS.push_back(Gen);
    }
  };
  SetUp(IsFuzz ? FuzzSetupReps : Table3SetupReps);

  Json Doc = Json::object();
  Doc.set("workload", Json::string(Workload));
  unsigned Cuts = 0;
  std::vector<std::string> Errors = oracleSelfTest(O.Jobs, Cuts);

  // Timed passes; pass P runs seed set SetOf[P]. The traced run times one
  // plain and one traced pass of set 0 instead.
  std::vector<PassResult> Passes;
  std::vector<unsigned> SetOf;
  Json Layers;
  auto Start = Clock::now();
  if (O.Trace) {
    Layers = tracedLayers(Sets[0], O.Jobs, O.Seed, Passes);
    SetOf = {0, 0};
  } else {
    while (Passes.size() < MinPasses || secondsSince(Start) < O.Seconds) {
      SetOf.push_back(Passes.size() % SeedSets);
      Passes.push_back(runPass(Sets[SetOf.back()], nullptr, nullptr));
      SetUp(IsFuzz ? FuzzSetupRepsPerPass : Table3SetupRepsPerPass);
    }
  }
  const size_t N = Sets[0].size();
  for (size_t P = 0; P != Passes.size(); ++P)
    for (size_t Q = 0; Q != P; ++Q)
      if (SetOf[Q] == SetOf[P] && Passes[Q].Canon != Passes[P].Canon) {
        Errors.push_back("canonical results of seed set " +
                         std::to_string(SetOf[P]) +
                         " drifted between passes");
        break;
      }

  // The oracle judges the last pass of every seed set.
  Verdicts V;
  for (size_t P = 0; P != Passes.size(); ++P) {
    bool LastOfSet = true;
    for (size_t Q = P + 1; Q != Passes.size(); ++Q)
      LastOfSet &= SetOf[Q] != SetOf[P];
    if (!LastOfSet)
      continue;
    Verdicts SV = judge(Sets[SetOf[P]], Passes[P], Golden,
                        deriveSeed(O.Seed, "held-out"),
                        IsFuzz ? FuzzReverifyExecs : Table3ReverifyExecs,
                        O.Jobs);
    V.Attempted += SV.Attempted + Rejected;
    V.Failed += SV.Failed + Rejected;
    V.Fences += SV.Fences;
    for (const std::string &Name : SV.FailedNames)
      V.FailedNames.push_back("set " + std::to_string(SetOf[P]) + " " +
                              Name);
  }

  Doc.set("attempted", Json::number(V.Attempted));
  Doc.set("failed", Json::number(V.Failed));
  Json FN = Json::array();
  for (const std::string &Name : V.FailedNames)
    FN.push(Json::string(Name));
  Doc.set("failed_names", std::move(FN));
  Doc.set("problems", Json::number(static_cast<uint64_t>(N)));
  Doc.set("fences_total", Json::number(V.Fences));
  Doc.set("setup_s", numbers(SetupS));

  // Per problem: the mean over the seed sets of its fastest pass of each
  // set (SeedSets). The traced run has one set.
  std::vector<double> PassCpu, PassWalls, Verdict;
  for (const PassResult &P : Passes) {
    PassCpu.push_back(P.CpuS);
    PassWalls.push_back(P.WallS);
  }
  for (size_t I = 0; I != N; ++I) {
    std::map<unsigned, double> Best;
    for (size_t P = 0; P != Passes.size(); ++P) {
      auto [It, New] = Best.emplace(SetOf[P], Passes[P].VerdictMs[I]);
      It->second = std::min(It->second, Passes[P].VerdictMs[I]);
    }
    double Sum = 0;
    for (const auto &[Set, Ms] : Best)
      Sum += Ms;
    Verdict.push_back(Sum / Best.size());
  }
  Doc.set("pass_cpu_s", numbers(PassCpu));
  Doc.set("pass_wall_s", numbers(PassWalls));
  Doc.set("verdict_ms", numbers(Verdict));
  Doc.set("peak_rss_mb", Json::number(peakRssMb(0)));

  if (O.Trace) {
    setLayer(Layers, "frontend.compile_ms", median(CompileS) * 1000);
    setLayer(Layers, "fuzz.generate_ms", median(GenerateS) * 1000);
    Doc.set("layers", std::move(Layers));
  }

  Json Errs = Json::array();
  for (const std::string &E : Errors)
    Errs.push(Json::string(E));
  Doc.set("errors", std::move(Errs));
  return Doc;
}

} // namespace

//===--- Shared helpers (Driver.h) ----------------------------------------===//

Json perfbench::traceProblems(const std::vector<Problem> &Ps, unsigned Jobs,
                              uint64_t Seed) {
  std::vector<PassResult> Passes;
  return tracedLayers(Ps, Jobs, Seed, Passes);
}

uint64_t perfbench::reverify(const Problem &P, const ir::Module &Fenced,
                             uint64_t Seed, unsigned Execs) {
  vm::PreparedProgram Prog(Fenced, P.Clients);
  vm::ExecContext Ctx;
  vm::ExecResult R;
  uint64_t Violations = 0;
  for (unsigned I = 0; I != Execs; ++I) {
    Ctx.run(Prog, I % Prog.numClients(), execConfigFor(P, Seed, I), R);
    if (!synth::checkExecution(R, P.Cfg).empty())
      ++Violations;
  }
  return Violations;
}

std::vector<uint64_t>
perfbench::reverifyAll(const std::vector<const Problem *> &Ps,
                       const std::vector<const ir::Module *> &Fenced,
                       uint64_t Seed, unsigned Execs, unsigned Jobs) {
  std::vector<uint64_t> Out(Ps.size(), 0);
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Ps.size();)
      Out[I] = reverify(*Ps[I], *Fenced[I], Seed, Execs);
  };
  std::vector<std::thread> Ts;
  for (unsigned T = 1; T < std::max(1u, Jobs); ++T)
    Ts.emplace_back(Work);
  Work();
  for (std::thread &T : Ts)
    T.join();
  return Out;
}

void perfbench::probeLayers(const std::vector<const Problem *> &Ps,
                            uint64_t Seed, Json &Layers) {
  double ExecUs = 0, CheckUs = 0, ModelUs = 0, EnforceUs = 0;
  uint64_t Runs = 0, Solves = 0;
  vm::ExecContext Ctx;
  vm::ExecResult R;
  for (const Problem *P : Ps) {
    vm::PreparedProgram Prog(P->M, P->Clients);
    std::map<vm::OrderingPredicate, sat::Var> VarOf;
    std::vector<vm::OrderingPredicate> PredOf;
    sat::MonotoneCnf F;
    for (unsigned I = 0; I != ProbeExecs; ++I) {
      vm::ExecConfig EC = execConfigFor(*P, deriveSeed(Seed, P->Name), I);
      EC.CollectRepairs = true;
      auto T0 = Clock::now();
      Ctx.run(Prog, I % Prog.numClients(), EC, R);
      auto T1 = Clock::now();
      std::string Why = synth::checkExecution(R, P->Cfg);
      auto T2 = Clock::now();
      ExecUs += std::chrono::duration<double, std::micro>(T1 - T0).count();
      CheckUs += std::chrono::duration<double, std::micro>(T2 - T1).count();
      ++Runs;
      if (Why.empty() || R.Repairs.empty())
        continue;
      std::vector<sat::Var> Clause;
      for (const vm::OrderingPredicate &Pr : R.Repairs) {
        auto [It, New] =
            VarOf.emplace(Pr, static_cast<sat::Var>(PredOf.size()));
        if (New)
          PredOf.push_back(Pr);
        Clause.push_back(It->second);
      }
      std::sort(Clause.begin(), Clause.end());
      Clause.erase(std::unique(Clause.begin(), Clause.end()), Clause.end());
      F.Clauses.push_back(std::move(Clause));
    }
    if (F.Clauses.empty())
      continue;
    F.NumVars = static_cast<unsigned>(PredOf.size());
    bool Unsat = false;
    auto T0 = Clock::now();
    std::vector<sat::Var> Model = sat::minimumModel(F, Unsat);
    auto T1 = Clock::now();
    if (Unsat)
      continue;
    std::vector<vm::OrderingPredicate> Chosen;
    for (sat::Var V : Model)
      Chosen.push_back(PredOf[V]);
    ir::Module Copy = P->M;
    auto T2 = Clock::now();
    synth::enforcePredicates(Copy, Chosen, P->Cfg.Mode);
    auto T3 = Clock::now();
    ModelUs += std::chrono::duration<double, std::micro>(T1 - T0).count();
    EnforceUs += std::chrono::duration<double, std::micro>(T3 - T2).count();
    ++Solves;
  }
  setLayer(Layers, "vm.exec_us", Runs ? ExecUs / Runs : 0);
  setLayer(Layers, "spec.check_us", Runs ? CheckUs / Runs : 0);
  setLayer(Layers, "sat.model_us", Solves ? ModelUs / Solves : 0);
  setLayer(Layers, "synth.enforce_us", Solves ? EnforceUs / Solves : 0);
}

double perfbench::peakRssMb(int Pid) {
  std::string Path =
      Pid ? "/proc/" + std::to_string(Pid) + "/status" : "/proc/self/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

//===--- main -------------------------------------------------------------===//

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string Workload;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 0);
    else if (K == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--dfence")
      O.DfenceBin = V;
    else if (K == "--run-dir")
      O.RunDir = V;
    else {
      std::fprintf(stderr, "unknown flag %s\n", K.c_str());
      return 2;
    }
  }
  O.Jobs = std::max(1u, std::thread::hardware_concurrency());
  // A zero seed would collide with the synthesizer's "default" meaning.
  O.Seed = deriveSeed(O.Seed, "perfbench") | 1;

  Json Doc;
  if (Workload == "table3" || Workload == "fuzz") {
    Doc = runBatch(Workload, O);
  } else if (Workload == "serve") {
    if (O.DfenceBin.empty() || O.RunDir.empty()) {
      std::fprintf(stderr, "serve needs --dfence and --run-dir\n");
      return 2;
    }
    Doc = runServeWorkload(O);
  } else if (Workload == "selftest") {
    unsigned Cuts = 0;
    std::vector<std::string> Errors = oracleSelfTest(O.Jobs, Cuts);
    for (const std::string &E : Errors)
      std::fprintf(stderr, "%s\n", E.c_str());
    std::printf("oracle self-test: %s (%u fences removed one at a time)\n",
                Errors.empty() ? "ok" : "FAILED", Cuts);
    return Errors.empty() ? 0 : 1;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", Workload.c_str());
    return 2;
  }
  std::printf("%s\n", Doc.dump().c_str());
  return 0;
}
