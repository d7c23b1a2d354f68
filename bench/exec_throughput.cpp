//===- exec_throughput.cpp - Raw execution-core throughput ----------------===//
//
// Measures the per-execution cost of the execution core in isolation: no
// SAT, no enforcement, no checking — just the interpreter running the
// synthesis hot-path configuration (CollectRepairs on, per-model flush
// probability) over four Table-2 subjects, one (subject, model) cell at
// a time.
//
// A single pass over a cell runs in a few tens of milliseconds, too short
// to time once. So each cell repeats its pass until it has used at least
// MinCellSeconds (0.5 s, and at least MinReps passes) of process CPU
// time, and a cell's time is its median pass CPU time. Every pass of a
// cell runs the same seeds, so the step count of a pass is fixed; any
// pass that disagrees is a determinism bug and fails the run (exit 1).
//
// Emits BENCH_exec.json (schema "dfence-exec-throughput-v1", version 5:
// seconds fields are sums of per-cell median pass CPU times). Pass a
// number to scale the per-(subject, model) execution count per pass
// (default 300); pass "--smoke" for a small run (three passes per cell,
// no time floor) that validates the pipeline and the step check — what
// the bench_exec_smoke ctest entry asserts.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "vm/ExecContext.h"
#include "vm/Prepared.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace dfence;
using vm::MemModel;

namespace {

struct Subject {
  const char *Bench;
};

// Two work-stealing queues, a CAS queue and an idempotent queue: the
// spread of step shapes the round engine sees on Table 2.
const Subject Subjects[] = {
    {"Chase-Lev WSQ"},
    {"Cilk THE WSQ"},
    {"MSN Queue"},
    {"FIFO iWSQ"},
};

struct ModelRate {
  uint64_t Execs = 0;
  uint64_t Steps = 0;
  uint64_t Passes = 0; ///< Timed passes, all cells.
  double Seconds = 0;  ///< Sum of the cells' median pass CPU times.
};

/// Runs one pass of the cell's executions, returning CPU seconds and
/// accumulating interpreter steps into \p Steps. Every pass runs the
/// same seeds and configs.
double timeCell(vm::ExecContext &Ctx, const vm::PreparedProgram &Prog,
                MemModel Model, unsigned ExecsPer, uint64_t &Steps) {
  vm::ExecResult R;
  double C0 = bench::cpuSeconds();
  for (unsigned I = 0; I != ExecsPer; ++I) {
    vm::ExecConfig EC;
    EC.Model = Model;
    EC.Seed = 0x5eed + I;
    EC.MaxSteps = 30000;
    EC.CollectRepairs = Model != MemModel::SC;
    EC.FlushProb = vm::defaultFlushProb(Model);
    Ctx.run(Prog, I % Prog.numClients(), EC, R);
    Steps += R.Steps;
  }
  return bench::cpuSeconds() - C0;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned ExecsPer = 300;
  bool Smoke = false;
  double MinCellSeconds = 0.5;
  const unsigned MinReps = 3;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
      ExecsPer = 60; // Keeps the smoke entry sub-second.
      MinCellSeconds = 0;
    } else {
      ExecsPer = static_cast<unsigned>(std::atoi(Argv[I]));
      if (ExecsPer == 0)
        ExecsPer = 1;
    }
  }

  const MemModel Models[] = {MemModel::SC, MemModel::TSO, MemModel::PSO};
  ModelRate Rates[3];

  std::printf("Execution core throughput (%u execs per pass, passes "
              "repeated to >= %.1f CPU s per subject/model, median "
              "pass)\n\n",
              ExecsPer, MinCellSeconds);
  std::printf("%-16s %5s %10s %12s %14s %7s\n", "subject", "model",
              "seconds", "execs/s", "steps/s", "passes");

  for (const Subject &S : Subjects) {
    const programs::Benchmark &B = programs::benchmarkByName(S.Bench);
    auto CR = frontend::compileMiniC(B.Source);
    if (!CR.Ok)
      reportFatalError(std::string(S.Bench) + ": " + CR.Error);

    // The round engine's shape: prepare once, then run every execution
    // on one reusable context — what a pool slot does for a whole round.
    vm::PreparedProgram Prog(CR.Module, B.Clients);
    vm::ExecContext Ctx;

    for (size_t MI = 0; MI != 3; ++MI) {
      MemModel Model = Models[MI];
      // The first pass also warms the context's capacities; the median
      // keeps it from skewing the cell's time.
      uint64_t Steps = 0;
      std::vector<double> Times;
      double Total = 0;
      while (Times.size() < MinReps || Total < MinCellSeconds) {
        uint64_t PassSteps = 0;
        Times.push_back(timeCell(Ctx, Prog, Model, ExecsPer, PassSteps));
        Total += Times.back();
        if (Times.size() == 1)
          Steps = PassSteps;
        // Every pass runs the same seeds: any divergence in steps is a
        // semantics bug, not noise.
        if (PassSteps != Steps) {
          std::fprintf(stderr,
                       "step divergence on %s/%s: pass %zu ran %llu "
                       "steps, the first pass %llu\n",
                       S.Bench, vm::memModelName(Model), Times.size(),
                       static_cast<unsigned long long>(PassSteps),
                       static_cast<unsigned long long>(Steps));
          return 1;
        }
      }
      double Secs = bench::median(Times);
      std::printf("%-16s %5s %10.3f %12.0f %14.0f %7zu\n", S.Bench,
                  vm::memModelName(Model), Secs,
                  Secs > 0 ? ExecsPer / Secs : 0,
                  Secs > 0 ? static_cast<double>(Steps) / Secs : 0,
                  Times.size());
      Rates[MI].Execs += ExecsPer;
      Rates[MI].Steps += Steps;
      Rates[MI].Passes += Times.size();
      Rates[MI].Seconds += Secs;
    }
  }

  const char *Schema = "dfence-exec-throughput-v1";
  const uint64_t Version = 5;
  Json Doc = Json::object();
  Doc.set("schema", Json::string(Schema));
  Doc.set("schema_version", Json::number(Version));
  Doc.set("execs_per_subject", Json::number(uint64_t(ExecsPer)));
  Doc.set("min_cell_seconds", Json::number(MinCellSeconds));
  Json JModels = Json::array();
  std::printf("\naggregate over %zu subjects (sums of median pass CPU "
              "times):\n",
              sizeof(Subjects) / sizeof(Subjects[0]));
  std::printf("%5s %10s %12s %14s\n", "model", "seconds", "execs/s",
              "steps/s");
  for (size_t MI = 0; MI != 3; ++MI) {
    const ModelRate &R = Rates[MI];
    double ExecsPerSec =
        R.Seconds > 0 ? static_cast<double>(R.Execs) / R.Seconds : 0;
    double StepsPerSec =
        R.Seconds > 0 ? static_cast<double>(R.Steps) / R.Seconds : 0;
    std::printf("%5s %10.3f %12.0f %14.0f\n",
                vm::memModelName(Models[MI]), R.Seconds, ExecsPerSec,
                StepsPerSec);
    Json JM = Json::object();
    JM.set("model", Json::string(vm::memModelName(Models[MI])));
    JM.set("executions", Json::number(R.Execs));
    JM.set("steps", Json::number(R.Steps));
    JM.set("passes", Json::number(R.Passes));
    JM.set("seconds", Json::number(R.Seconds));
    JM.set("execs_per_sec", Json::number(ExecsPerSec));
    JM.set("steps_per_sec", Json::number(StepsPerSec));
    JModels.push(std::move(JM));
  }
  Doc.set("models", std::move(JModels));

  auto Parsed =
      bench::writeAndReread("BENCH_exec.json", Doc, Schema, Version, Smoke);
  if (!Parsed)
    return 1;
  const Json *ModelsJ = Parsed->find("models");
  if (!ModelsJ || !ModelsJ->isArray() || ModelsJ->items().size() != 3) {
    std::fprintf(stderr, "BENCH_exec.json is malformed\n");
    return 1;
  }
  for (const Json &JM : ModelsJ->items())
    if (!JM.find("execs_per_sec") || !JM.find("steps_per_sec") ||
        !JM.find("passes") || JM.find("executions")->asU64() == 0) {
      std::fprintf(stderr, "BENCH_exec.json has an empty model entry\n");
      return 1;
    }
  return 0;
}
