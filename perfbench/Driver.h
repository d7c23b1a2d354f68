//===- Driver.h - Shared pieces of the perfbench driver ---------*- C++ -*-===//
//
// The benchmark driver times the dfence system from outside, through its
// public functions only. driver.cpp holds the in-process workloads
// (table3, fuzz), the correctness oracle and the per-layer probe;
// serve_load.cpp holds the closed-loop client for a real `dfence
// serve` daemon. Each workload returns one JSON document of raw samples
// that run.py turns into the reported metrics.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_PERFBENCH_DRIVER_H
#define DFENCE_PERFBENCH_DRIVER_H

#include "ir/Module.h"
#include "support/Json.h"
#include "synth/Synthesizer.h"
#include "vm/Client.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using namespace dfence;
using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// The median of \p V; 0 when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// \p V as a JSON array of numbers.
inline Json numbers(const std::vector<double> &V) {
  Json A = Json::array();
  for (double X : V)
    A.push(Json::number(X));
  return A;
}

struct RunOptions {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Jobs = 1;     ///< In-process width: the hardware threads.
  std::string DfenceBin; ///< The `dfence` binary the serve workload runs.
  std::string RunDir;    ///< Sockets and daemon dumps go here.
};

/// One synthesis problem: a module, its clients and a full config.
struct Problem {
  std::string Name;
  ir::Module M;
  std::vector<vm::Client> Clients;
  synth::SynthConfig Cfg;
};

/// Re-runs \p Execs executions of \p Fenced on seeds derived from \p Seed
/// (none of which synthesis used) and checks each against \p P's spec.
/// Returns the number of violating executions.
uint64_t reverify(const Problem &P, const ir::Module &Fenced, uint64_t Seed,
                  unsigned Execs);

/// Runs reverify over many (problem, fenced module) pairs on \p Jobs
/// threads; returns the violation count per pair.
std::vector<uint64_t>
reverifyAll(const std::vector<const Problem *> &Ps,
            const std::vector<const ir::Module *> &Fenced, uint64_t Seed,
            unsigned Execs, unsigned Jobs);

/// Times ExecContext::run, checkExecution, minimumModel and
/// enforcePredicates on \p Ps (a few executions each) and sets the
/// per-call means (vm.exec_us, spec.check_us, sat.model_us,
/// synth.enforce_us) in \p Layers.
void probeLayers(const std::vector<const Problem *> &Ps, uint64_t Seed,
                 Json &Layers);

/// Synthesizes \p Ps twice at width \p Jobs, plain and then with a
/// metrics registry and a trace sink (no profiler), runs the probe, and
/// returns the per-layer metrics of the traced pass with trace.overhead.
Json traceProblems(const std::vector<Problem> &Ps, unsigned Jobs,
                   uint64_t Seed);

/// Peak resident set of process \p Pid (0 = self) in MiB, from
/// /proc/<pid>/status VmHWM; 0 when unreadable.
double peakRssMb(int Pid);

/// The serve workload; see serve_load.cpp.
Json runServeWorkload(const RunOptions &O);

} // namespace perfbench

#endif // DFENCE_PERFBENCH_DRIVER_H
