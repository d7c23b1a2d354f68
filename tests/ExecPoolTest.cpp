//===- ExecPoolTest.cpp - Worker pool & round runner tests ----------------===//
//
// The pool's contract is prefix semantics: runOrdered executes exactly
// the indices [0, Cut) — each exactly once — and cancellation via the
// stop predicate never punches holes in that prefix. The round runner on
// top must produce per-slot results identical to running the same plan
// sequentially.
//
//===----------------------------------------------------------------------===//

#include "exec/ExecPool.h"
#include "exec/RoundRunner.h"
#include "frontend/Compiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

using namespace dfence;
using namespace dfence::exec;

TEST(ExecPoolTest, ResolveJobsZeroMeansHardware) {
  EXPECT_GE(resolveJobs(0), 1u);
  EXPECT_EQ(resolveJobs(1), 1u);
  EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(ExecPoolTest, SingleJobSpawnsNoThreadsAndRunsAll) {
  ExecPool Pool(1);
  EXPECT_EQ(Pool.jobs(), 1u);
  std::vector<int> Hits(50, 0);
  size_t Cut = Pool.runOrdered(Hits.size(),
                               [&](size_t I) { ++Hits[I]; });
  EXPECT_EQ(Cut, 50u);
  for (int H : Hits)
    EXPECT_EQ(H, 1);
}

TEST(ExecPoolTest, RunsEveryIndexExactlyOnce) {
  ExecPool Pool(4);
  EXPECT_EQ(Pool.jobs(), 4u);
  std::vector<std::atomic<int>> Hits(200);
  size_t Cut =
      Pool.runOrdered(Hits.size(), [&](size_t I) { ++Hits[I]; });
  EXPECT_EQ(Cut, 200u);
  for (const std::atomic<int> &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ExecPoolTest, ZeroCountReturnsZero) {
  ExecPool Pool(3);
  size_t Cut = Pool.runOrdered(0, [&](size_t) { FAIL(); });
  EXPECT_EQ(Cut, 0u);
}

TEST(ExecPoolTest, PoolIsReusableAcrossBatches) {
  ExecPool Pool(4);
  for (int Round = 0; Round != 5; ++Round) {
    std::atomic<size_t> Done{0};
    size_t Cut = Pool.runOrdered(64, [&](size_t) { ++Done; });
    EXPECT_EQ(Cut, 64u);
    EXPECT_EQ(Done.load(), 64u);
  }
}

TEST(ExecPoolTest, CancellationTruncatesToExecutedPrefix) {
  ExecPool Pool(4);
  std::vector<std::atomic<int>> Hits(10000);
  std::atomic<size_t> Done{0};
  size_t Cut = Pool.runOrdered(
      Hits.size(),
      [&](size_t I) {
        ++Hits[I];
        ++Done;
      },
      [&] { return Done.load() >= 25; });
  // The stop fired well before the end; claimed slots still finished.
  EXPECT_LT(Cut, Hits.size());
  EXPECT_GE(Cut, 25u);
  // Prefix semantics: exactly [0, Cut) ran, each exactly once.
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), I < Cut ? 1 : 0) << "index " << I;
}

TEST(ExecPoolTest, ImmediateStopRunsNothing) {
  ExecPool Pool(4);
  size_t Cut = Pool.runOrdered(
      100, [&](size_t) { FAIL(); }, [] { return true; });
  EXPECT_EQ(Cut, 0u);
}

namespace {

// Two racing increments on a shared counter: enough scheduling freedom
// that different seeds produce different step counts, which the round
// runner must report per slot, in slot order.
const char *CounterSrc = R"(
global int C = 0;
int bump() {
  int v = C;
  C = v + 1;
  return v;
}
)";

vm::Client bumpClient() {
  vm::Client C;
  vm::MethodCall MB;
  MB.Func = "bump";
  vm::ThreadScript A, B;
  A.Calls = {MB, MB};
  B.Calls = {MB};
  C.Threads = {A, B};
  return C;
}

RoundPlan smallPlan(size_t K) {
  RoundPlan Plan;
  Plan.Slots.resize(K);
  for (size_t I = 0; I != K; ++I) {
    vm::ExecConfig &EC = Plan.Slots[I].EC;
    EC.Model = vm::MemModel::PSO;
    EC.Seed = 1000 + I;
    EC.MaxSteps = 20000;
    EC.FlushProb = 0.4;
    Plan.Slots[I].ClientIdx = 0;
  }
  return Plan;
}

} // namespace

TEST(RoundRunnerTest, ParallelSlotsMatchSequentialRun) {
  auto CR = frontend::compileMiniC(CounterSrc);
  ASSERT_TRUE(CR.Ok) << CR.Error;
  std::vector<vm::Client> Clients{bumpClient()};
  RoundPlan Plan = smallPlan(40);
  harness::ExecPolicy Policy;

  ViolationCheck Check = [](const vm::ExecResult &R, unsigned) {
    return R.Out == vm::Outcome::Completed ? std::string()
                                           : R.Message;
  };

  vm::PreparedProgram Prog(CR.Module, Clients);
  ExecPool Seq(1), Par(4);
  RoundResult A = runRound(Seq.slice(0), Prog, Plan, Policy, Check);
  RoundResult B = runRound(Par.slice(0), Prog, Plan, Policy, Check);
  ASSERT_EQ(A.Ran, Plan.Slots.size());
  ASSERT_EQ(B.Ran, Plan.Slots.size());
  for (size_t I = 0; I != Plan.Slots.size(); ++I) {
    const vm::ExecResult &RA = A.Slots[I].SE.Result;
    const vm::ExecResult &RB = B.Slots[I].SE.Result;
    EXPECT_EQ(RA.Out, RB.Out) << "slot " << I;
    EXPECT_EQ(RA.Steps, RB.Steps) << "slot " << I;
    EXPECT_EQ(RA.Hist.str(), RB.Hist.str()) << "slot " << I;
    EXPECT_EQ(A.Slots[I].Violation, B.Slots[I].Violation) << "slot " << I;
  }
}

TEST(RoundRunnerTest, StopPredicateCancelsPendingSlots) {
  auto CR = frontend::compileMiniC(CounterSrc);
  ASSERT_TRUE(CR.Ok) << CR.Error;
  std::vector<vm::Client> Clients{bumpClient()};
  RoundPlan Plan = smallPlan(500);
  harness::ExecPolicy Policy;

  vm::PreparedProgram Prog(CR.Module, Clients);
  ExecPool Pool(4);
  std::atomic<size_t> Started{0};
  RoundResult RR = runRound(
      Pool.slice(0), Prog, Plan, Policy,
      [&](const vm::ExecResult &, unsigned) {
        ++Started;
        return std::string();
      },
      [&] { return Started.load() >= 10; });
  EXPECT_LT(RR.Ran, Plan.Slots.size());
  EXPECT_GE(RR.Ran, 10u);
  // The executed prefix carries results; the cancelled tail does not.
  for (size_t I = 0; I != RR.Ran; ++I)
    EXPECT_EQ(RR.Slots[I].SE.Result.Out, vm::Outcome::Completed);
  for (size_t I = RR.Ran; I != RR.Slots.size(); ++I)
    EXPECT_EQ(RR.Slots[I].SE.Result.Steps, 0u);
}
