//===- RandomFlushScheduler.cpp -------------------------------------------===//

#include "sched/RandomFlushScheduler.h"

#include "support/Diagnostics.h"

#include <cassert>

using namespace dfence;
using namespace dfence::sched;

Scheduler::~Scheduler() = default;

RandomFlushScheduler::RandomFlushScheduler(RandomFlushConfig Cfg)
    : Cfg(Cfg) {}

RandomFlushScheduler::~RandomFlushScheduler() = default;

void RandomFlushScheduler::reset() {
  LastTid = ~0u;
  LocalStreak = 0;
}

Action RandomFlushScheduler::pick(const std::vector<ThreadView> &Threads,
                                  Rng &R) {
  assert([&] {
    for (size_t I = 0, E = Threads.size(); I != E; ++I)
      if (Threads[I].Tid != I)
        return false;
    return true;
  }() && "views must be indexed by Tid");
  // Partial-order reduction: a thread executing purely local instructions
  // cannot interact with other threads, so keep running it. Views are
  // indexed by Tid, so the last thread is a direct lookup (LastTid is ~0u
  // after reset, which no index reaches).
  if (Cfg.PartialOrderReduction && LastTid < Threads.size() &&
      LocalStreak < Cfg.MaxLocalStreak) {
    const ThreadView &T = Threads[LastTid];
    if (T.Runnable && !T.NextIsShared) {
      ++LocalStreak;
      return Action::step(T.Tid);
    }
  }
  LocalStreak = 0;

  // Candidates: runnable threads plus threads with pending stores (a
  // finished thread's buffer can still drain at any time).
  Candidates.clear();
  for (uint32_t I = 0, E = static_cast<uint32_t>(Threads.size()); I != E;
       ++I)
    if (Threads[I].Runnable || Threads[I].PendingStores > 0)
      Candidates.push_back(I);
  if (Candidates.empty())
    reportFatalError("scheduler invoked with no schedulable thread");

  const ThreadView &T =
      Threads[Candidates[R.nextBelow(Candidates.size())]];
  LastTid = T.Tid;

  if (T.PendingStores == 0)
    return Action::step(T.Tid);
  if (!T.Runnable || R.nextBool(Cfg.FlushProb)) {
    // Flush one entry; under PSO pick a random per-variable buffer.
    if (!T.BufferedVars.empty()) {
      ir::Word Var = T.BufferedVars[R.nextBelow(T.BufferedVars.size())];
      return Action::flushVar(T.Tid, Var);
    }
    return Action::flush(T.Tid);
  }
  return Action::step(T.Tid);
}
