//===- Checkers.cpp -------------------------------------------------------===//

#include "spec/Checkers.h"

#include "support/Diagnostics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <unordered_set>

using namespace dfence;
using namespace dfence::spec;
using vm::EmptyVal;
using vm::History;
using vm::OpRecord;

namespace {

/// A set of 64-bit keys with open addressing. clear() is O(1) (an epoch
/// bump) and keeps the table, so a set reused across searches allocates
/// only when a search needs more room than any before it.
class FlatKeySet {
public:
  void clear() {
    Count = 0;
    if (++Epoch == 0) { // Wrapped: stamps from 2^32 clears ago look live.
      std::fill(Stamps.begin(), Stamps.end(), 0u);
      Epoch = 1;
    }
  }

  bool contains(uint64_t Key) const {
    if (Keys.empty())
      return false;
    for (size_t I = slot(Key);; I = (I + 1) & (Keys.size() - 1)) {
      if (Stamps[I] != Epoch)
        return false;
      if (Keys[I] == Key)
        return true;
    }
  }

  void insert(uint64_t Key) {
    if ((Count + 1) * 2 > Keys.size())
      grow();
    for (size_t I = slot(Key);; I = (I + 1) & (Keys.size() - 1)) {
      if (Stamps[I] != Epoch) {
        Keys[I] = Key;
        Stamps[I] = Epoch;
        ++Count;
        return;
      }
      if (Keys[I] == Key)
        return;
    }
  }

private:
  size_t slot(uint64_t Key) const {
    return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ULL) >> 32) &
           (Keys.size() - 1);
  }

  void grow() {
    std::vector<uint64_t> OldKeys = std::move(Keys);
    std::vector<uint32_t> OldStamps = std::move(Stamps);
    uint32_t OldEpoch = Epoch;
    Keys.assign(OldKeys.empty() ? 64 : OldKeys.size() * 2, 0);
    Stamps.assign(Keys.size(), 0u);
    Epoch = 1;
    Count = 0;
    for (size_t I = 0; I != OldKeys.size(); ++I)
      if (OldStamps[I] == OldEpoch)
        insert(OldKeys[I]);
  }

  std::vector<uint64_t> Keys;   ///< Power-of-two sized.
  std::vector<uint32_t> Stamps; ///< Slot I is live iff Stamps[I] == Epoch.
  uint32_t Epoch = 1;
  size_t Count = 0;
};

/// The work-stealing EMPTY relaxation's per-op test: op \p I of \p H is
/// an EMPTY take/steal overlapping another op in real time.
bool isAbortedEmptyOp(const History &H, size_t I) {
  const OpRecord &Op = H.Ops[I];
  bool IsEmptyWsqOp = (Op.Func == "take" || Op.Func == "steal") &&
                      Op.Completed && Op.Ret == EmptyVal;
  if (!IsEmptyWsqOp)
    return false;
  for (size_t K = 0; K != H.Ops.size(); ++K) {
    if (K == I)
      continue;
    const OpRecord &Other = H.Ops[K];
    // Overlap = neither strictly precedes the other.
    if (!Other.precedes(Op) && !Op.precedes(Other))
      return true;
  }
  return false;
}

} // namespace

/// The DFS over sequentializations shared by both criteria; candidate
/// generation is the only difference between them. Every container is a
/// member that keeps its capacity across checks.
struct Checker::Search {
  CheckerLimits Limits;
  std::unique_ptr<SpecState> Initial;
  /// States[D] is the spec state after D linearized ops; States[D + 1]
  /// is overwritten from States[D] for each candidate tried at depth D.
  std::vector<std::unique_ptr<SpecState>> States;
  std::vector<const OpRecord *> Ops; ///< The history being checked.
  bool RealTime = false;
  /// SC: per-thread op indices in invocation order; [0, NumThreads) used.
  std::vector<std::vector<size_t>> PerThread;
  size_t NumThreads = 0;
  /// Candidate stack: depth D's candidates sit above depth D-1's.
  std::vector<size_t> Candidates;
  FlatKeySet Failed;
  size_t Visited = 0;

  bool run(bool RT) {
    RealTime = RT;
    if (Ops.size() > Limits.MaxOps)
      reportFatalError(
          strformat("history of %zu operations exceeds checker limit %zu",
                    Ops.size(), Limits.MaxOps));
    for (const OpRecord *Op : Ops)
      if (!Op->Completed)
        reportFatalError("checker requires a complete history");
    if (!RealTime) {
      // Per-thread program order, by invocation time.
      for (size_t T = 0; T != NumThreads; ++T)
        PerThread[T].clear();
      NumThreads = 0;
      for (size_t I = 0; I != Ops.size(); ++I) {
        uint32_t T = Ops[I]->Thread;
        if (T >= NumThreads) {
          NumThreads = T + 1;
          if (PerThread.size() < NumThreads)
            PerThread.resize(NumThreads);
        }
        PerThread[T].push_back(I);
      }
      for (size_t T = 0; T != NumThreads; ++T)
        std::sort(PerThread[T].begin(), PerThread[T].end(),
                  [&](size_t A, size_t B) {
                    return Ops[A]->InvokeSeq < Ops[B]->InvokeSeq;
                  });
    }
    if (Ops.empty())
      return true;
    Failed.clear();
    Visited = 0;
    Candidates.clear();
    if (States.empty())
      States.push_back(Initial->clone());
    else
      States[0]->assign(*Initial);
    return dfs(0, 0);
  }

  bool dfs(uint64_t Mask, size_t Depth) {
    uint64_t Full = Ops.size() == 64 ? ~0ULL : ((1ULL << Ops.size()) - 1);
    if (Mask == Full)
      return true;
    if (++Visited > Limits.MaxVisitedStates)
      return true; // Budget exhausted: conservatively accept.
    const SpecState &State = *States[Depth];
    uint64_t Key = hashCombine(Mask, State.hash());
    if (Failed.contains(Key))
      return false;

    if (States.size() == Depth + 1)
      States.push_back(State.clone());
    SpecState &Next = *States[Depth + 1];
    size_t Begin = Candidates.size();
    collectCandidates(Mask);
    size_t End = Candidates.size();
    for (size_t C = Begin; C != End; ++C) {
      size_t I = Candidates[C];
      Next.assign(*States[Depth]);
      if (!Next.apply(*Ops[I]))
        continue;
      if (dfs(Mask | (1ULL << I), Depth + 1)) {
        Candidates.resize(Begin);
        return true;
      }
    }
    Candidates.resize(Begin);
    Failed.insert(Key);
    return false;
  }

  void collectCandidates(uint64_t Mask) {
    if (RealTime) {
      // Linearizability: an op is schedulable when no other pending op
      // responded strictly before it was invoked. With MinResp the
      // minimum response among pending ops, that is InvokeSeq <= MinResp
      // (equality is an overlap, not a precedence).
      uint64_t MinResp = ~0ULL;
      for (size_t I = 0; I != Ops.size(); ++I)
        if (!(Mask & (1ULL << I)))
          MinResp = std::min(MinResp, Ops[I]->RespondSeq);
      for (size_t I = 0; I != Ops.size(); ++I)
        if (!(Mask & (1ULL << I)) && Ops[I]->InvokeSeq <= MinResp)
          Candidates.push_back(I);
      return;
    }
    // Operation-level SC: the next pending op of each thread.
    for (size_t T = 0; T != NumThreads; ++T) {
      for (size_t I : PerThread[T]) {
        if (Mask & (1ULL << I))
          continue;
        Candidates.push_back(I);
        break;
      }
    }
  }
};

Checker::Checker(const SpecFactory &Factory, CheckerLimits Limits)
    : S(std::make_unique<Search>()) {
  S->Limits = Limits;
  S->Initial = Factory();
}

Checker::~Checker() = default;
Checker::Checker(Checker &&) = default;
Checker &Checker::operator=(Checker &&) = default;

bool Checker::linearizable(const History &H, bool RelaxConcurrentEmpty) {
  S->Ops.clear();
  for (size_t I = 0; I != H.Ops.size(); ++I)
    if (!RelaxConcurrentEmpty || !isAbortedEmptyOp(H, I))
      S->Ops.push_back(&H.Ops[I]);
  return S->run(/*RealTime=*/true);
}

bool Checker::sequentiallyConsistent(const History &H) {
  S->Ops.clear();
  for (const OpRecord &Op : H.Ops)
    S->Ops.push_back(&Op);
  return S->run(/*RealTime=*/false);
}

bool spec::isLinearizable(const History &H, const SpecFactory &Factory,
                          const CheckerLimits &Limits) {
  return Checker(Factory, Limits).linearizable(H);
}

bool spec::isSequentiallyConsistent(const History &H,
                                    const SpecFactory &Factory,
                                    const CheckerLimits &Limits) {
  return Checker(Factory, Limits).sequentiallyConsistent(H);
}

History spec::relaxConcurrentEmptyOps(const History &H) {
  History Out;
  for (size_t I = 0; I != H.Ops.size(); ++I)
    if (!isAbortedEmptyOp(H, I))
      Out.Ops.push_back(H.Ops[I]); // Non-overlapping EMPTY: must be
                                   // justified by an empty queue.
  return Out;
}

std::string spec::checkNoGarbageTasks(const History &H) {
  std::unordered_set<vm::Word> Produced;
  for (const OpRecord &Op : H.Ops)
    if (Op.Func == "put" || Op.Func == "enqueue")
      if (!Op.Args.empty())
        Produced.insert(Op.Args[0]);
  for (const OpRecord &Op : H.Ops) {
    if (Op.Func != "take" && Op.Func != "steal" && Op.Func != "dequeue")
      continue;
    if (!Op.Completed || Op.Ret == EmptyVal)
      continue;
    if (!Produced.count(Op.Ret))
      return strformat("garbage task %lld returned by %s on thread %u",
                       static_cast<long long>(Op.Ret), Op.Func.c_str(),
                       Op.Thread);
  }
  return std::string();
}
