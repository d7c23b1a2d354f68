//===- SpecTest.cpp - Sequential specs and history checkers ---------------===//

#include "spec/Checkers.h"
#include "spec/Specs.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>

using namespace dfence;
using namespace dfence::spec;
using vm::EmptyVal;
using vm::History;
using vm::OpRecord;
using vm::Word;

namespace {

/// History construction helper: sequential timestamps are assigned from
/// the (InvokeSeq, RespondSeq) pairs given explicitly.
OpRecord op(const char *Func, std::vector<Word> Args, Word Ret,
            uint32_t Thread, uint64_t Inv, uint64_t Res) {
  OpRecord O;
  O.Func = Func;
  O.Args = std::move(Args);
  O.Ret = Ret;
  O.Thread = Thread;
  O.InvokeSeq = Inv;
  O.RespondSeq = Res;
  O.Completed = true;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Specs
//===----------------------------------------------------------------------===//

TEST(SpecsTest, WsqDequeSemantics) {
  WsqSpec S(DequeEnd::Tail, DequeEnd::Head);
  EXPECT_TRUE(S.apply(op("put", {1}, 0, 0, 1, 2)));
  EXPECT_TRUE(S.apply(op("put", {2}, 0, 0, 3, 4)));
  EXPECT_TRUE(S.apply(op("steal", {}, 1, 1, 5, 6))); // head
  EXPECT_TRUE(S.apply(op("take", {}, 2, 0, 7, 8)));  // tail
  EXPECT_TRUE(S.apply(op("take", {}, EmptyVal, 0, 9, 10)));
}

TEST(SpecsTest, WsqRejectsWrongValue) {
  WsqSpec S(DequeEnd::Tail, DequeEnd::Head);
  EXPECT_TRUE(S.apply(op("put", {1}, 0, 0, 1, 2)));
  EXPECT_FALSE(S.apply(op("take", {}, 9, 0, 3, 4)));
}

TEST(SpecsTest, WsqRejectsEmptyOnNonEmpty) {
  WsqSpec S(DequeEnd::Tail, DequeEnd::Head);
  EXPECT_TRUE(S.apply(op("put", {1}, 0, 0, 1, 2)));
  EXPECT_FALSE(S.apply(op("steal", {}, EmptyVal, 1, 3, 4)));
}

TEST(SpecsTest, WsqStackVariant) {
  WsqSpec S(DequeEnd::Tail, DequeEnd::Tail); // LIFO WSQ shape
  EXPECT_TRUE(S.apply(op("put", {1}, 0, 0, 1, 2)));
  EXPECT_TRUE(S.apply(op("put", {2}, 0, 0, 3, 4)));
  EXPECT_TRUE(S.apply(op("steal", {}, 2, 1, 5, 6))) << "steal pops top";
}

TEST(SpecsTest, QueueFifoOrder) {
  QueueSpec S;
  EXPECT_TRUE(S.apply(op("enqueue", {1}, 0, 0, 1, 2)));
  EXPECT_TRUE(S.apply(op("enqueue", {2}, 0, 0, 3, 4)));
  EXPECT_FALSE(S.clone()->apply(op("dequeue", {}, 2, 1, 5, 6)));
  EXPECT_TRUE(S.apply(op("dequeue", {}, 1, 1, 5, 6)));
  EXPECT_TRUE(S.apply(op("dequeue", {}, 2, 1, 7, 8)));
  EXPECT_TRUE(S.apply(op("dequeue", {}, EmptyVal, 1, 9, 10)));
}

TEST(SpecsTest, SetSemantics) {
  SetSpec S;
  EXPECT_TRUE(S.apply(op("add", {5}, 1, 0, 1, 2)));
  EXPECT_FALSE(S.clone()->apply(op("add", {5}, 1, 0, 3, 4)))
      << "re-adding must return 0";
  EXPECT_TRUE(S.apply(op("add", {5}, 0, 0, 3, 4)));
  EXPECT_TRUE(S.apply(op("contains", {5}, 1, 1, 5, 6)));
  EXPECT_TRUE(S.apply(op("remove", {5}, 1, 1, 7, 8)));
  EXPECT_TRUE(S.apply(op("contains", {5}, 0, 0, 9, 10)));
  EXPECT_TRUE(S.apply(op("remove", {5}, 0, 0, 11, 12)));
}

TEST(SpecsTest, AllocatorFreshnessAndFree) {
  AllocatorSpec S;
  EXPECT_TRUE(S.apply(op("alloc", {}, 100, 0, 1, 2)));
  EXPECT_FALSE(S.clone()->apply(op("alloc", {}, 100, 1, 3, 4)))
      << "double allocation of a live pointer is invalid";
  EXPECT_TRUE(S.apply(op("alloc", {}, 200, 1, 3, 4)));
  EXPECT_TRUE(S.apply(op("release", {100}, 0, 0, 5, 6)));
  EXPECT_TRUE(S.apply(op("alloc", {}, 100, 0, 7, 8)))
      << "freed pointers may be handed out again";
  EXPECT_FALSE(S.clone()->apply(op("release", {999}, 0, 0, 9, 10)))
      << "freeing a non-live pointer is invalid";
  EXPECT_FALSE(S.clone()->apply(op("alloc", {}, 0, 0, 9, 10)))
      << "allocator must not return null";
}

TEST(SpecsTest, HashDistinguishesStates) {
  WsqSpec A(DequeEnd::Tail, DequeEnd::Head);
  WsqSpec B(DequeEnd::Tail, DequeEnd::Head);
  EXPECT_EQ(A.hash(), B.hash());
  A.apply(op("put", {1}, 0, 0, 1, 2));
  EXPECT_NE(A.hash(), B.hash());
}

//===----------------------------------------------------------------------===//
// Linearizability / SC checkers
//===----------------------------------------------------------------------===//

TEST(CheckerTest, SequentialHistoryIsLinearizable) {
  History H;
  H.Ops = {op("put", {1}, 0, 0, 1, 2), op("take", {}, 1, 0, 3, 4)};
  EXPECT_TRUE(isLinearizable(H, WsqSpec::factory()));
  EXPECT_TRUE(isSequentiallyConsistent(H, WsqSpec::factory()));
}

TEST(CheckerTest, EmptyHistoryOk) {
  History H;
  EXPECT_TRUE(isLinearizable(H, WsqSpec::factory()));
  EXPECT_TRUE(isSequentiallyConsistent(H, WsqSpec::factory()));
}

TEST(CheckerTest, OverlappingOpsMayReorder) {
  // take overlaps put: the EMPTY return is fine (take linearizes first).
  History H;
  H.Ops = {op("put", {1}, 0, 0, 1, 4),
           op("take", {}, EmptyVal, 1, 2, 3)};
  EXPECT_TRUE(isLinearizable(H, WsqSpec::factory()));
}

TEST(CheckerTest, RealTimeOrderEnforcedByLinearizability) {
  // The paper's Fig. 2c: put(1) completes strictly before steal, yet the
  // steal misses the element. SC accepts (per-thread reordering), but
  // linearizability must reject.
  History H;
  H.Ops = {op("put", {1}, 0, 0, 1, 2),
           op("steal", {}, EmptyVal, 1, 3, 4)};
  EXPECT_FALSE(isLinearizable(H, WsqSpec::factory()));
  EXPECT_TRUE(isSequentiallyConsistent(H, WsqSpec::factory()));
}

TEST(CheckerTest, ScStillRequiresPerThreadOrder) {
  // Same thread: put(1) then steal() = EMPTY is wrong even under SC.
  History H;
  H.Ops = {op("put", {1}, 0, 0, 1, 2),
           op("steal", {}, EmptyVal, 0, 3, 4)};
  EXPECT_FALSE(isSequentiallyConsistent(H, WsqSpec::factory()));
}

TEST(CheckerTest, DuplicateExtractionRejected) {
  // Fig. 2a: the same element returned twice.
  History H;
  H.Ops = {op("put", {1}, 0, 0, 1, 2), op("take", {}, 1, 0, 3, 6),
           op("steal", {}, 1, 1, 4, 5)};
  EXPECT_FALSE(isLinearizable(H, WsqSpec::factory()));
  EXPECT_FALSE(isSequentiallyConsistent(H, WsqSpec::factory()));
}

TEST(CheckerTest, GarbageValueRejected) {
  // Fig. 2b: a value that was never put (uninitialized read).
  History H;
  H.Ops = {op("put", {1}, 0, 0, 1, 2), op("steal", {}, 0, 1, 3, 4)};
  EXPECT_FALSE(isSequentiallyConsistent(H, WsqSpec::factory()));
}

TEST(CheckerTest, ConcurrentQueueInterleavings) {
  // Two producers, values may interleave either way.
  History H;
  H.Ops = {op("enqueue", {1}, 0, 0, 1, 4), op("enqueue", {2}, 0, 1, 2, 3),
           op("dequeue", {}, 2, 0, 5, 6), op("dequeue", {}, 1, 1, 7, 8)};
  EXPECT_TRUE(isLinearizable(H, QueueSpec::factory()));
}

TEST(CheckerTest, QueueFifoViolationCaught) {
  // enqueue(1) strictly before enqueue(2), dequeues in wrong order:
  // linearizability rejects. SC accepts — the enqueues are in different
  // threads, so nothing orders them under SC.
  History H;
  H.Ops = {op("enqueue", {1}, 0, 0, 1, 2), op("enqueue", {2}, 0, 1, 3, 4),
           op("dequeue", {}, 2, 0, 5, 6), op("dequeue", {}, 1, 1, 7, 8)};
  EXPECT_FALSE(isLinearizable(H, QueueSpec::factory()));
  EXPECT_TRUE(isSequentiallyConsistent(H, QueueSpec::factory()));
}

TEST(CheckerTest, QueueFifoViolationCaughtUnderScSameThread) {
  // Same shape but the enqueues share a thread: now SC rejects too.
  History H;
  H.Ops = {op("enqueue", {1}, 0, 0, 1, 2), op("enqueue", {2}, 0, 0, 3, 4),
           op("dequeue", {}, 2, 1, 5, 6), op("dequeue", {}, 1, 1, 7, 8)};
  EXPECT_FALSE(isLinearizable(H, QueueSpec::factory()));
  EXPECT_FALSE(isSequentiallyConsistent(H, QueueSpec::factory()));
}

TEST(CheckerTest, ScAllowsCrossThreadReorderingQueue) {
  // Same shape, but under SC the two enqueues are in different threads
  // with no program-order constraint, so dequeue order 2,1 is fine.
  History H;
  H.Ops = {op("enqueue", {1}, 0, 0, 1, 2), op("enqueue", {2}, 0, 1, 3, 4),
           op("dequeue", {}, 2, 2, 5, 6), op("dequeue", {}, 1, 3, 7, 8)};
  EXPECT_TRUE(isSequentiallyConsistent(H, QueueSpec::factory()));
  EXPECT_FALSE(isLinearizable(H, QueueSpec::factory()));
}

TEST(CheckerTest, NoGarbageTasks) {
  History Good;
  Good.Ops = {op("put", {5}, 0, 0, 1, 2), op("steal", {}, 5, 1, 3, 4),
              op("take", {}, 5, 0, 5, 6), // duplicate: allowed
              op("steal", {}, EmptyVal, 1, 7, 8)};
  EXPECT_EQ(checkNoGarbageTasks(Good), "");

  History Bad;
  Bad.Ops = {op("put", {5}, 0, 0, 1, 2), op("steal", {}, 0, 1, 3, 4)};
  EXPECT_NE(checkNoGarbageTasks(Bad), "");
}

TEST(CheckerTest, LargerHistoriesTerminate) {
  // 16 ops across 4 threads; stress the memoized search.
  History H;
  uint64_t T = 1;
  for (int I = 0; I < 8; ++I) {
    uint64_t Inv = T++;
    uint64_t Res = T++;
    H.Ops.push_back(
        op("enqueue", {static_cast<Word>(I + 1)}, 0, 0, Inv, Res));
  }
  for (int I = 0; I < 8; ++I) {
    uint64_t Inv = T++;
    uint64_t Res = T++;
    H.Ops.push_back(
        op("dequeue", {}, static_cast<Word>(I + 1), 1, Inv, Res));
  }
  EXPECT_TRUE(isLinearizable(H, QueueSpec::factory()));
}

//===----------------------------------------------------------------------===//
// Differential: checkers vs brute force over every permutation
//===----------------------------------------------------------------------===//

namespace {

enum class Family { Queue, Wsq, Set, Stack, Allocator };

/// An independent sequential model of each family (node-based containers,
/// no shared code with src/spec), so the differential covers the specs'
/// flat storage as well as the search.
struct RefModel {
  Family F;
  std::deque<Word> Items; // Queue / WSQ / stack contents.
  std::set<Word> Keys;    // Set members / live allocations.

  bool apply(const OpRecord &Op) {
    auto Arg = [&] { return Op.Args.empty() ? Word(0) : Op.Args[0]; };
    auto Take = [&](bool Back) {
      if (Items.empty())
        return Op.Ret == EmptyVal;
      Word V = Back ? Items.back() : Items.front();
      if (Op.Ret != V)
        return false;
      if (Back)
        Items.pop_back();
      else
        Items.pop_front();
      return true;
    };
    switch (F) {
    case Family::Queue:
      if (Op.Func == "enqueue") {
        Items.push_back(Arg());
        return true;
      }
      return Take(/*Back=*/false);
    case Family::Wsq: // take at the tail, steal at the head.
      if (Op.Func == "put") {
        Items.push_back(Arg());
        return true;
      }
      return Take(/*Back=*/Op.Func == "take");
    case Family::Stack:
      if (Op.Func == "push") {
        Items.push_back(Arg());
        return true;
      }
      return Take(/*Back=*/true);
    case Family::Set:
      if (Op.Func == "add")
        return Op.Ret == Word(Keys.insert(Arg()).second);
      if (Op.Func == "remove")
        return Op.Ret == Word(Keys.erase(Arg()) != 0);
      return Op.Ret == Word(Keys.count(Arg()) != 0);
    case Family::Allocator:
      if (Op.Func == "malloc")
        return Op.Ret != 0 && Keys.insert(Op.Ret).second;
      return Keys.erase(Arg()) != 0;
    }
    return false;
  }
};

/// Tries every permutation of \p H's ops; accepts when one respects the
/// order constraint (real time, or per-thread order) and the model
/// accepts it.
bool bruteForce(const History &H, Family F, bool RealTime) {
  std::vector<size_t> Perm(H.Ops.size());
  for (size_t I = 0; I != Perm.size(); ++I)
    Perm[I] = I;
  do {
    bool OrderOk = true;
    for (size_t I = 0; I < Perm.size() && OrderOk; ++I)
      for (size_t J = I + 1; J < Perm.size() && OrderOk; ++J) {
        const OpRecord &A = H.Ops[Perm[I]];
        const OpRecord &B = H.Ops[Perm[J]];
        OrderOk = RealTime ? !B.precedes(A)
                           : !(B.Thread == A.Thread &&
                               B.InvokeSeq < A.InvokeSeq);
      }
    if (!OrderOk)
      continue;
    RefModel M{F, {}, {}};
    bool Ok = true;
    for (size_t I : Perm)
      if (!M.apply(H.Ops[I])) {
        Ok = false;
        break;
      }
    if (Ok)
      return true;
  } while (std::next_permutation(Perm.begin(), Perm.end()));
  return false;
}

SpecFactory factoryOf(Family F) {
  switch (F) {
  case Family::Queue: return QueueSpec::factory();
  case Family::Wsq: return WsqSpec::factory();
  case Family::Set: return SetSpec::factory();
  case Family::Stack: return StackSpec::factory();
  case Family::Allocator: return AllocatorSpec::factory();
  }
  return nullptr;
}

/// A random complete history of 2..6 ops over 1..3 threads with real
/// overlaps: each step either invokes an op on an idle thread or
/// responds to a pending one, stamping both from one clock. Returns are
/// plausible (values produced so far, EMPTY, 0/1) or occasionally wrong,
/// so both verdicts occur.
History randomHistory(Family F, Rng &R) {
  unsigned NumThreads = 1 + static_cast<unsigned>(R.nextBelow(3));
  unsigned NumOps = 2 + static_cast<unsigned>(R.nextBelow(5));
  History H;
  std::vector<long> Pending(NumThreads, -1);
  std::vector<Word> Produced;
  Word NextVal = 1;
  uint64_t Clock = 0;
  unsigned Invoked = 0, Open = 0;
  auto Pick = [&](std::initializer_list<Word> Extra) {
    std::vector<Word> C(Extra);
    C.insert(C.end(), Produced.begin(), Produced.end());
    return C[R.nextBelow(C.size())];
  };
  while (Invoked < NumOps || Open > 0) {
    uint32_t T = static_cast<uint32_t>(R.nextBelow(NumThreads));
    if (Pending[T] >= 0) {
      if (Invoked < NumOps && R.nextBool(0.4))
        continue; // Let another thread invoke first: overlap.
      H.Ops[Pending[T]].RespondSeq = ++Clock;
      Pending[T] = -1;
      --Open;
      continue;
    }
    if (Invoked == NumOps)
      continue;
    OpRecord Op;
    Op.Thread = T;
    Op.InvokeSeq = ++Clock;
    Op.Completed = true;
    bool Produce = R.nextBool(0.5);
    switch (F) {
    case Family::Queue:
    case Family::Wsq:
    case Family::Stack: {
      const char *Put = F == Family::Queue  ? "enqueue"
                        : F == Family::Wsq ? "put"
                                           : "push";
      if (Produce) {
        Op.Func = Put;
        Op.Args = {NextVal};
        Produced.push_back(NextVal++);
      } else {
        Op.Func = F == Family::Queue ? "dequeue"
                  : F == Family::Wsq ? (R.nextBool(0.5) ? "take" : "steal")
                                     : "pop";
        Op.Ret = R.nextBool(0.1) ? Word(77) : Pick({EmptyVal});
      }
      break;
    }
    case Family::Set: {
      static const char *const Names[] = {"add", "remove", "contains"};
      Op.Func = Names[R.nextBelow(3)];
      Op.Args = {1 + R.nextBelow(3)};
      Op.Ret = R.nextBelow(2);
      break;
    }
    case Family::Allocator:
      if (Produce || Produced.empty()) {
        Op.Func = "malloc";
        Op.Args = {2};
        Op.Ret = 100 + R.nextBelow(3);
        Produced.push_back(Op.Ret);
      } else {
        Op.Func = "free";
        Op.Args = {Pick({})};
      }
      break;
    }
    Pending[T] = static_cast<long>(H.Ops.size());
    H.Ops.push_back(std::move(Op));
    ++Invoked;
    ++Open;
  }
  return H;
}

const char *familyName(Family F) {
  switch (F) {
  case Family::Queue: return "queue";
  case Family::Wsq: return "wsq";
  case Family::Set: return "set";
  case Family::Stack: return "stack";
  case Family::Allocator: return "allocator";
  }
  return "?";
}

} // namespace

TEST(CheckerDifferentialTest, AgreesWithBruteForceOnEveryFamily) {
  const Family Families[] = {Family::Queue, Family::Wsq, Family::Set,
                             Family::Stack, Family::Allocator};
  for (Family F : Families) {
    // One long-lived checker per family: a reused checker must give the
    // verdict a fresh one gives, whatever it checked before.
    Checker Reused(factoryOf(F));
    Rng R(0xd1ff0000ULL + static_cast<uint64_t>(F));
    unsigned LinYes = 0, LinNo = 0, ScYes = 0, ScNo = 0;
    for (int Case = 0; Case != 300; ++Case) {
      History H = randomHistory(F, R);
      bool Lin = bruteForce(H, F, /*RealTime=*/true);
      bool Sc = bruteForce(H, F, /*RealTime=*/false);
      SCOPED_TRACE(std::string(familyName(F)) + " case " +
                   std::to_string(Case) + ":\n" + H.str());
      EXPECT_EQ(isLinearizable(H, factoryOf(F)), Lin);
      EXPECT_EQ(isSequentiallyConsistent(H, factoryOf(F)), Sc);
      EXPECT_EQ(Reused.linearizable(H), Lin);
      EXPECT_EQ(Reused.sequentiallyConsistent(H), Sc);
      if (Lin) {
        EXPECT_TRUE(Sc) << "linearizable implies sequentially consistent";
      }
      // The in-place EMPTY relaxation equals checking the relaxed copy.
      if (F == Family::Wsq) {
        EXPECT_EQ(Reused.linearizable(H, /*RelaxConcurrentEmpty=*/true),
                  bruteForce(relaxConcurrentEmptyOps(H), F, true));
      }
      (Lin ? LinYes : LinNo)++;
      (Sc ? ScYes : ScNo)++;
    }
    // Non-vacuity: both verdicts occur for both criteria.
    EXPECT_GT(LinYes, 0u) << familyName(F);
    EXPECT_GT(LinNo, 0u) << familyName(F);
    EXPECT_GT(ScYes, 0u) << familyName(F);
    EXPECT_GT(ScNo, 0u) << familyName(F);
  }
}

TEST(CheckerDifferentialTest, ExhaustedSearchBudgetStillAccepts) {
  // dequeue(2) after enqueue(1) completes: no sequentialization exists.
  History H;
  H.Ops.push_back(op("enqueue", {1}, 0, 0, 1, 2));
  H.Ops.push_back(op("dequeue", {}, 2, 1, 3, 4));
  EXPECT_FALSE(isLinearizable(H, QueueSpec::factory()));
  EXPECT_FALSE(isSequentiallyConsistent(H, QueueSpec::factory()));
  // A one-state budget runs out before the search can fail; the checker
  // then conservatively accepts, fresh or reused alike.
  CheckerLimits Tiny;
  Tiny.MaxVisitedStates = 1;
  EXPECT_TRUE(isLinearizable(H, QueueSpec::factory(), Tiny));
  EXPECT_TRUE(isSequentiallyConsistent(H, QueueSpec::factory(), Tiny));
  Checker C(QueueSpec::factory(), Tiny);
  EXPECT_TRUE(C.linearizable(H));
  EXPECT_TRUE(C.sequentiallyConsistent(H));
  EXPECT_TRUE(C.linearizable(H));
}
