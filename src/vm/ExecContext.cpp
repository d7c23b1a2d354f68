//===- ExecContext.cpp - Long-lived, reusable execution engine ------------===//
//
// The per-run driver ported from the old one-shot Engine (Interp.cpp),
// restructured so every piece of state is reset in place: frames live in a
// flat stack indexing a shared per-thread register arena (each frame
// caching its function's instruction and prepared dispatch streams),
// threads are pooled and revived, repairs collect into a flat vector
// deduped once at the end, and after each action only the scheduler
// views of the threads that action changed are refreshed (see
// mainLoopT). The semantics — including RNG stream consumption, action
// validation and every diagnostic — are byte-for-byte those of the old
// engine, which is what keeps recorded replay traces reproducing.
//
// The interpreter loops are written once as templates over a memory-model
// policy and instantiated once per model. Each policy carries its model as
// a constexpr, so bufOf<MP> resolves every store-buffer call to one
// concrete policy class (ScBuffer/TsoBuffer/PsoBuffer — fully inlined,
// zero model branches) and every model comparison constant-folds; opcode
// dispatch goes through a computed-goto jump table indexed by the
// prepared program's pre-translated OpIdx stream (a plain switch on
// compilers without the extension). The init thread always runs under SC
// regardless of Cfg.Model, so it steps through the SC instantiation.
//
//===----------------------------------------------------------------------===//

#include "vm/ExecContext.h"

#include "obs/Profiler.h"
#include "support/Diagnostics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace dfence;
using namespace dfence::vm;
using namespace dfence::ir;

// Threaded dispatch needs GNU labels-as-values; the switch fallback below
// is semantically identical (same OpIdx stream, same jump-table order).
#if defined(__GNUC__) || defined(__clang__)
#define DFENCE_COMPUTED_GOTO 1
#else
#define DFENCE_COMPUTED_GOTO 0
#endif

namespace {

/// Interpreter policy: the model is a compile-time constant and every
/// buffer operation binds to the model's policy class.
template <MemModel M> struct ModelPolicy {
  static constexpr MemModel Model = M;
};

using ScPolicy = ModelPolicy<MemModel::SC>;
using TsoPolicy = ModelPolicy<MemModel::TSO>;
using PsoPolicy = ModelPolicy<MemModel::PSO>;

/// Per-opcode "next step is a scheduling point" table, indexed by the
/// prepared OpIdx stream: Instr::isSharedAccess() plus the opcodes the
/// main loop treats as visible (fences, call/ret boundaries, thread
/// operations, allocation). Precomputed so the per-step scheduler-view
/// update never loads the fat Instr record.
constexpr bool SharedStep[] = {
    /*Const=*/false,      /*Move=*/false,  /*BinOp=*/false,
    /*Not=*/false,        /*Load=*/true,   /*Store=*/true,
    /*Cas=*/true,         /*Fence=*/true,  /*GlobalAddr=*/false,
    /*Alloc=*/true,       /*Free=*/true,   /*Br=*/false,
    /*CondBr=*/false,     /*Call=*/true,   /*Ret=*/true,
    /*Self=*/false,       /*Spawn=*/true,  /*Join=*/true,
    /*Lock=*/true,        /*Unlock=*/true, /*Assert=*/false,
    /*Nop=*/false};
static_assert(sizeof(SharedStep) ==
                  static_cast<size_t>(Opcode::Nop) + 1,
              "shared-step table must cover every opcode");
static_assert(SharedStep[static_cast<size_t>(Opcode::Load)] &&
                  SharedStep[static_cast<size_t>(Opcode::Unlock)] &&
                  !SharedStep[static_cast<size_t>(Opcode::Self)] &&
                  !SharedStep[static_cast<size_t>(Opcode::CondBr)],
              "shared-step table out of sync with Opcode order");

} // namespace

/// A VM thread: client-script threads and Spawn-created threads alike.
/// Pooled by the context; reset() revives a retired object with all its
/// vector capacities intact.
struct ExecContext::Thread {
  /// One stack frame. Registers live in the thread's shared arena at
  /// [RegBase, RegBase + frameSize(F)) — a frame push/pop is an arena
  /// resize, not a vector allocation. The function's instruction body and
  /// its prepared dispatch/jump streams are cached at push, so a step
  /// indexes them directly instead of going through the module and the
  /// prepared program (both outlive every execution and stay unmodified
  /// during one).
  struct Frame {
    FuncId F = 0;
    size_t Ip = 0;
    const Instr *Body = nullptr;
    const uint8_t *OpIdx = nullptr;
    const uint32_t *Jump0 = nullptr;
    const uint32_t *Jump1 = nullptr;
    size_t RegBase = 0;
    Reg RetDst = 0;          ///< Caller register receiving the return value.
    bool IsTopLevel = false; ///< Frame of a recorded client method call.
    size_t OpIndex = 0;      ///< History slot when IsTopLevel.
  };

  uint32_t Tid = 0;
  std::vector<Frame> Frames;
  std::vector<Word> RegArena;
  /// The thread's write buffers, one per model; only the one matching the
  /// model the thread steps under ever holds entries.
  ScBuffer Sc;
  TsoBuffer Tso;
  PsoBuffer Pso;
  const ThreadScript *Script = nullptr;   ///< Null for spawned threads.
  const PreparedThread *Prep = nullptr;   ///< Resolved callees of Script.
  size_t ScriptPos = 0;
  std::vector<Word> CallResults; ///< Return values of completed calls.
  bool DoneFlag = false;

  void reset(uint32_t T, const ThreadScript *S, const PreparedThread *P) {
    Tid = T;
    Frames.clear();
    RegArena.clear();
    Tso.reset();
    Pso.reset();
    Script = S;
    Prep = P;
    ScriptPos = 0;
    CallResults.clear();
    DoneFlag = false;
  }

  bool hasWork() const {
    if (!Frames.empty())
      return true;
    return Script && ScriptPos < Script->Calls.size();
  }

  /// Pushes a zeroed frame for function \p F of \p P; returns it.
  Frame &pushFrame(const PreparedProgram &P, FuncId F) {
    const PreparedFunc &PF = P.func(F);
    Frame Fr;
    Fr.F = F;
    Fr.Body = P.module().Funcs[F].Body.data();
    Fr.OpIdx = PF.OpIdx.data();
    Fr.Jump0 = PF.Jump0.data();
    Fr.Jump1 = PF.Jump1.data();
    Fr.RegBase = RegArena.size();
    RegArena.resize(Fr.RegBase + P.frameSize(F), 0);
    Frames.push_back(Fr);
    return Frames.back();
  }

  void popFrame() {
    RegArena.resize(Frames.back().RegBase);
    Frames.pop_back();
  }

  Word reg(const Frame &F, Reg Rg) const {
    return RegArena[F.RegBase + Rg];
  }
  Word &reg(const Frame &F, Reg Rg) { return RegArena[F.RegBase + Rg]; }
};

template <class MP> decltype(auto) ExecContext::bufOf(Thread &T) {
  if constexpr (MP::Model == MemModel::SC)
    return (T.Sc);
  else if constexpr (MP::Model == MemModel::TSO)
    return (T.Tso);
  else
    return (T.Pso);
}

ExecContext::ExecContext() = default;
ExecContext::~ExecContext() = default;

void ExecContext::violate(Outcome O, std::string Msg) {
  if (Halted)
    return;
  Halted = true;
  Result->Out = O;
  Result->Message = std::move(Msg);
}

ExecContext::Thread &ExecContext::acquireThread(uint32_t Tid) {
  if (LiveThreads == Threads.size())
    Threads.push_back(std::make_unique<Thread>());
  Thread &T = *Threads[LiveThreads++];
  T.reset(Tid, nullptr, nullptr);
  return T;
}

void ExecContext::layoutGlobals() {
  const Module &M = P->module();
  GlobalAddrs.reserve(M.Globals.size());
  for (const GlobalVar &G : M.Globals) {
    Word Addr = Mem.allocateGlobal(G.SizeWords);
    for (size_t I = 0, E = G.Init.size(); I != E && I < G.SizeWords; ++I)
      Mem.write(Addr + I, G.Init[I]);
    GlobalAddrs.push_back(Addr);
  }
}

void ExecContext::runInit() {
  // The init function runs to completion, alone, with SC semantics: a
  // dedicated SC-buffered (i.e. unbuffered) thread stepping until done.
  if (!InitThread)
    InitThread = std::make_unique<Thread>();
  Thread &Init = *InitThread;
  Init.reset(~0u, nullptr, nullptr);
  Init.pushFrame(*P, PC->Init);
  size_t InitSteps = 0;
  while (!Init.Frames.empty() && !Halted) {
    if (++InitSteps > Cfg.MaxSteps) {
      violate(Outcome::StepLimit, "init function exceeded step limit");
      return;
    }
    if ((InitSteps & 1023) == 0 && deadlineExpired())
      return;
    stepThreadT<ScPolicy>(Init);
  }
}

void ExecContext::createClientThreads() {
  const Client &C = *PC->C;
  // Every top-level call appends one OpRecord; the prepared client knows
  // the total up front, so the hot loop never reallocates the history.
  Result->Hist.Ops.reserve(PC->TotalCalls);
  if (Cfg.RecordTrace)
    Result->Trace.reserve(std::min<size_t>(Cfg.MaxSteps, 1 << 14));
  for (size_t I = 0, E = C.Threads.size(); I != E; ++I) {
    Thread &T = acquireThread(static_cast<uint32_t>(I));
    T.Script = &C.Threads[I];
    T.Prep = &PC->Threads[I];
  }
}

void ExecContext::startNextCall(Thread &T) {
  assert(T.Script && T.ScriptPos < T.Script->Calls.size());
  const MethodCall &MC = T.Script->Calls[T.ScriptPos];
  FuncId F = T.Prep->Calls[T.ScriptPos];
  ++T.ScriptPos;

  // Arity and back-references were validated at prepare time.
  ArgScratch.clear();
  for (const Arg &A : MC.Args) {
    if (A.Ref < 0) {
      ArgScratch.push_back(A.Literal);
    } else {
      assert(static_cast<size_t>(A.Ref) < T.CallResults.size());
      ArgScratch.push_back(T.CallResults[A.Ref]);
    }
  }

  OpRecord Op;
  Op.Func = MC.Func;
  Op.Args = ArgScratch;
  Op.Thread = T.Tid;
  Op.InvokeSeq = ++Seq;
  size_t OpIndex = Result->Hist.Ops.size();
  Result->Hist.Ops.push_back(std::move(Op));

  Thread::Frame &Fr = T.pushFrame(*P, F);
  for (size_t I = 0; I != ArgScratch.size(); ++I)
    T.reg(Fr, static_cast<Reg>(I)) = ArgScratch[I];
  Fr.IsTopLevel = true;
  Fr.OpIndex = OpIndex;
  if (T.RegArena.size() > CStats.RegArenaHighWater)
    CStats.RegArenaHighWater = T.RegArena.size();
}

bool ExecContext::checkAddr(Word Addr, const char *What, InstrId Label) {
  if (Mem.isValid(Addr))
    return true;
  const char *Why = Addr == 0            ? "null dereference"
                    : Mem.isFreed(Addr)  ? "use after free"
                                         : "out-of-bounds access";
  violate(Outcome::MemSafety,
          strformat("%s at address %llu (%%%u): %s", What,
                    static_cast<unsigned long long>(Addr), Label, Why));
  return false;
}

template <class MP>
void ExecContext::collectRepairsT(Thread &T, InstrId K, Word Addr,
                                  bool IsLoad) {
  if (!Cfg.CollectRepairs || MP::Model == MemModel::SC)
    return;
  // Under TSO only store→load reordering is possible, so only later loads
  // yield ordering predicates; PSO additionally relaxes store→store.
  if (MP::Model == MemModel::TSO && !IsLoad)
    return;
  LabelScratch.clear();
  bufOf<MP>(T).pendingLabelsExcept(Addr, LabelScratch);
  for (InstrId L : LabelScratch)
    Repairs.push_back(OrderingPredicate{L, K, IsLoad});
}

bool ExecContext::deadlineExpired() {
  if (Cfg.WallClockMs == 0 || Halted)
    return false;
  if (std::chrono::steady_clock::now() < Deadline)
    return false;
  violate(Outcome::Timeout,
          strformat("execution exceeded wall-clock budget of %u ms",
                    Cfg.WallClockMs));
  return true;
}

bool ExecContext::allocFaultFires() {
  const FaultPlan *FP = Cfg.Faults;
  if (!FP)
    return false;
  ++AllocAttempts;
  if (FP->AllocFailAfter > 0 && AllocAttempts > FP->AllocFailAfter)
    return true;
  return FP->AllocFailProb > 0.0 && FaultR.nextBool(FP->AllocFailProb);
}

template <class MP> bool ExecContext::maybeFlushStormT() {
  const FaultPlan *FP = Cfg.Faults;
  if (!FP || FP->FlushStormProb <= 0.0 ||
      !FaultR.nextBool(FP->FlushStormProb))
    return false;
  std::vector<uint32_t> Buffered;
  for (const sched::ThreadView &V : Views)
    if (V.PendingStores > 0)
      Buffered.push_back(V.Tid);
  if (Buffered.empty())
    return false;
  uint32_t Tid = Buffered[FaultR.nextBelow(Buffered.size())];
  Thread &T = *Threads[Tid];
  // Drain the whole buffer; each flush is a recorded action so a replay
  // of the trace reproduces the storm without needing the fault plan.
  while (!bufOf<MP>(T).empty() && !Halted && Steps < Cfg.MaxSteps) {
    if (Cfg.RecordTrace)
      Result->Trace.push_back(sched::Action::flush(Tid));
    flushOneT<MP>(T, false, 0);
    ++Steps;
  }
  refreshViewT<MP>(T);
  NoProgress = 0;
  return true;
}

sched::Action ExecContext::applyForcedSwitch(sched::Action A) {
  const FaultPlan *FP = Cfg.Faults;
  if (FP && !FP->SwitchBeforeLabels.empty() &&
      A.Kind == sched::Action::StepThread && A.Tid < LiveThreads) {
    Thread &T = *Threads[A.Tid];
    DeferredAt.resize(LiveThreads, InvalidInstrId);
    if (!T.Frames.empty()) {
      const Thread::Frame &F = T.Frames.back();
      InstrId Next = F.Body[F.Ip].Id;
      bool Marked = std::find(FP->SwitchBeforeLabels.begin(),
                              FP->SwitchBeforeLabels.end(),
                              Next) != FP->SwitchBeforeLabels.end();
      if (Marked && DeferredAt[A.Tid] != Next) {
        std::vector<uint32_t> Other;
        for (const sched::ThreadView &V : Views)
          if (V.Tid != A.Tid && (V.Runnable || V.PendingStores > 0))
            Other.push_back(V.Tid);
        if (!Other.empty()) {
          DeferredAt[A.Tid] = Next; // Defer this arrival exactly once.
          uint32_t Alt = Other[FaultR.nextBelow(Other.size())];
          return Views[Alt].Runnable ? sched::Action::step(Alt)
                                     : sched::Action::flush(Alt);
        }
      }
    }
  }
  // The chosen thread really runs: clear its deferral marker so its next
  // arrival at a marked label is deferred again.
  if (A.Kind == sched::Action::StepThread && A.Tid < DeferredAt.size())
    DeferredAt[A.Tid] = InvalidInstrId;
  return A;
}

template <class MP>
void ExecContext::flushOneT(Thread &T, bool HasVar, Word Var) {
  decltype(auto) B = bufOf<MP>(T);
  assert(!B.empty() && "flush of empty buffer");
  BufferEntry E = (HasVar && MP::Model == MemModel::PSO)
                      ? B.popOldestFor(Var)
                      : B.popOldest();
  // The FLUSH rule is where delayed stores become visible; the paper
  // checks safety of the target here (a store to memory freed in the
  // meantime is a violation).
  ++Result->Stats.Flushes;
  if (!checkAddr(E.Addr, "flush of buffered store", E.Label))
    return;
  Mem.write(E.Addr, E.Val);
}

template <class MP>
void ExecContext::drainForAtomicT(Thread &T, Word Addr) {
  decltype(auto) B = bufOf<MP>(T);
  if (MP::Model == MemModel::PSO && !B.emptyFor(Addr)) {
    BufferEntry E = B.popOldestFor(Addr);
    ++Result->Stats.Flushes;
    if (!checkAddr(E.Addr, "flush of buffered store", E.Label))
      return;
    Mem.write(E.Addr, E.Val);
    return;
  }
  flushOneT<MP>(T, false, 0);
}

template <class MP> bool ExecContext::stepThreadT(Thread &T) {
  if (T.Frames.empty()) {
    if (T.Script && T.ScriptPos < T.Script->Calls.size()) {
      startNextCall(T);
      return true;
    }
    T.DoneFlag = true;
    return false;
  }

  Thread::Frame &F = T.Frames.back();
  assert(F.Ip < P->module().Funcs[F.F].Body.size() &&
         "instruction pointer out of range");
  const Instr &I = F.Body[F.Ip];
  decltype(auto) B = bufOf<MP>(T);

  // Flight recorder: per-opcode step counts come straight off the
  // prepared dispatch stream — one array increment. Null shard = no work
  // at all.
  if (PShard)
    ++PShard->OpSteps[F.OpIdx[F.Ip]];

  // Dispatch off the prepared OpIdx stream (one dense byte per Body
  // position) instead of the fat Instr record. The jump-table order must
  // match ir::Opcode exactly; each case ends in `goto Advance` (the
  // shared ++Ip) or returns with the Ip it set. DF_CASE expands to a
  // label or a case depending on the dispatch flavor.
#if DFENCE_COMPUTED_GOTO
  static const void *const Table[] = {
      &&Op_Const, &&Op_Move,  &&Op_BinOp,  &&Op_Not,   &&Op_Load,
      &&Op_Store, &&Op_Cas,   &&Op_Fence,  &&Op_GlobalAddr, &&Op_Alloc,
      &&Op_Free,  &&Op_Br,    &&Op_CondBr, &&Op_Call,  &&Op_Ret,
      &&Op_Self,  &&Op_Spawn, &&Op_Join,   &&Op_Lock,  &&Op_Unlock,
      &&Op_Assert, &&Op_Nop};
  static_assert(sizeof(Table) / sizeof(Table[0]) ==
                    static_cast<size_t>(Opcode::Nop) + 1,
                "jump table must cover every opcode");
  goto *Table[F.OpIdx[F.Ip]];
#define DF_CASE(Name) Op_##Name:
#else
  switch (static_cast<Opcode>(F.OpIdx[F.Ip])) {
#define DF_CASE(Name) case Opcode::Name:
#endif

  DF_CASE(Const) {
    T.reg(F, I.Dst) = I.Imm;
    goto Advance;
  }
  DF_CASE(Move) {
    T.reg(F, I.Dst) = T.reg(F, I.Ops[0]);
    goto Advance;
  }
  DF_CASE(BinOp) {
    T.reg(F, I.Dst) =
        evalBinOp(I.BK, T.reg(F, I.Ops[0]), T.reg(F, I.Ops[1]));
    goto Advance;
  }
  DF_CASE(Not) {
    T.reg(F, I.Dst) = T.reg(F, I.Ops[0]) == 0;
    goto Advance;
  }
  DF_CASE(GlobalAddr) {
    assert(I.GV < GlobalAddrs.size());
    T.reg(F, I.Dst) = GlobalAddrs[I.GV];
    goto Advance;
  }
  DF_CASE(Self) {
    T.reg(F, I.Dst) = T.Tid;
    goto Advance;
  }
  DF_CASE(Nop) { goto Advance; }

  DF_CASE(Load) {
    Word Addr = T.reg(F, I.Ops[0]);
    collectRepairsT<MP>(T, I.Id, Addr, /*IsLoad=*/true);
    if (!checkAddr(Addr, "load", I.Id))
      return true;
    Word V;
    if (B.forward(Addr, V)) { // LOAD-B else LOAD-G
      ++Result->Stats.StoreForwards;
    } else {
      V = Mem.read(Addr);
    }
    T.reg(F, I.Dst) = V;
    goto Advance;
  }

  DF_CASE(Store) {
    Word Addr = T.reg(F, I.Ops[0]);
    Word Val = T.reg(F, I.Ops[1]);
    collectRepairsT<MP>(T, I.Id, Addr, /*IsLoad=*/false);
    // MP is the *thread's* model, not Cfg.Model: the init thread always
    // steps through the SC instantiation.
    if (MP::Model == MemModel::SC) {
      if (!checkAddr(Addr, "store", I.Id))
        return true;
      Mem.write(Addr, Val);
    } else {
      // Bounded-buffer fault: at capacity, the oldest entry commits
      // before the new store can be buffered (as real hardware would).
      if (Cfg.Faults && Cfg.Faults->BufferCapacity > 0) {
        while (B.size() >= Cfg.Faults->BufferCapacity && !Halted)
          flushOneT<MP>(T, false, 0);
        if (Halted)
          return true;
      }
      // STORE rule: append to the buffer; safety is checked at flush.
      B.push(Addr, Val, I.Id);
      ++Result->Stats.BufferedStores;
      if (B.size() > Result->Stats.BufHighWater)
        Result->Stats.BufHighWater = static_cast<uint32_t>(B.size());
    }
    goto Advance;
  }

  DF_CASE(Cas) {
    Word Addr = T.reg(F, I.Ops[0]);
    // CAS premise: the buffer of the accessed variable must be empty
    // (TSO: the whole per-thread buffer). Make progress by draining.
    if (!B.emptyFor(Addr)) {
      drainForAtomicT<MP>(T, Addr);
      return true;
    }
    collectRepairsT<MP>(T, I.Id, Addr, /*IsLoad=*/false);
    if (!checkAddr(Addr, "cas", I.Id))
      return true;
    Word Expected = T.reg(F, I.Ops[1]);
    Word Desired = T.reg(F, I.Ops[2]);
    if (Mem.read(Addr) == Expected) {
      Mem.write(Addr, Desired);
      T.reg(F, I.Dst) = 1;
    } else {
      T.reg(F, I.Dst) = 0;
    }
    goto Advance;
  }

  DF_CASE(Fence) {
    // FENCE rule: blocks until all of the thread's buffers are empty.
    if (!B.empty()) {
      flushOneT<MP>(T, false, 0);
      return true;
    }
    goto Advance;
  }

  DF_CASE(Lock) {
    // Lock acquire is a CAS loop surrounded by full fences (paper §5.2).
    if (!B.empty()) {
      flushOneT<MP>(T, false, 0);
      return true;
    }
    Word Addr = T.reg(F, I.Ops[0]);
    if (!checkAddr(Addr, "lock", I.Id))
      return true;
    if (Mem.read(Addr) != 0)
      return false; // Spin; no progress this step.
    Mem.write(Addr, 1);
    goto Advance;
  }

  DF_CASE(Unlock) {
    if (!B.empty()) {
      flushOneT<MP>(T, false, 0);
      return true;
    }
    Word Addr = T.reg(F, I.Ops[0]);
    if (!checkAddr(Addr, "unlock", I.Id))
      return true;
    Mem.write(Addr, 0);
    goto Advance;
  }

  DF_CASE(Alloc) {
    Word Size = T.reg(F, I.Ops[0]);
    if (Size > (1u << 24)) {
      violate(Outcome::MemSafety,
              strformat("unreasonable allocation of %llu words (%%%u)",
                        static_cast<unsigned long long>(Size), I.Id));
      return true;
    }
    // Simulated OOM: the allocation yields null and the memory-safety
    // checker flags whichever access dereferences it.
    T.reg(F, I.Dst) = allocFaultFires() ? 0 : Mem.allocate(Size);
    goto Advance;
  }

  DF_CASE(Free) {
    Word Addr = T.reg(F, I.Ops[0]);
    // Note: free does NOT flush write buffers (paper §5.2); pending
    // stores into the freed block will fault when they flush.
    if (!Mem.freeBlock(Addr)) {
      violate(Outcome::MemSafety,
              strformat("invalid free of address %llu (%%%u)",
                        static_cast<unsigned long long>(Addr), I.Id));
      return true;
    }
    goto Advance;
  }

  DF_CASE(Br) {
    F.Ip = F.Jump0[F.Ip];
    return true;
  }
  DF_CASE(CondBr) {
    F.Ip = T.reg(F, I.Ops[0]) != 0 ? F.Jump0[F.Ip] : F.Jump1[F.Ip];
    return true;
  }

  DF_CASE(Call) {
    ArgScratch.clear();
    for (size_t A = 0; A != I.Ops.size(); ++A)
      ArgScratch.push_back(T.reg(F, I.Ops[A]));
    Reg Dst = I.Dst;
    FuncId Callee = I.Callee;
    ++F.Ip; // Return continues after the call.
    // pushFrame grows the arena and the frame stack; F is dead past here.
    Thread::Frame &NewF = T.pushFrame(*P, Callee);
    for (size_t A = 0; A != ArgScratch.size(); ++A)
      T.reg(NewF, static_cast<Reg>(A)) = ArgScratch[A];
    NewF.RetDst = Dst;
    if (T.RegArena.size() > CStats.RegArenaHighWater)
      CStats.RegArenaHighWater = T.RegArena.size();
    return true;
  }

  DF_CASE(Ret) {
    Word RetVal = I.Ops.empty() ? 0 : T.reg(F, I.Ops[0]);
    bool WasTopLevel = F.IsTopLevel;
    // Inter-operation predicates: a store still buffered when its method
    // returns can take effect after the operation's response — the
    // linearizability violations of the paper's Fig. 2c. Record
    // [pending-store ≺ return] so enforcement can place a fence at the
    // end of the method (the paper's "(m, line:-)" inter-op fences).
    if (WasTopLevel && Cfg.CollectRepairs && Cfg.InterOpPredicates &&
        !B.empty() && MP::Model != MemModel::SC) {
      LabelScratch.clear();
      B.pendingLabelsExcept(static_cast<Word>(-1), LabelScratch);
      for (InstrId L : LabelScratch)
        Repairs.push_back(
            OrderingPredicate{L, I.Id, /*AfterIsLoad=*/false});
    }
    size_t OpIndex = F.OpIndex;
    Reg RetDst = F.RetDst;
    T.popFrame();
    if (!T.Frames.empty()) {
      T.reg(T.Frames.back(), RetDst) = RetVal;
    } else if (WasTopLevel) {
      OpRecord &Op = Result->Hist.Ops[OpIndex];
      Op.Ret = RetVal;
      Op.RespondSeq = ++Seq;
      Op.Completed = true;
      T.CallResults.push_back(RetVal);
    }
    return true;
  }

  DF_CASE(Spawn) {
    if (T.Tid == ~0u)
      reportFatalError("spawn is not allowed in client init functions");
    ArgScratch.clear();
    for (size_t A = 0; A != I.Ops.size(); ++A)
      ArgScratch.push_back(T.reg(F, I.Ops[A]));
    uint32_t NewTid = static_cast<uint32_t>(LiveThreads);
    Thread &NewT = acquireThread(NewTid);
    Thread::Frame &NewF = NewT.pushFrame(*P, I.Callee);
    for (size_t A = 0; A != ArgScratch.size(); ++A)
      NewT.reg(NewF, static_cast<Reg>(A)) = ArgScratch[A];
    if (NewT.RegArena.size() > CStats.RegArenaHighWater)
      CStats.RegArenaHighWater = NewT.RegArena.size();
    T.reg(F, I.Dst) = NewTid;
    goto Advance;
  }

  DF_CASE(Join) {
    Word Target = T.reg(F, I.Ops[0]);
    if (Target >= LiveThreads) {
      violate(Outcome::AssertFail,
              strformat("join of invalid thread %llu (%%%u)",
                        static_cast<unsigned long long>(Target), I.Id));
      return true;
    }
    Thread &U = *Threads[Target];
    // JOIN rule: target finished and its buffers drained. The target is
    // a client thread, so it steps under the same policy as T.
    if (U.hasWork())
      return false;
    if (!bufOf<MP>(U).empty()) {
      flushOneT<MP>(U, false, 0);
      JoinFlushed = &U; // The main loop refreshes U's view too.
      return true;
    }
    goto Advance;
  }

  DF_CASE(Assert) {
    if (T.reg(F, I.Ops[0]) == 0) {
      violate(Outcome::AssertFail,
              strformat("assertion failed (%%%u, line %u)", I.Id,
                        I.SrcLine));
      return true;
    }
    goto Advance;
  }

#if !DFENCE_COMPUTED_GOTO
  }
#endif
#undef DF_CASE

Advance:
  ++F.Ip;
  return true;
}

template <class MP> void ExecContext::refreshViewT(Thread &T) {
  sched::ThreadView &V = Views[T.Tid];
  bool WasActive = V.Runnable || V.PendingStores > 0;
  decltype(auto) B = bufOf<MP>(T);
  V.Runnable = T.hasWork();
  V.PendingStores = B.size();
  if (V.PendingStores > 0)
    B.nonEmptyVars(V.BufferedVars);
  else
    V.BufferedVars.clear();
  // A thread between calls is about to record an invoke: a scheduling
  // point. Otherwise the next opcode decides.
  V.NextIsShared =
      V.Runnable && (T.Frames.empty() ||
                     SharedStep[T.Frames.back().OpIdx[T.Frames.back().Ip]]);
  bool IsActive = V.Runnable || V.PendingStores > 0;
  if (IsActive && !WasActive)
    ++ActiveViews;
  else if (!IsActive && WasActive)
    --ActiveViews;
}

template <class MP> void ExecContext::addViewsT(size_t From) {
  Views.resize(LiveThreads);
  for (size_t TI = From; TI != LiveThreads; ++TI) {
    sched::ThreadView &V = Views[TI];
    V.Tid = static_cast<uint32_t>(TI);
    V.Runnable = false; // Not counted in ActiveViews yet.
    V.PendingStores = 0;
    refreshViewT<MP>(*Threads[TI]);
  }
}

template <class MP> void ExecContext::mainLoopT() {
  // Views[Tid] describes thread Tid. They are built once here and then
  // refreshed only for the threads an action can change: the acted
  // thread, the join target whose buffer a joiner flushed, a flush-storm
  // victim (refreshed inside maybeFlushStormT) and threads spawned by the
  // step. No other thread's state moves, so every view equals what a
  // full rebuild would give at each pick. Entries keep their
  // BufferedVars capacity across steps and executions.
  ActiveViews = 0;
  addViewsT<MP>(0);

  // Flight-recorder phase attribution. A null shard (the default) costs
  // exactly these pointer tests per iteration — zero clock reads; an
  // attached shard brackets the three sections of an iteration
  // (scheduler pick, step-or-flush, view refresh) with steady-clock
  // reads, each section starting where the previous one ended.
  using ProfClock = std::chrono::steady_clock;
  obs::ProfilerShard *PS = PShard;
  ProfClock::time_point PT0{}, PT1{}, PT2{};
  if (PS)
    PT0 = ProfClock::now();
  while (!Halted) {
    if (Steps >= Cfg.MaxSteps) {
      violate(Outcome::StepLimit, "execution exceeded step limit");
      return;
    }
    if ((Steps & 1023) == 0 && deadlineExpired())
      return;
    if (ActiveViews == 0)
      return; // Completed.

    if (maybeFlushStormT<MP>()) {
      if (PS) {
        PT1 = ProfClock::now();
        PS->addNs(obs::Phase::BufferFlush,
                  obs::ProfilerShard::elapsedNs(PT0, PT1));
        PT0 = PT1;
      }
      continue;
    }

    sched::Action A = Sched->pick(Views, R);
    if (Cfg.Faults)
      A = applyForcedSwitch(A);
    if (Cfg.RecordTrace)
      Result->Trace.push_back(A);
    if (PS) {
      PT1 = ProfClock::now();
      PS->addNs(obs::Phase::SchedPick,
                obs::ProfilerShard::elapsedNs(PT0, PT1));
    }
    // Validate the action for real (not assert-only): a stale or corrupt
    // replay trace must end the execution, not corrupt the engine.
    if (A.Tid >= LiveThreads) {
      violate(Outcome::Deadlock,
              strformat("scheduler picked invalid thread %u (stale "
                        "replay trace?)",
                        A.Tid));
      return;
    }
    Thread &T = *Threads[A.Tid];

    bool Progress;
    if (A.Kind == sched::Action::Flush) {
      decltype(auto) B = bufOf<MP>(T);
      if (B.empty()) {
        violate(Outcome::Deadlock,
                strformat("scheduler flushed empty buffer of thread %u "
                          "(stale replay trace?)",
                          A.Tid));
        return;
      }
      // A per-variable flush of a variable with nothing pending (possible
      // only with a foreign trace) degrades to a positional flush.
      if (A.HasVar && MP::Model == MemModel::PSO &&
          B.emptyFor(A.Var))
        A.HasVar = false;
      flushOneT<MP>(T, A.HasVar, A.Var);
      ++Result->Stats.SchedFlushes;
      Progress = true;
      if (PS) {
        PT2 = ProfClock::now();
        PS->addNs(obs::Phase::BufferFlush,
                  obs::ProfilerShard::elapsedNs(PT1, PT2));
      }
    } else {
      Progress = stepThreadT<MP>(T);
      ++Result->Stats.SchedSteps;
      if (PS) {
        PT2 = ProfClock::now();
        PS->addNs(obs::Phase::OpDispatch,
                  obs::ProfilerShard::elapsedNs(PT1, PT2));
      }
    }
    ++Steps;

    refreshViewT<MP>(T);
    if (JoinFlushed) {
      refreshViewT<MP>(*JoinFlushed);
      JoinFlushed = nullptr;
    }
    if (Views.size() != LiveThreads)
      addViewsT<MP>(Views.size()); // The step spawned threads.
    if (PS) {
      PT0 = ProfClock::now();
      PS->addNs(obs::Phase::ViewRefresh,
                obs::ProfilerShard::elapsedNs(PT2, PT0));
    }

    if (Progress) {
      NoProgress = 0;
    } else if (++NoProgress > 100000) {
      violate(Outcome::Deadlock, "no thread can make progress");
      return;
    }
  }
}

template <class MP> void ExecContext::finalDrainT() {
  using ProfClock = std::chrono::steady_clock;
  ProfClock::time_point PT0{};
  if (PShard)
    PT0 = ProfClock::now();
  for (size_t TI = 0; TI != LiveThreads; ++TI) {
    Thread &T = *Threads[TI];
    while (!bufOf<MP>(T).empty() && !Halted)
      flushOneT<MP>(T, false, 0);
  }
  if (PShard)
    PShard->addNs(obs::Phase::BufferFlush,
                  obs::ProfilerShard::elapsedNs(PT0, ProfClock::now()));
}

template <class MP> void ExecContext::runLoops() {
  Sched->reset();
  layoutGlobals();
  if (PC->HasInit && !Halted)
    runInit();
  createClientThreads();
  if (!Halted)
    mainLoopT<MP>();
  if (!Halted)
    finalDrainT<MP>();
}

void ExecContext::run(const PreparedProgram &Prog, size_t ClientIdx,
                      const ExecConfig &RunCfg, ExecResult &Out) {
  assert(ClientIdx < Prog.numClients());
  P = &Prog;
  PC = &Prog.client(ClientIdx);
  Cfg = RunCfg;
  Result = &Out;

  // Reset the result in place (a reused ExecResult keeps its capacities).
  Out.Out = Outcome::Completed;
  Out.Hist.Ops.clear();
  Out.Stats = ExecStats{};
  Out.Repairs.clear();
  Out.Message.clear();
  Out.Steps = 0;
  Out.Trace.clear();

  ++CStats.Executions;
  if (CStats.Executions > 1)
    ++CStats.Reuses;

  // Reset the context: same capacities, fresh state.
  Mem.reset();
  GlobalAddrs.clear();
  LiveThreads = 0;
  Repairs.clear();
  DeferredAt.clear();
  JoinFlushed = nullptr;
  Seq = 0;
  Steps = 0;
  NoProgress = 0;
  Halted = false;
  AllocAttempts = 0;
  R.reseed(Cfg.Seed);
  // Dedicated fault RNG stream: never consumed by scheduling, so
  // engine-level faults replay under a recorded trace.
  FaultR.reseed(Cfg.Seed ^ 0xfa017b0b5ULL);
  if (Cfg.WallClockMs > 0)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(Cfg.WallClockMs);
  if (Cfg.Sched) {
    Sched = Cfg.Sched;
  } else {
    sched::RandomFlushConfig SC;
    SC.FlushProb = Cfg.FlushProb;
    SC.PartialOrderReduction = Cfg.PartialOrderReduction;
    OwnedSched.configure(SC);
    Sched = &OwnedSched;
  }

  // Bind the interpreter once per execution: the model's instantiation.
  switch (Cfg.Model) {
  case MemModel::SC:  runLoops<ScPolicy>(); break;
  case MemModel::TSO: runLoops<TsoPolicy>(); break;
  case MemModel::PSO: runLoops<PsoPolicy>(); break;
  }
  Out.Steps = Steps;

  // Repairs were collected without dedup; sort-and-unique here produces
  // exactly the order the old std::set gave: sorted by (Before, After),
  // first-inserted kept among predicates equal under that key (stable
  // sort preserves insertion order; operator== ignores AfterIsLoad just
  // like operator<).
  std::stable_sort(Repairs.begin(), Repairs.end());
  Repairs.erase(std::unique(Repairs.begin(), Repairs.end()),
                Repairs.end());
  Out.Repairs.assign(Repairs.begin(), Repairs.end());

  if (LiveThreads > CStats.ThreadHighWater)
    CStats.ThreadHighWater = LiveThreads;
  P = nullptr;
  PC = nullptr;
  Result = nullptr;
  Sched = nullptr;
}
