//===- ExecGoldenTest.cpp - Golden pins of the execution core -------------===//
//
// Pins what the interpreter produces, seed for seed, so a change to the
// step loop (scheduler views, frame layout, dispatch) cannot move a
// single execution unnoticed. Each cell runs a fixed seed range through
// vm::ExecContext::run with the synthesis hot-path configuration
// (CollectRepairs on, the per-model default flush probability, trace
// recording on) and pins three numbers:
//
//   * total interpreter steps,
//   * total buffered stores committed to memory (flushes),
//   * an FNV-1a hash over every execution's outcome, history (method,
//     arguments, return, thread, invoke/response stamps, completion),
//     repair predicates and scheduler trace.
//
// The cells cover the exec_throughput subjects under SC/TSO/PSO, the
// spawn/join litmus shapes (threads created mid-execution; JOIN flushes
// another thread's buffer), and adversarial fault plans (flush storms
// draining a random thread's buffer, forced switches, bounded buffers),
// which are the paths where one action changes a thread other than the
// one the scheduler picked.
//
//===----------------------------------------------------------------------===//

#include "driver/ClientDsl.h"
#include "frontend/Compiler.h"
#include "fuzz/LitmusCorpus.h"
#include "programs/Benchmark.h"
#include "vm/ExecContext.h"
#include "vm/FaultPlan.h"
#include "vm/Prepared.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

using namespace dfence;
using vm::MemModel;

namespace {

constexpr unsigned SeedsPerCell = 200;

/// FNV-1a, fed one 64-bit word (little-endian bytes) at a time.
struct Fnv1a {
  uint64_t H = 0xcbf29ce484222325ULL;
  void word(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  void str(const std::string &S) {
    word(S.size());
    for (unsigned char C : S) {
      H ^= C;
      H *= 0x100000001b3ULL;
    }
  }
};

struct CellPin {
  uint64_t Steps = 0;
  uint64_t Flushes = 0;
  uint64_t Hash = 0;
};

void hashResult(const vm::ExecResult &R, Fnv1a &F) {
  F.word(static_cast<uint64_t>(R.Out));
  F.word(R.Hist.Ops.size());
  for (const vm::OpRecord &Op : R.Hist.Ops) {
    F.str(Op.Func);
    F.word(Op.Args.size());
    for (vm::Word A : Op.Args)
      F.word(A);
    F.word(Op.Ret);
    F.word(Op.Thread);
    F.word(Op.InvokeSeq);
    F.word(Op.RespondSeq);
    F.word(Op.Completed);
  }
  F.word(R.Repairs.size());
  for (const vm::OrderingPredicate &P : R.Repairs) {
    F.word(P.Before);
    F.word(P.After);
    F.word(P.AfterIsLoad);
  }
  F.word(R.Trace.size());
  for (const sched::Action &A : R.Trace) {
    F.word(A.Kind);
    F.word(A.Tid);
    F.word(A.HasVar);
    F.word(A.Var);
  }
}

/// Runs seeds [0, SeedsPerCell) of one cell on a single reused context
/// (the round engine's shape) and folds them into a pin.
CellPin runCell(const vm::PreparedProgram &Prog, MemModel Model,
                const vm::FaultPlan *Faults) {
  vm::ExecContext Ctx;
  vm::ExecResult R;
  CellPin Pin;
  Fnv1a F;
  for (unsigned I = 0; I != SeedsPerCell; ++I) {
    vm::ExecConfig EC;
    EC.Model = Model;
    EC.Seed = 0x901d0000ULL + I;
    EC.MaxSteps = 30000;
    EC.CollectRepairs = true;
    EC.FlushProb = vm::defaultFlushProb(Model);
    EC.RecordTrace = true;
    EC.Faults = Faults;
    Ctx.run(Prog, I % Prog.numClients(), EC, R);
    Pin.Steps += R.Steps;
    Pin.Flushes += R.Stats.Flushes;
    hashResult(R, F);
  }
  Pin.Hash = F.H;
  return Pin;
}

void expectPin(const std::string &Cell, const CellPin &Got,
               const CellPin &Want) {
  EXPECT_EQ(Got.Steps, Want.Steps) << Cell << " steps";
  EXPECT_EQ(Got.Flushes, Want.Flushes) << Cell << " flushes";
  EXPECT_EQ(Got.Hash, Want.Hash)
      << Cell << " hash 0x" << std::hex << Got.Hash;
}

const MemModel Models[] = {MemModel::SC, MemModel::TSO, MemModel::PSO};

struct SuitePins {
  const char *Bench;
  CellPin PerModel[3]; ///< SC, TSO, PSO.
};

// Computed on the interpreter before incremental scheduler views.
const SuitePins SuiteGolden[] = {
    {"Chase-Lev WSQ",
     {{37327, 0, 0xeaa75f7d9ee3a1e2ULL},
      {35424, 1748, 0x2260c28664005e23ULL},
      {37565, 1882, 0xff50ec249f18cb3dULL}}},
    {"Cilk THE WSQ",
     {{49068, 0, 0x2b5b179031264fa9ULL},
      {47687, 3619, 0xa60bcda75cee5819ULL},
      {52910, 3976, 0x8beca959211c4c40ULL}}},
    {"MSN Queue",
     {{36046, 0, 0x12e18c63d67c4b79ULL},
      {36489, 1000, 0x3a431b92dd09fb13ULL},
      {35834, 998, 0xc9d8755714d372ecULL}}},
    {"FIFO iWSQ",
     {{35176, 0, 0x1c9bb6afc67514cdULL},
      {31441, 1320, 0x24fc8fcf22ca046fULL},
      {34082, 1215, 0xbc12903caa0f4cfcULL}}},
};

struct LitmusPins {
  const char *Shape;
  CellPin PerModel[3]; ///< SC, TSO, PSO.
};

const LitmusPins LitmusGolden[] = {
    {"sb",
     {{8635, 0, 0xfff26c63ae53e36eULL},
      {9106, 800, 0x9519e19fe697df47ULL},
      {9559, 800, 0xf270c079804d5ec0ULL}}},
    {"mp",
     {{8695, 0, 0x9456ced1f7b2bf54ULL},
      {9404, 800, 0xcd145746d0b47b15ULL},
      {9715, 800, 0x34af7100df11da1fULL}}},
    {"iriw",
     {{13757, 0, 0xe1cf4cd4b6fb40a8ULL},
      {14836, 1200, 0xd637e7976e989751ULL},
      {15145, 1200, 0xce8dd097deecdc34ULL}}},
};

struct FaultPins {
  const char *Bench;
  CellPin PerModel[2]; ///< TSO, PSO.
};

const FaultPins StormGolden[] = {
    {"Chase-Lev WSQ",
     {{38874, 1900, 0xb7dc6847cb6bd02bULL},
      {38567, 1905, 0x49a3f28215f8a6ddULL}}},
    {"MSN Queue",
     {{36575, 1000, 0x1f484b453f560b89ULL},
      {36363, 1000, 0x48b372102b5f3cefULL}}},
};

const FaultPins MixedFaultGolden[] = {
    {"Chase-Lev WSQ",
     {{37081, 1867, 0xc3bf02a4a3233f0cULL},
      {36937, 1864, 0x8ce05cd70b48d6aULL}}},
    {"MSN Queue",
     {{36209, 1000, 0x7647ac5e9abb67edULL},
      {35858, 1000, 0xd53551f9dc29e48aULL}}},
};

ir::Module compileOrDie(const std::string &Name, const std::string &Src) {
  frontend::CompileResult CR = frontend::compileMiniC(Src);
  EXPECT_TRUE(CR.Ok) << Name << ": " << CR.Error;
  return std::move(CR.Module);
}

const fuzz::LitmusShape *findShape(const std::string &Name) {
  for (const fuzz::LitmusShape &S : fuzz::litmusCorpus())
    if (S.Name == Name)
      return &S;
  return nullptr;
}

/// A flush storm at most scheduling points: every storm drains one
/// randomly chosen non-empty buffer — usually not the thread the
/// scheduler would have picked.
vm::FaultPlan stormPlan() {
  vm::FaultPlan FP;
  FP.FlushStormProb = 0.05;
  return FP;
}

/// Storms plus forced switches before every store and a two-entry
/// buffer cap: forced switches read every thread's view, and the cap
/// flushes inside a store step.
vm::FaultPlan mixedPlan(const ir::Module &M) {
  vm::FaultPlan FP = stormPlan();
  FP.BufferCapacity = 2;
  for (const ir::Function &Fn : M.Funcs)
    for (const ir::Instr &I : Fn.Body)
      if (I.Op == ir::Opcode::Store)
        FP.SwitchBeforeLabels.push_back(I.Id);
  return FP;
}

} // namespace

TEST(ExecGolden, SuiteSubjectsAllModels) {
  for (const SuitePins &S : SuiteGolden) {
    const programs::Benchmark &B = programs::benchmarkByName(S.Bench);
    ir::Module M = compileOrDie(S.Bench, B.Source);
    vm::PreparedProgram Prog(M, B.Clients);
    for (size_t MI = 0; MI != 3; ++MI)
      expectPin(std::string(S.Bench) + "/" + vm::memModelName(Models[MI]),
                runCell(Prog, Models[MI], nullptr), S.PerModel[MI]);
  }
}

TEST(ExecGolden, SpawnJoinLitmusShapes) {
  for (const LitmusPins &L : LitmusGolden) {
    const fuzz::LitmusShape *S = findShape(L.Shape);
    ASSERT_NE(S, nullptr) << L.Shape;
    ir::Module M = compileOrDie(L.Shape, S->Source);
    std::string Err;
    std::optional<vm::Client> C = driver::parseClientDsl(S->ClientDsl, Err);
    ASSERT_TRUE(C) << L.Shape << ": " << Err;
    vm::PreparedProgram Prog(M, *C);
    for (size_t MI = 0; MI != 3; ++MI)
      expectPin(std::string(L.Shape) + "/" + vm::memModelName(Models[MI]),
                runCell(Prog, Models[MI], nullptr), L.PerModel[MI]);
  }
}

TEST(ExecGolden, FlushStorms) {
  vm::FaultPlan FP = stormPlan();
  for (const FaultPins &S : StormGolden) {
    const programs::Benchmark &B = programs::benchmarkByName(S.Bench);
    ir::Module M = compileOrDie(S.Bench, B.Source);
    vm::PreparedProgram Prog(M, B.Clients);
    for (size_t MI = 0; MI != 2; ++MI)
      expectPin(std::string(S.Bench) + "/storm/" +
                    vm::memModelName(Models[MI + 1]),
                runCell(Prog, Models[MI + 1], &FP), S.PerModel[MI]);
  }
}

TEST(ExecGolden, StormsForcedSwitchesAndBufferCap) {
  for (const FaultPins &S : MixedFaultGolden) {
    const programs::Benchmark &B = programs::benchmarkByName(S.Bench);
    ir::Module M = compileOrDie(S.Bench, B.Source);
    vm::FaultPlan FP = mixedPlan(M);
    ASSERT_FALSE(FP.SwitchBeforeLabels.empty());
    vm::PreparedProgram Prog(M, B.Clients);
    for (size_t MI = 0; MI != 2; ++MI)
      expectPin(std::string(S.Bench) + "/mixed/" +
                    vm::memModelName(Models[MI + 1]),
                runCell(Prog, Models[MI + 1], &FP), S.PerModel[MI]);
  }
}
