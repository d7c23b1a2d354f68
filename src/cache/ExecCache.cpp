//===- ExecCache.cpp - Cross-round execution result cache -----------------===//

#include "cache/ExecCache.h"

#include "ir/Printer.h"
#include "obs/Metrics.h"

using namespace dfence;
using namespace dfence::cache;

uint64_t cache::fingerprintModule(const ir::Module &M) {
  // The printer renders every observable detail of the program —
  // functions, instruction operands, labels, synthesized fences — so its
  // text is a faithful canonical form and FNV-1a over it a sound
  // fingerprint. Cost is linear in module size and paid once per
  // enforcement, not per execution.
  std::string Text = ir::printModule(M);
  uint64_t H = 1469598103934665603ULL;
  for (char C : Text)
    H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ULL;
  return hashMix64(H);
}

static uint64_t fingerprintString(uint64_t H, const std::string &S) {
  uint64_t F = 1469598103934665603ULL;
  for (char C : S)
    F = (F ^ static_cast<unsigned char>(C)) * 1099511628211ULL;
  return hashCombine(H, F);
}

uint64_t cache::fingerprintClient(const vm::Client &C) {
  uint64_t H = 0x13198a2e03707344ULL;
  H = fingerprintString(H, C.InitFunc);
  H = hashCombine(H, C.Threads.size());
  for (const vm::ThreadScript &T : C.Threads) {
    H = hashCombine(H, T.Calls.size());
    for (const vm::MethodCall &MC : T.Calls) {
      H = fingerprintString(H, MC.Func);
      H = hashCombine(H, MC.Args.size());
      for (const vm::Arg &A : MC.Args) {
        H = hashCombine(H, static_cast<uint64_t>(A.Ref));
        // The literal only matters when it is not shadowed by a backref.
        if (A.Ref < 0)
          H = hashCombine(H, static_cast<uint64_t>(A.Literal));
      }
    }
  }
  return hashMix64(H);
}

uint64_t ExecKey::hash() const {
  uint64_t H = ModuleFp;
  H = hashCombine(H, ClientFp);
  H = hashCombine(H, Seed);
  H = hashCombine(H, FlushProbBits);
  H = hashCombine(H, MaxSteps);
  H = hashCombine(H, PolicyFp);
  H = hashCombine(H, (static_cast<uint64_t>(Model) << 3) |
                         (static_cast<uint64_t>(CollectRepairs) << 2) |
                         (static_cast<uint64_t>(InterOpPredicates) << 1) |
                         static_cast<uint64_t>(PartialOrderReduction));
  return H;
}

uint64_t cache::routeFingerprint(uint64_t ModuleFp,
                                 const std::vector<uint64_t> &ClientFps) {
  uint64_t Fp = ModuleFp;
  for (uint64_t C : ClientFps)
    Fp = hashCombine(Fp, C);
  return Fp;
}

ExecCache::ExecCache(size_t TotalEntries, size_t NumShards,
                     obs::Counter *ShardWaits)
    : Shards(NumShards ? NumShards : 1), ShardWaits(ShardWaits) {
  size_t N = Shards.size();
  for (size_t I = 0; I != N; ++I)
    Shards[I].MaxEntries = TotalEntries / N + (I < TotalEntries % N);
}

ExecCache::Lease ExecCache::lease(uint64_t RouteFp) {
  Lease L;
  L.Index = shardIndex(RouteFp);
  L.S = &Shards[L.Index];
  L.Lock = std::unique_lock<std::mutex>(L.S->Mu, std::try_to_lock);
  if (!L.Lock.owns_lock()) {
    if (ShardWaits)
      ShardWaits->add(1);
    L.Lock.lock();
  }
  return L;
}

size_t ExecCache::size() const {
  size_t N = 0;
  for (const Shard &S : Shards)
    N += S.size();
  return N;
}

size_t ExecCache::capacity() const {
  size_t N = 0;
  for (const Shard &S : Shards)
    N += S.capacity();
  return N;
}

ExecCache::Stats ExecCache::stats() const {
  Stats T;
  for (const Shard &S : Shards) {
    Stats P = S.stats();
    T.Lookups += P.Lookups;
    T.Hits += P.Hits;
    T.Inserts += P.Inserts;
    T.RejectedFull += P.RejectedFull;
  }
  return T;
}
