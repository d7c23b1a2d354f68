//===- ExecCache.h - Cross-round execution result cache ---------*- C++ -*-===//
//
// After a repair round, synthesis keeps running rounds against a module
// that no longer changes; under the nominal-index seed derivation each
// (module, client, seed, flush, policy) configuration is a pure function
// of its key, so re-running one that was already run — the final
// confirming rounds of a converged run, or a whole re-verification of an
// unchanged program — is redundant work. The ExecCache maps a full
// execution key to a compact summary of everything the synthesis merge
// fold observes (outcome, stats, repair disjunction, verdict, harness
// accounting) — deliberately *not* the history or trace, which is why
// bundle capture disables the cache rather than storing them.
//
// Keys embed a fingerprint of the module *after* fence enforcement and of
// the client, plus every ExecConfig and retry-policy field that can alter
// the result. The full key is stored and compared on lookup, so a
// fingerprint collision degrades to a miss. Insertion stops at a fixed
// capacity (no eviction): hits or misses must depend only on the sequence
// of lookups/inserts, never on timing, to keep results reproducible.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_CACHE_EXECCACHE_H
#define DFENCE_CACHE_EXECCACHE_H

#include "vm/Client.h"
#include "vm/Interp.h"

#include <atomic>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace dfence::ir {
class Module;
} // namespace dfence::ir

namespace dfence::obs {
class Counter;
} // namespace dfence::obs

namespace dfence::cache {

/// Final 64-bit avalanche (the splitmix64/murmur3 finalizer).
inline uint64_t hashMix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

/// Folds \p V into running hash \p H (order-sensitive).
inline uint64_t hashCombine(uint64_t H, uint64_t V) {
  return hashMix64(H ^ (V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2)));
}

/// Fingerprint of a module's observable program text (hash of
/// ir::printModule, which renders every function, label and synthesized
/// fence). Recompute after enforcement mutates the module.
uint64_t fingerprintModule(const ir::Module &M);

/// Fingerprint of a client's semantics: init function and the per-thread
/// call scripts with literal/backref arguments. The advisory Name is
/// excluded — it never reaches the engine.
uint64_t fingerprintClient(const vm::Client &C);

/// Everything a supervised execution's result is a function of. Scheduler
/// must be the engine-internal RandomFlushScheduler (an external Sched,
/// wall-clock watchdogs, fault plans and trace capture make a slot
/// non-cacheable; the planner simply never builds keys for those).
struct ExecKey {
  uint64_t ModuleFp = 0;
  uint64_t ClientFp = 0;
  uint64_t Seed = 0;
  uint64_t FlushProbBits = 0; ///< Bit pattern of ExecConfig::FlushProb.
  uint64_t MaxSteps = 0;
  uint64_t PolicyFp = 0; ///< Retry policy (it remixes seed/steps).
  uint8_t Model = 0;
  bool CollectRepairs = false;
  bool InterOpPredicates = false;
  bool PartialOrderReduction = false;

  bool operator==(const ExecKey &) const = default;
  uint64_t hash() const;
};

struct ExecKeyHasher {
  size_t operator()(const ExecKey &K) const {
    return static_cast<size_t>(K.hash());
  }
};

/// Compact record of one supervised execution: exactly the fields the
/// synthesis merge fold reads, minus history and trace.
struct ExecSummary {
  vm::Outcome Out = vm::Outcome::Completed;
  vm::ExecStats Stats;
  vm::RepairDisjunction Repairs;
  std::string Message;
  size_t Steps = 0;
  /// The spec verdict for this execution (a pure function of the result,
  /// so memoizing it alongside is sound); empty = acceptable.
  std::string Violation;
  unsigned Attempts = 1;
  bool Discarded = false;
  bool TimedOut = false;
  uint64_t UsedSeed = 0;
  size_t UsedMaxSteps = 0;
};

/// The cross-round execution cache, split into independently locked
/// shards. A single-process run uses one shard; the serve daemon builds
/// one shard per dispatcher slot so concurrent requests on different
/// shards never contend.
///
/// Routing is keyed by the run's content fingerprint (routeFingerprint:
/// module + clients, before enforcement), not by which thread happens to
/// run it: a repeated request always lands on the shard holding its warm
/// entries, so hit patterns (and therefore the reported cache stats) are
/// scheduling-independent. Canonical result bytes never depend on hits
/// at all — a hit replays a recorded result bit-identical to a fresh
/// execution.
///
/// Exclusivity contract: synthesize() holds a Lease on its shard for the
/// whole call. Within the call the shard is frozen during a round
/// (workers only call the const lookup) and mutated only between rounds
/// on the merge thread, in execution-index order; the pool's batch
/// barrier orders the two phases. Two concurrent calls either use
/// different shards or serialize on the same one.
class ExecCache {
public:
  /// Lifetime accounting (the serve daemon keeps one warm cache across
  /// requests and reports these). Purely observational: the counters
  /// never feed back into lookup/insert decisions, so they cannot
  /// perturb the deterministic hit pattern.
  struct Stats {
    uint64_t Lookups = 0;
    uint64_t Hits = 0;
    uint64_t Inserts = 0;
    uint64_t RejectedFull = 0; ///< Inserts dropped at capacity.
  };

  /// One partition: a map with a fixed capacity (no eviction — hits or
  /// misses depend only on the sequence of lookups/inserts, never on
  /// timing) and the mutex a Lease holds.
  class Shard {
  public:
    /// Returns the summary stored for \p K, or null. Safe to call
    /// concurrently with other lookups (the map is not mutated; the stat
    /// counters are relaxed atomics).
    const ExecSummary *lookup(const ExecKey &K) const {
      Lookups.fetch_add(1, std::memory_order_relaxed);
      auto It = Map.find(K);
      if (It == Map.end())
        return nullptr;
      Hits.fetch_add(1, std::memory_order_relaxed);
      return &It->second;
    }

    /// Stores \p S under \p K. Returns false (and stores nothing) when
    /// the key is already present or the shard is at capacity.
    /// Merge-thread only; never call while a round is in flight.
    bool insert(const ExecKey &K, ExecSummary S) {
      if (Map.size() >= MaxEntries) {
        RejectedFull.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (!Map.try_emplace(K, std::move(S)).second)
        return false;
      Inserts.fetch_add(1, std::memory_order_relaxed);
      return true;
    }

    size_t size() const { return Map.size(); }
    size_t capacity() const { return MaxEntries; }

    /// Snapshot of the lifetime counters; safe to call concurrently with
    /// lookups (values are individually consistent, not a global cut).
    Stats stats() const {
      Stats S;
      S.Lookups = Lookups.load(std::memory_order_relaxed);
      S.Hits = Hits.load(std::memory_order_relaxed);
      S.Inserts = Inserts.load(std::memory_order_relaxed);
      S.RejectedFull = RejectedFull.load(std::memory_order_relaxed);
      return S;
    }

  private:
    friend class ExecCache;
    size_t MaxEntries = 0;
    std::unordered_map<ExecKey, ExecSummary, ExecKeyHasher> Map;
    mutable std::atomic<uint64_t> Lookups{0}, Hits{0};
    std::atomic<uint64_t> Inserts{0}, RejectedFull{0};
    std::mutex Mu;
  };

  /// Exclusive use of one shard; released on destruction.
  class Lease {
  public:
    Lease() = default;
    Shard &operator*() const { return *S; }
    Shard *operator->() const { return S; }
    size_t index() const { return Index; }

  private:
    friend class ExecCache;
    Shard *S = nullptr;
    size_t Index = 0;
    std::unique_lock<std::mutex> Lock;
  };

  /// \p TotalEntries is split across \p NumShards so the capacities add
  /// up exactly: the first TotalEntries % NumShards shards get one extra
  /// entry, and a shard may get none. Each lease that finds its shard
  /// held by another caller bumps \p ShardWaits (optional, not owned).
  explicit ExecCache(size_t TotalEntries = 1 << 15, size_t NumShards = 1,
                     obs::Counter *ShardWaits = nullptr);
  /// Leases point into the shards, so the cache never moves.
  ExecCache(const ExecCache &) = delete;
  ExecCache &operator=(const ExecCache &) = delete;

  size_t numShards() const { return Shards.size(); }

  /// The shard every run with route fingerprint \p RouteFp must use.
  size_t shardIndex(uint64_t RouteFp) const {
    // Fingerprints are already well-mixed hashes; fold the halves so a
    // power-of-two shard count still sees the high bits.
    return static_cast<size_t>((RouteFp ^ (RouteFp >> 32)) %
                               Shards.size());
  }

  /// Locks and returns the shard for \p RouteFp, blocking while another
  /// lease holds it.
  Lease lease(uint64_t RouteFp);

  const Shard &shard(size_t I) const { return Shards[I]; }

  size_t size() const;
  size_t capacity() const;
  /// Lifetime counters summed across shards (each shard's snapshot is
  /// individually consistent; the sum is not a global cut).
  Stats stats() const;

private:
  /// Sized once in the ctor: shards hold a mutex and never move.
  std::vector<Shard> Shards;
  obs::Counter *ShardWaits;
};

/// The fingerprint a run routes by: its module before enforcement and its
/// clients, the identity every ExecKey of the run embeds.
uint64_t routeFingerprint(uint64_t ModuleFp,
                          const std::vector<uint64_t> &ClientFps);

} // namespace dfence::cache

#endif // DFENCE_CACHE_EXECCACHE_H
