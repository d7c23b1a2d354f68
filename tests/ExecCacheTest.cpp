//===- ExecCacheTest.cpp - The sharded execution cache ---------------------===//
//
// Unit tests of cache::ExecCache's shard machinery: fingerprint routing,
// the exact capacity split, per-shard capacity caps, summed statistics
// and the contended-lease wait count the serve daemon reports. The
// end-to-end contract (cache on ≡ cache off) lives in
// CacheDifferentialTest.
//
//===----------------------------------------------------------------------===//

#include "cache/ExecCache.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <thread>

using namespace dfence;
using cache::ExecCache;
using cache::ExecKey;

namespace {

ExecKey keyWithSeed(uint64_t Seed) {
  ExecKey K;
  K.Seed = Seed;
  return K;
}

/// The first route fingerprint (counting up from 0) that lands on shard
/// \p Shard of \p C.
uint64_t fingerprintFor(const ExecCache &C, size_t Shard) {
  uint64_t Fp = 0;
  while (C.shardIndex(Fp) != Shard)
    ++Fp;
  return Fp;
}

} // namespace

TEST(ExecCacheTest, SameFingerprintAlwaysMapsToSameShard) {
  ExecCache A(64, 4), B(64, 4);
  for (uint64_t I = 0; I != 200; ++I) {
    uint64_t Fp = cache::hashMix64(I);
    size_t Shard = A.shardIndex(Fp);
    ASSERT_LT(Shard, 4u);
    EXPECT_EQ(A.shardIndex(Fp), Shard);
    EXPECT_EQ(B.shardIndex(Fp), Shard);
    EXPECT_EQ(A.lease(Fp).index(), Shard);
  }
  // The route folds the module and client fingerprints in client order.
  EXPECT_EQ(cache::routeFingerprint(7, {11, 13}),
            cache::hashCombine(cache::hashCombine(7, 11), 13));
  EXPECT_EQ(cache::routeFingerprint(7, {}), 7u);
  // A single-shard cache routes everything to shard 0.
  ExecCache One;
  EXPECT_EQ(One.numShards(), 1u);
  EXPECT_EQ(One.lease(cache::hashMix64(42)).index(), 0u);
}

TEST(ExecCacheTest, ShardCapacitiesAddUpToTheTotal) {
  struct {
    size_t Total, Shards;
  } Cases[] = {{32768, 3}, {32768, 4}, {2, 4}, {0, 3}, {10, 4}, {7, 1}};
  for (const auto &C : Cases) {
    ExecCache Cache(C.Total, C.Shards);
    ASSERT_EQ(Cache.numShards(), C.Shards);
    size_t Sum = 0;
    for (size_t I = 0; I != C.Shards; ++I) {
      size_t Want = C.Total / C.Shards + (I < C.Total % C.Shards ? 1 : 0);
      EXPECT_EQ(Cache.shard(I).capacity(), Want)
          << C.Total << "/" << C.Shards << " shard " << I;
      Sum += Cache.shard(I).capacity();
    }
    EXPECT_EQ(Sum, C.Total) << C.Total << "/" << C.Shards;
    EXPECT_EQ(Cache.capacity(), C.Total) << C.Total << "/" << C.Shards;
  }
}

TEST(ExecCacheTest, RejectedFullFiresAtEachShardCap) {
  // 5 entries over 2 shards: capacities 3 and 2.
  ExecCache Cache(5, 2);
  for (size_t Shard = 0; Shard != 2; ++Shard) {
    ExecCache::Lease L = Cache.lease(fingerprintFor(Cache, Shard));
    size_t Cap = L->capacity();
    for (uint64_t I = 0; I != Cap; ++I)
      EXPECT_TRUE(L->insert(keyWithSeed(I), {})) << Shard << "/" << I;
    EXPECT_EQ(L->stats().RejectedFull, 0u);
    EXPECT_FALSE(L->insert(keyWithSeed(Cap), {}));
    EXPECT_EQ(L->stats().RejectedFull, 1u) << "shard " << Shard;
    EXPECT_EQ(L->size(), Cap);
  }
  // A zero-capacity shard rejects its first insert.
  ExecCache Tiny(1, 2);
  ExecCache::Lease L = Tiny.lease(fingerprintFor(Tiny, 1));
  EXPECT_EQ(L->capacity(), 0u);
  EXPECT_FALSE(L->insert(keyWithSeed(0), {}));
  EXPECT_EQ(L->stats().RejectedFull, 1u);
  EXPECT_EQ(L->lookup(keyWithSeed(0)), nullptr);
}

TEST(ExecCacheTest, StatsSumOverShards) {
  ExecCache Cache(100, 3);
  for (size_t Shard = 0; Shard != 3; ++Shard) {
    ExecCache::Lease L = Cache.lease(fingerprintFor(Cache, Shard));
    // Shard s gets s + 1 entries, a hit on each and one miss.
    for (uint64_t I = 0; I <= Shard; ++I)
      EXPECT_TRUE(L->insert(keyWithSeed(I), {}));
    EXPECT_FALSE(L->insert(keyWithSeed(0), {})) << "duplicate key";
    for (uint64_t I = 0; I <= Shard; ++I)
      EXPECT_NE(L->lookup(keyWithSeed(I)), nullptr);
    EXPECT_EQ(L->lookup(keyWithSeed(1000)), nullptr);
  }
  ExecCache::Stats Sum;
  for (size_t I = 0; I != 3; ++I) {
    ExecCache::Stats P = Cache.shard(I).stats();
    Sum.Lookups += P.Lookups;
    Sum.Hits += P.Hits;
    Sum.Inserts += P.Inserts;
    Sum.RejectedFull += P.RejectedFull;
  }
  ExecCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Lookups, Sum.Lookups);
  EXPECT_EQ(S.Hits, Sum.Hits);
  EXPECT_EQ(S.Inserts, Sum.Inserts);
  EXPECT_EQ(S.RejectedFull, Sum.RejectedFull);
  EXPECT_EQ(S.Lookups, 9u);
  EXPECT_EQ(S.Hits, 6u);
  EXPECT_EQ(S.Inserts, 6u);
  EXPECT_EQ(Cache.size(), 6u);
}

TEST(ExecCacheTest, ContendedLeaseCountsOneShardWait) {
  obs::Counter Waits;
  ExecCache Cache(8, 2, &Waits);
  uint64_t Fp = fingerprintFor(Cache, 0);
  ExecCache::Lease Held = Cache.lease(Fp);
  // A lease of the other shard does not wait.
  { ExecCache::Lease Other = Cache.lease(fingerprintFor(Cache, 1)); }
  EXPECT_EQ(Waits.value(), 0u);

  std::thread Contender([&] {
    ExecCache::Lease L = Cache.lease(Fp);
    EXPECT_EQ(L.index(), 0u);
  });
  // The contender counts its wait before it blocks on the held shard.
  while (Waits.value() == 0)
    std::this_thread::yield();
  Held = ExecCache::Lease();
  Contender.join();
  EXPECT_EQ(Waits.value(), 1u);

  // Uncontended again: no further waits.
  { ExecCache::Lease L = Cache.lease(Fp); }
  EXPECT_EQ(Waits.value(), 1u);
}
