/// SolveCache interface tests: the factory's shard selection, the
/// sharded implementation's bit-identity to the single-mutex cache
/// (dense and grouped), aggregate counter consistency under concurrent
/// eviction, window folding, and the capacity contract.

#include "queueing/solve_cache.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "queueing/mva_cache.h"
#include "queueing/sharded_solve_cache.h"

namespace mrperf {
namespace {

OverlapMvaProblem TwoTaskProblem(double overlap, double demand = 2.0) {
  OverlapMvaProblem p;
  p.centers = {{"cpu", CenterType::kQueueing, 1}};
  p.tasks = {{{demand}}, {{demand}}};
  p.overlap = {{0.0, overlap}, {overlap, 0.0}};
  return p;
}

GroupedOverlapMvaProblem TwoClassGroupedProblem(double theta) {
  GroupedOverlapMvaProblem p;
  p.centers = {{"cpu", CenterType::kQueueing, 2},
               {"disk", CenterType::kQueueing, 1}};
  p.groups.push_back({/*demand=*/{4.0, 1.0}, /*count=*/3});
  p.groups.push_back({/*demand=*/{1.0, 3.0}, /*count=*/2});
  p.overlap = {{theta, theta}, {theta, theta}};
  p.task_group = {0, 1, 0, 1, 0};
  return p;
}

TEST(MakeSolveCacheTest, ShardCountSelectsImplementation) {
  EXPECT_EQ(MakeSolveCache(0, 16)->shard_count(), 1);
  EXPECT_EQ(MakeSolveCache(1, 16)->shard_count(), 1);
  EXPECT_EQ(MakeSolveCache(2, 16)->shard_count(), 2);
  // Non-powers of two round up, never down.
  EXPECT_EQ(MakeSolveCache(3, 16)->shard_count(), 4);
  EXPECT_EQ(MakeSolveCache(8, 16)->shard_count(), 8);
  EXPECT_EQ(MakeSolveCache(9, 16)->shard_count(), 16);
}

TEST(MakeSolveCacheTest, MaxEntriesIsTheTotalCap) {
  EXPECT_EQ(MakeSolveCache(1, 64)->max_entries(), 64);
  EXPECT_EQ(MakeSolveCache(8, 64)->max_entries(), 64);
}

TEST(ShardedSolveCacheTest, SolveThroughBitIdenticalToSingleMutex) {
  MvaSolveCache single(/*max_entries=*/64);
  ShardedSolveCache sharded(/*shards=*/8, /*max_entries=*/64);
  for (double theta : {0.0, 0.1, 0.35, 0.5, 0.9, 1.0}) {
    const OverlapMvaProblem problem = TwoTaskProblem(theta);
    auto a = single.SolveThrough(problem, {});
    auto b = sharded.SolveThrough(problem, {});  // miss
    auto c = sharded.SolveThrough(problem, {});  // hit
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(c.ok());
    ASSERT_EQ(a->response.size(), b->response.size());
    for (size_t i = 0; i < a->response.size(); ++i) {
      EXPECT_EQ(a->response[i], b->response[i]);
      EXPECT_EQ(a->response[i], c->response[i]);  // hit is exact bytes
    }
  }
  const MvaCacheStats stats = sharded.stats();
  EXPECT_EQ(stats.hits, 6);
  EXPECT_EQ(stats.misses, 6);
  EXPECT_EQ(stats.size, 6);
}

TEST(ShardedSolveCacheTest, GroupedSolveThroughBitIdenticalToSingleMutex) {
  MvaSolveCache single(/*max_entries=*/64);
  ShardedSolveCache sharded(/*shards=*/4, /*max_entries=*/64);
  const GroupedOverlapMvaProblem problem = TwoClassGroupedProblem(0.4);
  auto a = single.SolveThrough(problem, {});
  auto b = sharded.SolveThrough(problem, {});
  auto c = sharded.SolveThrough(problem, {});  // grouped-key hit
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(a->response.size(), problem.task_group.size());
  for (size_t i = 0; i < a->response.size(); ++i) {
    EXPECT_EQ(a->response[i], b->response[i]);
    EXPECT_EQ(a->response[i], c->response[i]);
  }
  EXPECT_EQ(sharded.stats().hits, 1);
}

TEST(ShardedSolveCacheTest, KeysAlwaysMapToTheSameShard) {
  // A key inserted once must hit forever after: shard selection is a
  // pure function of the key bytes.
  ShardedSolveCache cache(/*shards=*/16, /*max_entries=*/1024);
  OverlapMvaSolution sol;
  sol.response = {1.0};
  sol.residence = {{1.0}};
  sol.iterations = 1;
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("key-" + std::to_string(i));
    cache.Insert(keys.back(), sol);
  }
  for (const std::string& key : keys) {
    EXPECT_TRUE(cache.Lookup(key).has_value()) << key;
  }
  EXPECT_EQ(cache.stats().size, 200);
  // The per-shard counters partition the aggregate, and the keys spread.
  int64_t hits = 0;
  int shards_hit = 0;
  for (int i = 0; i < cache.shard_count(); ++i) {
    const int64_t shard_hits = cache.shard_stats(i).hits;
    hits += shard_hits;
    if (shard_hits > 0) ++shards_hit;
  }
  EXPECT_EQ(hits, 200);
  EXPECT_GT(shards_hit, 1);
}

TEST(ShardedSolveCacheTest, CapacityIsSplitAcrossShards) {
  // Total cap 32 over 4 shards = 8 per shard: inserting far more keys
  // than the cap must keep the aggregate size at (or below) the total.
  ShardedSolveCache cache(/*shards=*/4, /*max_entries=*/32);
  OverlapMvaSolution sol;
  sol.response = {1.0};
  sol.residence = {{1.0}};
  for (int i = 0; i < 500; ++i) {
    cache.Insert("key-" + std::to_string(i), sol);
  }
  const MvaCacheStats stats = cache.stats();
  EXPECT_LE(stats.size, 32);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(stats.size, stats.insertions - stats.evictions);
}

TEST(ShardedSolveCacheTest, ClearEmptiesEveryShard) {
  ShardedSolveCache cache(/*shards=*/4, /*max_entries=*/64);
  for (double theta : {0.1, 0.2, 0.3}) {
    ASSERT_TRUE(cache.SolveThrough(TwoTaskProblem(theta), {}).ok());
  }
  cache.Clear();
  const MvaCacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 0);
  EXPECT_EQ(stats.lookups(), 0);
  EXPECT_FALSE(
      cache.Lookup(SolveCache::MakeKey(TwoTaskProblem(0.1), {})).has_value());
}

TEST(ShardedSolveCacheTest, ResetStatsFoldsWindowsWithoutLoss) {
  ShardedSolveCache cache(/*shards=*/4, /*max_entries=*/64);
  for (double theta : {0.1, 0.2, 0.3, 0.1, 0.2}) {  // 3 misses, 2 hits
    ASSERT_TRUE(cache.SolveThrough(TwoTaskProblem(theta), {}).ok());
  }
  const MvaCacheStats w1 = cache.ResetStats();
  EXPECT_EQ(w1.hits, 2);
  EXPECT_EQ(w1.misses, 3);
  EXPECT_EQ(w1.insertions, 3);
  EXPECT_EQ(w1.size, 3);  // gauge: entries stay resident

  // The next window starts at zero but still hits the resident entries.
  ASSERT_TRUE(cache.SolveThrough(TwoTaskProblem(0.3), {}).ok());
  const MvaCacheStats w2 = cache.stats();
  EXPECT_EQ(w2.hits, 1);
  EXPECT_EQ(w2.misses, 0);
  EXPECT_EQ(w2.size, 3);
}

TEST(ShardedSolveCacheTest, StatsSnapshotsStayConsistentUnderEviction) {
  // Writers churn a cache whose working set is far above its cap while
  // a reader keeps snapshotting stats(): every snapshot must satisfy
  // size == insertions - evictions (per-shard snapshots are taken in
  // one critical section; the sum preserves the identity).
  ShardedSolveCache cache(/*shards=*/4, /*max_entries=*/8);
  OverlapMvaSolution sol;
  sol.response = {1.0};
  sol.residence = {{1.0}};

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    while (!done.load()) {
      const MvaCacheStats s = cache.stats();
      if (s.size != s.insertions - s.evictions) violations.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&cache, &sol, t] {
      for (int i = 0; i < 3000; ++i) {
        const std::string key =
            "churn-" + std::to_string((i * (t + 1)) % 64);
        if (!cache.Lookup(key)) cache.Insert(key, sol);
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(violations.load(), 0);
  const MvaCacheStats s = cache.stats();
  EXPECT_EQ(s.size, s.insertions - s.evictions);
  EXPECT_GT(s.evictions, 0);
}

TEST(SolveCacheTest, MakeKeyIsSharedAcrossImplementations) {
  // The key is defined by the interface, not the implementation: both
  // caches answer each other's keys.
  const std::string key = SolveCache::MakeKey(TwoTaskProblem(0.5), {});
  EXPECT_EQ(key, MvaSolveCache::MakeKey(TwoTaskProblem(0.5), {}));

  MvaSolveCache single(8);
  ShardedSolveCache sharded(2, 8);
  ASSERT_TRUE(single.SolveThrough(TwoTaskProblem(0.5), {}).ok());
  auto cached = single.Lookup(key);
  ASSERT_TRUE(cached.has_value());
  sharded.Insert(key, *cached);
  auto via_sharded = sharded.Lookup(key);
  ASSERT_TRUE(via_sharded.has_value());
  EXPECT_EQ(via_sharded->response[0], cached->response[0]);
}

}  // namespace
}  // namespace mrperf
