/// SolveCache tests: exact keys; the memo contract (bit-identical hits,
/// uncached errors, window counters, concurrent use) at 1 shard and at
/// 4; LRU order within a shard; the shard count and the exact total
/// cap; and bit-identity across shard counts (singleton and compressed
/// classes).

#include "queueing/solve_cache.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace mrperf {
namespace {

/// Shard counts the memo-contract tests run at: the single-mutex layout
/// and a sharded one.
constexpr int kShardCounts[] = {1, 4};

/// Two tasks as two singleton classes — the shape every all-singleton
/// A4 problem takes.
GroupedOverlapMvaProblem TwoTaskProblem(double overlap,
                                        double demand = 2.0) {
  GroupedOverlapMvaProblem p;
  p.centers = {{"cpu", CenterType::kQueueing, 1}};
  p.groups = {{/*demand=*/{demand}, /*count=*/1},
              {/*demand=*/{demand}, /*count=*/1}};
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

OverlapMvaSolution TinySolution() {
  OverlapMvaSolution sol;
  sol.response = {1.0};
  sol.residence = {{1.0}};
  sol.iterations = 1;
  return sol;
}

TEST(MvaCacheKeyTest, IdenticalProblemsShareAKey) {
  const OverlapMvaOptions opts;
  EXPECT_EQ(SolveCache::MakeKey(TwoTaskProblem(0.5), opts),
            SolveCache::MakeKey(TwoTaskProblem(0.5), opts));
}

TEST(MvaCacheKeyTest, KeyCoversProblemAndOptions) {
  const OverlapMvaOptions opts;
  const std::string base = SolveCache::MakeKey(TwoTaskProblem(0.5), opts);

  EXPECT_NE(SolveCache::MakeKey(TwoTaskProblem(0.6), opts), base);
  EXPECT_NE(SolveCache::MakeKey(TwoTaskProblem(0.5, 3.0), opts), base);

  GroupedOverlapMvaProblem more_servers = TwoTaskProblem(0.5);
  more_servers.centers[0].server_count = 2;
  EXPECT_NE(SolveCache::MakeKey(more_servers, opts), base);

  OverlapMvaOptions tighter;
  tighter.tolerance = 1e-12;
  EXPECT_NE(SolveCache::MakeKey(TwoTaskProblem(0.5), tighter), base);
}

TEST(MvaCacheKeyTest, CenterNamesDoNotAffectTheKey) {
  const OverlapMvaOptions opts;
  GroupedOverlapMvaProblem renamed = TwoTaskProblem(0.5);
  renamed.centers[0].name = "other-label";
  EXPECT_EQ(SolveCache::MakeKey(renamed, opts),
            SolveCache::MakeKey(TwoTaskProblem(0.5), opts));
}

TEST(MvaCacheTest, SolveThroughMatchesDirectSolveExactly) {
  const GroupedOverlapMvaProblem problem = TwoTaskProblem(0.7);
  const OverlapMvaOptions opts;
  auto direct = SolveGroupedOverlapMva(problem, opts);
  ASSERT_TRUE(direct.ok());

  for (int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    SolveCache cache(shards);
    auto miss = cache.SolveThrough(problem, opts);
    ASSERT_TRUE(miss.ok());
    auto hit = cache.SolveThrough(problem, opts);
    ASSERT_TRUE(hit.ok());

    for (size_t i = 0; i < direct->response.size(); ++i) {
      EXPECT_EQ(miss->response[i], direct->response[i]);
      EXPECT_EQ(hit->response[i], direct->response[i]);  // bit-identical
    }
    const MvaCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.insertions, 1);
    EXPECT_EQ(stats.size, 1);
    EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  }
}

TEST(MvaCacheTest, ErrorsAreNotCached) {
  GroupedOverlapMvaProblem bad = TwoTaskProblem(0.5);
  bad.overlap[0][1] = 2.0;  // invalid: theta must be in [0, 1]
  for (int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    SolveCache cache(shards);
    EXPECT_FALSE(cache.SolveThrough(bad, {}).ok());
    EXPECT_EQ(cache.stats().insertions, 0);
    EXPECT_EQ(cache.stats().size, 0);
  }
}

TEST(MvaCacheTest, LruEvictionKeepsMostRecentEntries) {
  // Recency order is per shard, so one shard shows it globally.
  SolveCache cache(/*shards=*/1, /*max_entries=*/2);
  for (double theta : {0.1, 0.2, 0.3, 0.4}) {
    ASSERT_TRUE(cache.SolveThrough(TwoTaskProblem(theta), {}).ok());
  }
  MvaCacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 2);
  EXPECT_EQ(stats.insertions, 4);
  EXPECT_EQ(stats.evictions, 2);

  // The two most recent problems are resident; the two oldest were
  // evicted in LRU order.
  const OverlapMvaOptions opts;
  EXPECT_TRUE(cache.Lookup(SolveCache::MakeKey(TwoTaskProblem(0.4), opts))
                  .has_value());
  EXPECT_TRUE(cache.Lookup(SolveCache::MakeKey(TwoTaskProblem(0.3), opts))
                  .has_value());
  EXPECT_FALSE(cache.Lookup(SolveCache::MakeKey(TwoTaskProblem(0.1), opts))
                   .has_value());
  EXPECT_FALSE(cache.Lookup(SolveCache::MakeKey(TwoTaskProblem(0.2), opts))
                   .has_value());
  // Evicted problems still solve correctly (re-inserted on miss).
  auto again = cache.SolveThrough(TwoTaskProblem(0.1), {});
  ASSERT_TRUE(again.ok());
}

TEST(MvaCacheTest, LookupRefreshesRecency) {
  SolveCache cache(/*shards=*/1, /*max_entries=*/2);
  ASSERT_TRUE(cache.SolveThrough(TwoTaskProblem(0.1), {}).ok());
  ASSERT_TRUE(cache.SolveThrough(TwoTaskProblem(0.2), {}).ok());
  // Touch 0.1 so 0.2 becomes the LRU victim.
  ASSERT_TRUE(cache.SolveThrough(TwoTaskProblem(0.1), {}).ok());
  ASSERT_TRUE(cache.SolveThrough(TwoTaskProblem(0.3), {}).ok());

  const OverlapMvaOptions opts;
  EXPECT_TRUE(cache.Lookup(SolveCache::MakeKey(TwoTaskProblem(0.1), opts))
                  .has_value());
  EXPECT_FALSE(cache.Lookup(SolveCache::MakeKey(TwoTaskProblem(0.2), opts))
                   .has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(MvaCacheTest, EvictedEntriesComeBackBitIdentical) {
  // A solution that is evicted and re-solved must match the original
  // bits — eviction can change performance, never results.
  SolveCache cache(/*shards=*/1, /*max_entries=*/1);
  auto first = cache.SolveThrough(TwoTaskProblem(0.6), {});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(cache.SolveThrough(TwoTaskProblem(0.7), {}).ok());  // evicts
  auto second = cache.SolveThrough(TwoTaskProblem(0.6), {});
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < first->response.size(); ++i) {
    EXPECT_EQ(first->response[i], second->response[i]);
  }
}

TEST(MvaCacheTest, ResetStatsZerosCountersButKeepsEntries) {
  for (int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    SolveCache cache(shards);
    auto first = cache.SolveThrough(TwoTaskProblem(0.4), {});  // miss+insert
    ASSERT_TRUE(first.ok());
    auto second = cache.SolveThrough(TwoTaskProblem(0.4), {});  // hit
    ASSERT_TRUE(second.ok());

    const MvaCacheStats before = cache.stats();
    EXPECT_EQ(before.hits, 1);
    EXPECT_EQ(before.misses, 1);
    EXPECT_EQ(before.insertions, 1);
    EXPECT_EQ(before.size, 1);

    // The returned snapshot is the closed window, atomically.
    const MvaCacheStats window = cache.ResetStats();
    EXPECT_EQ(window.hits, before.hits);
    EXPECT_EQ(window.misses, before.misses);
    EXPECT_EQ(window.insertions, before.insertions);
    EXPECT_EQ(window.size, before.size);

    const MvaCacheStats after = cache.stats();
    EXPECT_EQ(after.hits, 0);
    EXPECT_EQ(after.misses, 0);
    EXPECT_EQ(after.insertions, 0);
    EXPECT_EQ(after.evictions, 0);
    EXPECT_EQ(after.size, 1);  // entries stay resident

    // The resident entry still hits — counted in the fresh window, and
    // bit-identical to the pre-reset solution.
    auto warm = cache.SolveThrough(TwoTaskProblem(0.4), {});
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->response[0], first->response[0]);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().misses, 0);
  }
}

TEST(MvaCacheTest, ConcurrentSolveThroughIsSafeAndConsistent) {
  const GroupedOverlapMvaProblem problem = TwoTaskProblem(0.9);
  auto direct = SolveGroupedOverlapMva(problem, {});
  ASSERT_TRUE(direct.ok());

  for (int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    SolveCache cache(shards);
    std::vector<std::thread> threads;
    std::vector<double> responses(8, 0.0);
    for (size_t t = 0; t < responses.size(); ++t) {
      threads.emplace_back([&cache, &problem, &responses, t] {
        for (int i = 0; i < 50; ++i) {
          auto sol = cache.SolveThrough(problem, {});
          ASSERT_TRUE(sol.ok());
          responses[t] = sol->response[0];
        }
      });
    }
    for (auto& th : threads) th.join();
    for (double r : responses) {
      EXPECT_EQ(r, direct->response[0]);
    }
    EXPECT_EQ(cache.stats().lookups(), 8 * 50);
    EXPECT_EQ(cache.stats().size, 1);
  }
}

TEST(MvaCacheTest, ConcurrentEvictionUnderContentionStaysConsistent) {
  // Hammer a tiny cache with a working set 8x its capacity from many
  // threads: every result must still be correct, the size must respect
  // the cap, and the counters must balance (entries resident ==
  // insertions - evictions).
  constexpr int kCap = 4;
  constexpr int kProblems = 32;
  constexpr int kThreads = 8;
  constexpr int kRounds = 30;

  std::vector<double> expected(kProblems);
  for (int p = 0; p < kProblems; ++p) {
    auto direct = SolveGroupedOverlapMva(TwoTaskProblem(0.01 * (p + 1)), {});
    ASSERT_TRUE(direct.ok());
    expected[p] = direct->response[0];
  }

  for (int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    SolveCache cache(shards, /*max_entries=*/kCap);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &expected, t] {
        // Each thread walks the problems at a different stride so the
        // interleavings collide on insert/evict/lookup.
        for (int i = 0; i < kRounds * kProblems; ++i) {
          const int p = (i * (t + 1) + t) % kProblems;
          auto sol = cache.SolveThrough(TwoTaskProblem(0.01 * (p + 1)), {});
          ASSERT_TRUE(sol.ok());
          ASSERT_EQ(sol->response[0], expected[p]);
        }
      });
    }
    for (auto& th : threads) th.join();

    const MvaCacheStats stats = cache.stats();
    EXPECT_LE(stats.size, kCap);
    EXPECT_EQ(stats.size, stats.insertions - stats.evictions);
    EXPECT_EQ(stats.lookups(), int64_t{kThreads} * kRounds * kProblems);
    EXPECT_GT(stats.evictions, 0);
  }
}

TEST(SolveCacheTest, ShardCountRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(SolveCache(-3, 16).shard_count(), 1);
  EXPECT_EQ(SolveCache(0, 16).shard_count(), 1);
  EXPECT_EQ(SolveCache(1, 16).shard_count(), 1);
  EXPECT_EQ(SolveCache(2, 16).shard_count(), 2);
  // Non-powers of two round up, never down.
  EXPECT_EQ(SolveCache(3, 16).shard_count(), 4);
  EXPECT_EQ(SolveCache(8, 16).shard_count(), 8);
  EXPECT_EQ(SolveCache(9, 16).shard_count(), 16);
  // ... but never past the largest power of two <= max_entries, so no
  // shard is left without room for an entry.
  EXPECT_EQ(SolveCache(8, 2).shard_count(), 2);
  EXPECT_EQ(SolveCache(16, 12).shard_count(), 8);
  EXPECT_EQ(SolveCache(4, 0).shard_count(), 1);
}

TEST(SolveCacheTest, MaxEntriesIsTheTotalCap) {
  // Far more distinct keys than the cap fill every shard: the resident
  // total must be exactly max_entries whether or not the shard count
  // divides it.
  struct Config {
    int shards;
    int64_t max_entries;
  };
  for (const Config& config : {Config{1, 64}, Config{8, 64}, Config{8, 2},
                               Config{4, 10}, Config{8, 100}}) {
    SCOPED_TRACE(std::to_string(config.shards) + " shards, cap " +
                 std::to_string(config.max_entries));
    SolveCache cache(config.shards, config.max_entries);
    for (int64_t i = 0; i < 64 * config.max_entries; ++i) {
      cache.Insert("cap-key-" + std::to_string(i), TinySolution());
    }
    const MvaCacheStats stats = cache.stats();
    EXPECT_EQ(stats.size, config.max_entries);
    EXPECT_EQ(stats.size, stats.insertions - stats.evictions);
  }
}

TEST(ShardedSolveCacheTest, SolveThroughBitIdenticalToSingleMutex) {
  SolveCache single(/*shards=*/1, /*max_entries=*/64);
  SolveCache sharded(/*shards=*/8, /*max_entries=*/64);
  for (double theta : {0.0, 0.1, 0.35, 0.5, 0.9, 1.0}) {
    const GroupedOverlapMvaProblem problem = TwoTaskProblem(theta);
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
  SolveCache single(/*shards=*/1, /*max_entries=*/64);
  SolveCache sharded(/*shards=*/4, /*max_entries=*/64);
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
  SolveCache cache(/*shards=*/16, /*max_entries=*/1024);
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("key-" + std::to_string(i));
    cache.Insert(keys.back(), TinySolution());
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
  // than the cap fills every shard to exactly its share.
  SolveCache cache(/*shards=*/4, /*max_entries=*/32);
  for (int i = 0; i < 500; ++i) {
    cache.Insert("key-" + std::to_string(i), TinySolution());
  }
  const MvaCacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 32);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(stats.size, stats.insertions - stats.evictions);
  for (int i = 0; i < cache.shard_count(); ++i) {
    EXPECT_EQ(cache.shard_stats(i).size, 8) << "shard " << i;
  }
}

TEST(ShardedSolveCacheTest, ResetStatsFoldsWindowsWithoutLoss) {
  SolveCache cache(/*shards=*/4, /*max_entries=*/64);
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
  SolveCache cache(/*shards=*/4, /*max_entries=*/8);
  const OverlapMvaSolution sol = TinySolution();

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
  // One key format for every shard count: a 1-shard cache and a
  // 2-shard cache answer each other's keys.
  const std::string key = SolveCache::MakeKey(TwoTaskProblem(0.5), {});
  SolveCache single(/*shards=*/1, /*max_entries=*/8);
  SolveCache sharded(/*shards=*/2, /*max_entries=*/8);
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
