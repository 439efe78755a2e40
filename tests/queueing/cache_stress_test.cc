/// TSan-targeted stress tests for the solve-cache concurrency
/// contracts, each at 1 shard and at several: Checkpoint() racing
/// lookups, inserts and eviction churn; Recover() racing live traffic;
/// and stats()/ResetStats() snapshots staying internally consistent
/// while every shard is being mutated. These tests assert functional
/// outcomes, but their main job is to give ThreadSanitizer (cmake
/// --preset tsan) real interleavings to chew on.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "queueing/solve_cache.h"

namespace mrperf {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Synthetic (key, solution) pair; distinct per index so recovered
/// entries can be verified against their key.
std::string KeyFor(int i) { return "stress-key-" + std::to_string(i); }

OverlapMvaSolution SolutionFor(int i) {
  OverlapMvaSolution solution;
  solution.residence = {{1.0 * i, 2.0 * i}};
  solution.response = {3.0 * i};
  solution.iterations = i;
  return solution;
}

TEST(CacheStressTest, CheckpointRacesLookupsInsertsAndEviction) {
  // Cap far below the key range: every mutator loop evicts constantly,
  // so Checkpoint's walk over the shards races both LRU splices (lookup
  // hits) and entry destruction (eviction).
  const std::string path = TempPath("stress_ckpt.bin");
  constexpr int kKeys = 256;
  constexpr int kMutators = 4;
  constexpr int kIterations = 2000;
  for (int shards : {1, 8}) {
    SCOPED_TRACE(shards);
    SolveCache cache(shards, /*max_entries=*/64);
    std::atomic<bool> stop{false};
    std::vector<std::thread> mutators;
    mutators.reserve(kMutators);
    for (int t = 0; t < kMutators; ++t) {
      mutators.emplace_back([&cache, t] {
        for (int i = 0; i < kIterations; ++i) {
          const int k = (i * (t + 1)) % kKeys;
          if (!cache.Lookup(KeyFor(k))) {
            cache.Insert(KeyFor(k), SolutionFor(k));
          }
        }
      });
    }
    std::thread checkpointer([&cache, &path, &stop] {
      int written = 0;
      while (!stop.load(std::memory_order_relaxed) || written == 0) {
        ASSERT_TRUE(cache.Checkpoint(path).ok());
        ++written;
      }
    });
    for (std::thread& m : mutators) m.join();
    stop.store(true, std::memory_order_relaxed);
    checkpointer.join();
    // One more checkpoint with the world stopped: it holds exactly the
    // resident working set; a cold cache must recover it and serve
    // every recovered entry with the exact inserted bytes.
    ASSERT_TRUE(cache.Checkpoint(path).ok());
    SolveCache recovered(/*shards=*/1, /*max_entries=*/256);
    ASSERT_TRUE(recovered.Recover(path).ok());
    const MvaCacheStats stats = recovered.stats();
    EXPECT_GT(stats.recovered_entries, 0);
    EXPECT_LE(stats.recovered_entries, 64);
    int verified = 0;
    for (int k = 0; k < kKeys; ++k) {
      if (auto hit = recovered.Lookup(KeyFor(k))) {
        EXPECT_EQ(hit->response, SolutionFor(k).response);
        ++verified;
      }
    }
    EXPECT_EQ(verified, stats.recovered_entries);
  }
  std::remove(path.c_str());
}

TEST(CacheStressTest, RecoverRacesLiveTraffic) {
  // Seed a checkpoint, then replay it into a cache that is concurrently
  // serving lookups and inserts: recovery is just Insert calls, so live
  // traffic must keep its exact-byte guarantee throughout.
  const std::string path = TempPath("stress_recover.bin");
  {
    SolveCache seed(/*shards=*/1, /*max_entries=*/128);
    for (int i = 0; i < 100; ++i) seed.Insert(KeyFor(i), SolutionFor(i));
    ASSERT_TRUE(seed.Checkpoint(path).ok());
  }

  constexpr int kLiveBase = 1000;  // disjoint from the checkpoint's keys
  for (int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    SolveCache cache(shards, /*max_entries=*/512);
    std::vector<std::thread> traffic;
    traffic.reserve(3);
    for (int t = 0; t < 3; ++t) {
      traffic.emplace_back([&cache, t] {
        for (int i = 0; i < 3000; ++i) {
          const int k = kLiveBase + ((i * (t + 1)) % 200);
          if (auto hit = cache.Lookup(KeyFor(k))) {
            ASSERT_EQ(hit->response, SolutionFor(k).response);
          } else {
            cache.Insert(KeyFor(k), SolutionFor(k));
          }
        }
      });
    }
    ASSERT_TRUE(cache.Recover(path).ok());
    for (std::thread& t : traffic) t.join();

    // Both the recovered and the live working set are resident (cap
    // was never exceeded), each with its own exact bytes.
    for (int i = 0; i < 100; ++i) {
      auto hit = cache.Lookup(KeyFor(i));
      ASSERT_TRUE(hit.has_value()) << "lost recovered key " << i;
      EXPECT_EQ(hit->response, SolutionFor(i).response);
    }
  }
  std::remove(path.c_str());
}

TEST(CacheStressTest, StatsAndResetStatsRaceMutators) {
  constexpr int kKeys = 128;
  for (int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    SolveCache cache(shards, /*max_entries=*/32);
    std::atomic<bool> stop{false};
    std::vector<std::thread> mutators;
    mutators.reserve(2);
    for (int t = 0; t < 2; ++t) {
      mutators.emplace_back([&cache, t] {
        for (int i = 0; i < 4000; ++i) {
          const int k = (i * (t + 3)) % kKeys;
          if (!cache.Lookup(KeyFor(k))) {
            cache.Insert(KeyFor(k), SolutionFor(k));
          }
        }
      });
    }
    std::thread reader([&cache, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        // size == insertions - evictions only holds for a window that
        // was never reset (the existing snapshot-consistency test pins
        // that); here the point is the interleaving itself —
        // snapshot-and-reset racing every shard's mutators — plus basic
        // sanity.
        const MvaCacheStats live = cache.stats();
        EXPECT_GE(live.size, 0);
        EXPECT_LE(live.size, 32);
        const MvaCacheStats window = cache.ResetStats();
        EXPECT_GE(window.hits, 0);
        EXPECT_GE(window.misses, 0);
      }
    });
    for (std::thread& m : mutators) m.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();
  }
}

}  // namespace
}  // namespace mrperf
