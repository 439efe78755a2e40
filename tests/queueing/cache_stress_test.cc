/// TSan-targeted stress test for the solve-cache concurrency contract,
/// at 1 shard and at several: stats()/ResetStats() snapshots staying
/// internally consistent while every shard is being mutated. The test
/// asserts functional outcomes, but its main job is to give
/// ThreadSanitizer (cmake --preset tsan) real interleavings to chew on.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "queueing/solve_cache.h"

namespace mrperf {
namespace {

/// Synthetic (key, solution) pair; distinct per index.
std::string KeyFor(int i) { return "stress-key-" + std::to_string(i); }

OverlapMvaSolution SolutionFor(int i) {
  OverlapMvaSolution solution;
  solution.residence = {{1.0 * i, 2.0 * i}};
  solution.response = {3.0 * i};
  solution.iterations = i;
  return solution;
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
