/// \file sharded_solve_cache.h
/// \brief The sharded SolveCache implementation for serving-scale
/// concurrency.
///
/// MvaSolveCache funnels every lookup through one mutex. That is fine
/// for a batch sweep with a handful of workers, but predictd fans many
/// connections into a worker pool whose every solve does a Lookup and
/// often an Insert — at 8+ threads the single lock becomes the
/// bottleneck (bench_serve_load's contention column measures this
/// directly). ShardedSolveCache splits the key space across N
/// independently locked MvaSolveCache shards selected by key hash, so
/// concurrent lookups for different keys proceed in parallel and only
/// same-shard traffic serializes.
///
/// Sharding is invisible to correctness: a key always maps to the same
/// shard, each shard is itself a correct exact-byte-keyed cache, and a
/// hit returns the exact bytes that were inserted — so results are
/// bit-identical to the single-mutex cache (and to recomputation) at
/// any shard count. Only eviction timing differs: the total cap is
/// split evenly across shards, so a pathological key distribution can
/// evict earlier than a global LRU would. Caches are memos; the cost of
/// an early eviction is a recompute, never a wrong answer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "queueing/mva_cache.h"

namespace mrperf {

/// \brief SolveCache over N independently locked LRU shards.
///
/// All methods are safe to call concurrently. Aggregate `stats()` sums
/// per-shard snapshots, each taken in one critical section; the
/// aggregate preserves `size == insertions - evictions` because every
/// shard's triple is internally consistent whatever moment it was read
/// at. `ResetStats()` folds shard windows sequentially; each shard's
/// snapshot-and-reset is atomic, so every concurrent lookup lands in
/// exactly one window.
class ShardedSolveCache : public SolveCache {
 public:
  /// \param shards shard count; rounded up to the next power of two
  ///   (minimum 2 — use MvaSolveCache for a single shard).
  /// \param max_entries total resident-entry cap, split evenly across
  ///   shards (each shard caps at max(1, max_entries / shards)).
  explicit ShardedSolveCache(int shards, int64_t max_entries = 4096);

  std::optional<OverlapMvaSolution> Lookup(const std::string& key) override;
  void Insert(const std::string& key,
              const OverlapMvaSolution& solution) override;

  MvaCacheStats stats() const override;
  MvaCacheStats ResetStats() override;
  void Clear() override;

  int shard_count() const override {
    return static_cast<int>(shards_.size());
  }
  int64_t max_entries() const override { return max_entries_; }

  /// Counters of shard `index` alone (0 <= index < shard_count());
  /// stats() is their sum. Shows how keys spread over the shards.
  MvaCacheStats shard_stats(int index) const {
    return shards_.at(static_cast<size_t>(index))->stats();
  }

  /// Enumerates shard 0's entries LRU-first, then shard 1's, ... —
  /// within each shard the order the checkpoint codec expects.
  void ForEachEntry(
      const std::function<void(const std::string& key,
                               const OverlapMvaSolution& solution)>& fn)
      const override;

 private:
  MvaSolveCache& ShardFor(const std::string& key);

  std::vector<std::unique_ptr<MvaSolveCache>> shards_;
  /// shard index = mixed hash & mask_ (shard count is a power of two).
  uint64_t mask_;
  int64_t max_entries_;
};

}  // namespace mrperf
