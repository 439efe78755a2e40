/// \file solve_cache.h
/// \brief The caching API of the solver stack: an abstract `SolveCache`
/// interface every consumer (model, sweep engine, serving layer) codes
/// against, plus the shared solve-through and checkpoint/recover logic
/// that is identical for every implementation.
///
/// Two implementations exist:
///
///  - `MvaSolveCache` (mva_cache.h) — one mutex-protected LRU. The
///    right choice for batch sweeps with a handful of workers.
///  - `ShardedSolveCache` (sharded_solve_cache.h) — N independently
///    locked shards selected by key hash, for serving-scale concurrency
///    where every connection and worker would otherwise contend on one
///    lock.
///
/// The cache is a pure memo: keys are the exact packed bytes of the
/// (problem, options) pair, so a hit is bit-identical to recomputation.
/// That invariant is what makes every operation here — sharding,
/// eviction, checkpointing a cache to disk and recovering it in another
/// process — unable to perturb any result: the worst a cache can do is
/// recompute.
///
/// **Checkpoint / recover.** `Checkpoint(path)` serializes the resident
/// (key, class-granularity solution) entries to a length-prefixed,
/// CRC-guarded, versioned binary file (cache_checkpoint.h);
/// `Recover(path)` replays such a file through `Insert`, so a restarted
/// server starts warm. Entries are written least-recently-used first,
/// which makes a recover into a smaller cache evict exactly the oldest
/// entries. Corrupt, truncated or version-mismatched files are reported
/// as an error Status — callers log and continue cold, never crash.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/thread_annotations.h"
#include "queueing/mva_overlap.h"

namespace mrperf {

/// \brief Cache counter snapshot.
///
/// `hits/misses/insertions/evictions` are window counters (ResetStats
/// restarts them); `size` and the lifecycle counters below always
/// reflect cumulative-since-construction state, like a gauge.
struct MvaCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  /// Least-recently-used entries displaced to make room.
  int64_t evictions = 0;
  /// Entries currently resident.
  int64_t size = 0;

  /// Checkpoint files written / entries serialized across them.
  int64_t checkpoints = 0;
  int64_t checkpoint_entries = 0;
  /// Successful Recover() replays / entries restored across them.
  int64_t recoveries = 0;
  int64_t recovered_entries = 0;
  /// Fixed-point solves SolveThrough actually executed (one per
  /// successful miss — hits run zero iterations and are not counted)
  /// and the cumulative damped sweeps they performed. Lifecycle gauges
  /// like the counters above; the denominator behind every "iterations
  /// saved by caching" number.
  int64_t solves = 0;
  int64_t solve_iterations = 0;

  int64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const int64_t n = lookups();
    return n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

/// \brief Per-call outcome of SolveCache::SolveThrough, for callers that
/// aggregate solver effort (the model outer loop, benches).
struct SolveThroughInfo {
  /// Served from the cache (zero fixed-point iterations executed).
  bool hit = false;
  /// Damped sweeps the call actually ran (0 on hits).
  int iterations = 0;
};

/// \brief Abstract solve cache (see file comment).
///
/// Implementations provide the storage primitives (`Lookup`, `Insert`,
/// `stats`, ...); the base class owns everything that must behave
/// identically across implementations — key construction, the
/// solve-through protocol (validate once, lookup, solve, insert,
/// grouped expansion) and the checkpoint/recover lifecycle — so a
/// caller holding a `SolveCache&` cannot observe which implementation
/// is behind it except through timing and `shard_count()`.
///
/// All methods are safe to call concurrently.
class SolveCache {
 public:
  virtual ~SolveCache() = default;

  /// Serializes the problem + options into an exact lookup key.
  static std::string MakeKey(const OverlapMvaProblem& problem,
                             const OverlapMvaOptions& options);

  /// Compressed key for a grouped problem: centers, per-class
  /// (count, demand) and the G×G θ blocks — `task_group` is excluded,
  /// since it only orders the expansion of the shared group-level
  /// solution. Tagged so grouped keys can never collide with per-task
  /// keys (their cached solutions have different shapes).
  static std::string MakeKey(const GroupedOverlapMvaProblem& problem,
                             const OverlapMvaOptions& options);

  /// Returns the cached solution for `key`, if present, marking the
  /// entry most-recently used.
  virtual std::optional<OverlapMvaSolution> Lookup(
      const std::string& key) = 0;

  /// Stores `solution` under `key`, evicting the least-recently-used
  /// entry when full (no-op when the key is already present).
  virtual void Insert(const std::string& key,
                      const OverlapMvaSolution& solution) = 0;

  /// Counter snapshot. Per shard, the snapshot is taken in one critical
  /// section, so within a shard the counters are mutually consistent —
  /// in particular `size == insertions - evictions` holds for every
  /// snapshot (and for the aggregate, because each shard's triple is
  /// internally consistent whatever moment it was read at).
  virtual MvaCacheStats stats() const = 0;

  /// Snapshots and resets the window counters (hits, misses,
  /// insertions, evictions) while leaving every entry resident and the
  /// gauge fields (`size`, lifecycle counters) untouched, returning the
  /// closed window. Per shard the snapshot-and-reset is atomic, so
  /// every concurrent lookup lands in exactly one window — none lost,
  /// none double-counted.
  virtual MvaCacheStats ResetStats() = 0;

  /// Drops all entries and resets the window counters.
  virtual void Clear() = 0;

  /// Number of independently locked shards (1 for the single-mutex
  /// implementation).
  virtual int shard_count() const = 0;

  /// Total resident-entry cap across all shards.
  virtual int64_t max_entries() const = 0;

  /// Enumerates resident entries under the shard lock(s),
  /// least-recently-used first within each shard — the order the
  /// checkpoint codec persists, so a capacity-limited recover evicts
  /// oldest-first. The callback must not reenter the cache.
  virtual void ForEachEntry(
      const std::function<void(const std::string& key,
                               const OverlapMvaSolution& solution)>& fn)
      const = 0;

  /// Convenience wrapper: lookup, else solve and insert. Forwards solver
  /// errors unchanged; errors are never cached. `scratch` (optional,
  /// per-thread) is handed to the solver on a miss. Validates the
  /// problem ONCE at entry (unless options.assume_valid) — hits and the
  /// miss solve never re-validate. `info` (optional) receives the
  /// per-call outcome (hit / iterations executed).
  ///
  /// **Cold solves only.** A call with options.initial_residence set
  /// returns InvalidArgument before any lookup. A seeded solve reaches
  /// the fixed point only within solver tolerance, along a trajectory
  /// its seed determines; caching it would let whichever worker
  /// inserted first decide the bits every later lookup sees. Rejecting
  /// seeds keeps the memo invariant: a hit is bit-identical to a cold
  /// recomputation, always.
  Result<OverlapMvaSolution> SolveThrough(const OverlapMvaProblem& problem,
                                          const OverlapMvaOptions& options,
                                          MvaKernelScratch* scratch = nullptr,
                                          SolveThroughInfo* info = nullptr);

  /// Grouped SolveThrough: stores/reuses the group-level solution under
  /// the compressed key and expands it through `problem.task_group` per
  /// call. When options.kernel resolves to a per-task reference path,
  /// delegates to the dense SolveThrough on the expanded problem.
  /// Seeded calls are rejected exactly as above.
  Result<OverlapMvaSolution> SolveThrough(
      const GroupedOverlapMvaProblem& problem,
      const OverlapMvaOptions& options, MvaKernelScratch* scratch = nullptr,
      SolveThroughInfo* info = nullptr);

  /// Serializes the resident entries to `path` (written atomically:
  /// temp file + rename, so a crash mid-checkpoint never corrupts an
  /// existing checkpoint). Entries inserted concurrently with the
  /// export may or may not be included; every included entry is a
  /// consistent (key, solution) pair.
  Status Checkpoint(const std::string& path);

  /// Replays a checkpoint file through Insert, warming this cache.
  /// Existing entries keep priority (duplicate keys are no-ops); when
  /// the file holds more entries than `max_entries()`, the
  /// least-recently-used entries of the checkpoint are the ones
  /// dropped. Errors (missing, truncated, CRC-mismatched or
  /// version-mismatched files) leave the cache in its pre-call state
  /// semantically: whatever was replayed is still just a memo. Callers
  /// should log the error and continue cold.
  Status Recover(const std::string& path);

 private:
  /// Lifecycle counters live here so every implementation reports them
  /// identically; implementations fold them in via
  /// AddLifecycleCounters.
  mutable Mutex lifecycle_mu_;
  int64_t checkpoints_ GUARDED_BY(lifecycle_mu_) = 0;
  int64_t checkpoint_entries_ GUARDED_BY(lifecycle_mu_) = 0;
  int64_t recoveries_ GUARDED_BY(lifecycle_mu_) = 0;
  int64_t recovered_entries_ GUARDED_BY(lifecycle_mu_) = 0;
  int64_t solves_ GUARDED_BY(lifecycle_mu_) = 0;
  int64_t solve_iterations_ GUARDED_BY(lifecycle_mu_) = 0;

  /// Folds one executed fixed-point solve into the lifecycle gauges.
  void RecordSolve(int iterations);

 protected:
  /// Adds the checkpoint/recover counters into `stats` (implementations
  /// call this from stats()/ResetStats()).
  void AddLifecycleCounters(MvaCacheStats* stats) const;
};

/// \brief Builds a cache: `shards <= 1` selects the single-mutex
/// `MvaSolveCache`, larger values a `ShardedSolveCache` with the count
/// rounded up to the next power of two. `max_entries` is the total cap
/// across shards.
std::unique_ptr<SolveCache> MakeSolveCache(int shards, int64_t max_entries);

}  // namespace mrperf
