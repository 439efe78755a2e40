/// \file solve_cache.h
/// \brief The solve cache every consumer of the solver stack (model,
/// sweep engine, serving layer) shares: an exact memo of grouped
/// overlap-MVA fixed points.
///
/// The modified-MVA loop (model.cc, activity A4) and sweep workloads
/// solve many structurally identical overlap-MVA fixed points: a
/// period-2 placement cycle alternates between two exact problems,
/// calibration sweeps re-solve the same model points under unchanged
/// model knobs, and concurrent jobs with symmetric placement produce
/// duplicate networks. Since the grouped solve is a pure function of
/// (problem, options), keys are the exact packed bytes of that pair, so
/// a hit is bit-identical to recomputation. That invariant is what
/// makes every operation here — sharding, eviction — unable to perturb
/// any result: the worst a cache can do is recompute.
///
/// **Shards.** Entries live in N independently locked LRU shards
/// selected by key hash, so concurrent solves of different keys do not
/// contend on one lock. A SweepRunner sizes N from its worker pool —
/// the only threads that solve through the cache — and one shard is a
/// single mutex-protected LRU.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "queueing/mva_overlap.h"

namespace mrperf {

/// \brief Cache counter snapshot.
///
/// `hits/misses/insertions/evictions` are window counters (ResetStats
/// restarts them); `size` and the solver-effort counters below always
/// reflect cumulative-since-construction state, like a gauge.
struct MvaCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  /// Least-recently-used entries displaced to make room.
  int64_t evictions = 0;
  /// Entries currently resident.
  int64_t size = 0;

  /// Fixed-point solves SolveThrough actually executed (one per
  /// successful miss — hits run zero iterations and are not counted)
  /// and the cumulative damped sweeps they performed. Cumulative gauges;
  /// the denominator behind every "iterations saved by caching" number.
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
  /// Damped sweeps the call actually ran (0 on hits).
  int iterations = 0;
};

/// \brief Bounded, thread-safe solution cache keyed on the full problem
/// (see file comment).
///
/// When a shard reaches its cap the least-recently-used entry is
/// evicted (a Lookup hit refreshes recency), so long sweeps whose
/// working set exceeds the cap keep hitting on their recent problems —
/// the repeated fixed points of a point appear close together in time —
/// instead of freezing the cache at whatever happened to be solved
/// first.
///
/// All methods are safe to call concurrently.
class SolveCache {
 public:
  /// \param shards lock shards, rounded up to a power of two and capped
  ///   at the largest power of two <= `max_entries`, so every shard
  ///   holds at least one entry.
  /// \param max_entries total resident-entry cap (clamped to >= 1). The
  ///   shard caps add up to exactly this: each shard gets
  ///   max_entries / N entries and the first max_entries % N shards one
  ///   more.
  explicit SolveCache(int shards = 1, int64_t max_entries = 4096);

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Serializes the problem + options into an exact lookup key: the
  /// solver options, centers, per-class (count, demand) and the G×G θ
  /// blocks. `task_group` is excluded, since it only orders the
  /// expansion of the shared group-level solution.
  static std::string MakeKey(const GroupedOverlapMvaProblem& problem,
                             const OverlapMvaOptions& options);

  /// Returns the cached solution for `key`, if present, marking the
  /// entry most-recently used.
  std::optional<OverlapMvaSolution> Lookup(const std::string& key);

  /// Stores `solution` under `key`, evicting the shard's
  /// least-recently-used entry when it is full (no-op when the key is
  /// already present).
  void Insert(const std::string& key, const OverlapMvaSolution& solution);

  /// Counter snapshot: the sum of the per-shard snapshots plus the
  /// solver-effort counters. Each shard is read in one critical section, so
  /// `size == insertions - evictions` holds for every snapshot (and for
  /// the sum, because each shard's triple is internally consistent
  /// whatever moment it was read at).
  MvaCacheStats stats() const;

  /// Snapshots and resets the window counters (hits, misses,
  /// insertions, evictions) while leaving every entry resident and the
  /// gauge fields (`size`, solver effort) untouched, returning the
  /// closed window. Per shard the snapshot-and-reset is atomic, so
  /// every concurrent lookup lands in exactly one window — none lost,
  /// none double-counted.
  MvaCacheStats ResetStats();

  /// Number of independently locked shards.
  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Window counters and size of shard `index` alone
  /// (0 <= index < shard_count()); stats() is their sum plus the
  /// solver-effort counters. Shows how keys spread over the shards.
  MvaCacheStats shard_stats(int index) const;

  /// Convenience wrapper: lookup, else solve and insert. The entry is
  /// the group-level solution (one row per class), expanded through
  /// `problem.task_group` on every call. Forwards solver errors
  /// unchanged; errors are never cached. `scratch` (optional,
  /// per-thread) is handed to the solver on a miss. Validates the
  /// problem ONCE at entry (unless options.assume_valid) — hits and the
  /// miss solve never re-validate. `info` (optional) receives the
  /// iterations the call executed.
  ///
  /// **Cold solves only.** A call with options.initial_residence set
  /// returns InvalidArgument before any lookup. A seeded solve reaches
  /// the fixed point only within solver tolerance, along a trajectory
  /// its seed determines; caching it would let whichever worker
  /// inserted first decide the bits every later lookup sees. Rejecting
  /// seeds keeps the memo invariant: a hit is bit-identical to a cold
  /// recomputation, always.
  Result<OverlapMvaSolution> SolveThrough(
      const GroupedOverlapMvaProblem& problem,
      const OverlapMvaOptions& options, MvaKernelScratch* scratch = nullptr,
      SolveThroughInfo* info = nullptr);

 private:
  /// One independently locked LRU map.
  struct Shard {
    struct Entry {
      OverlapMvaSolution solution;
      /// Position in `lru` (front == most recent).
      std::list<std::string>::iterator recency;
    };

    mutable Mutex mu;
    std::unordered_map<std::string, Entry> entries GUARDED_BY(mu);
    /// Keys ordered by recency of use; the back is the eviction victim.
    std::list<std::string> lru GUARDED_BY(mu);
    /// Window counters only; `size` is read from `entries`.
    MvaCacheStats window GUARDED_BY(mu);
    /// Resident-entry cap, fixed at construction.
    int64_t max_entries = 1;
  };

  Shard& ShardFor(const std::string& key);

  /// The solver-effort counters (their window fields stay zero).
  MvaCacheStats Effort() const;

  /// Folds one executed fixed-point solve into the solver-effort gauges.
  void RecordSolve(int iterations);

  /// Sized once at construction (a power of two); never resized.
  std::vector<Shard> shards_;

  mutable Mutex effort_mu_;
  MvaCacheStats effort_ GUARDED_BY(effort_mu_);
};

/// \brief Heap-allocated `SolveCache(shards, max_entries)`.
std::unique_ptr<SolveCache> MakeSolveCache(int shards, int64_t max_entries);

}  // namespace mrperf
