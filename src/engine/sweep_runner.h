/// \file sweep_runner.h
/// \brief Parallel evaluator for experiment grids.
///
/// Fans ExperimentPoint evaluations (simulator repetitions + analytic
/// model solves, experiments/experiment.h) out across a ThreadPool.
/// Run/RunTasks/RunModels submit one pool task per point, in index
/// order; the FIFO pool starts points in that order and idle workers
/// take the next one, so heterogeneous point costs rebalance on their
/// own. Two properties make the fan-out safe to reason about:
///
///  1. **Determinism.** Every point derives its simulator seed purely
///     from (base_seed, point index) via a SplitMix64-style mix, and
///     point evaluation shares no mutable state except the MVA cache —
///     whose hits are bit-identical to recomputation. A sweep therefore
///     produces byte-identical results at any worker count.
///  2. **Memoized solves.** One SolveCache is threaded through every
///     model solve of the sweep, so structurally identical overlap-MVA
///     fixed points (period-2 cycles, repeated calibration points,
///     symmetric concurrent jobs) are computed once. Only pool workers
///     solve through it, so its lock shards follow the pool width. Each
///     worker also reuses a thread-local kernel scratch (mva_kernel.h)
///     across all points it evaluates, so sweeps stop reallocating
///     solver buffers per point.
///
/// When a run has fewer points than pool threads and points run
/// several simulator repetitions, the otherwise-idle threads evaluate a
/// point's independent repetitions as sub-tasks
/// (RunSimulatedRepetition); the assembled result is byte-identical to
/// the sequential evaluation by construction.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "engine/sweep_grid.h"
#include "engine/thread_pool.h"
#include "experiments/experiment.h"
#include "queueing/solve_cache.h"

namespace mrperf {

/// \brief Snapshot handed to SweepOptions::progress after each point.
struct SweepProgress {
  /// Points completed so far (successful or failed), 1-based by the
  /// time of the first call.
  size_t points_done = 0;
  size_t points_total = 0;
  /// Shared MVA-cache counters at this moment.
  MvaCacheStats cache;
};

/// \brief Sweep-wide configuration.
struct SweepOptions {
  /// Worker threads; 0 selects ThreadPool::DefaultThreadCount().
  int num_threads = 0;
  /// Per-point evaluation configuration. `experiment.base_seed` is the
  /// sweep master seed: point i runs with PointSeed(base_seed, i).
  ExperimentOptions experiment;
  /// When false, every point runs with `experiment.base_seed` verbatim
  /// instead of the hashed per-point stream. The figure-reproduction
  /// benches pin the calibrated seed this way: the simulated medians of
  /// §5 are seed-sensitive (±20% across streams at 5 repetitions), and
  /// the paper's calibration was fit against one measurement stream.
  /// Either setting is deterministic and thread-count independent.
  bool derive_point_seeds = true;
  /// Resident-entry cap of the solve cache shared by every point. Its
  /// lock shards follow the pool: the thread count rounded up to a
  /// power of two (see SolveCache).
  int64_t cache_max_entries = 4096;
  /// Optional progress observer, invoked once per completed point of
  /// Run/RunTasks/RunModels with (points done, total, cache stats).
  /// Calls come from worker threads but are serialized (never
  /// concurrent) and completion-ordered: points_done is 1, 2, …, total.
  /// Keep the callback cheap — it runs inside the fan-out.
  std::function<void(const SweepProgress&)> progress;
};

/// \brief Outcome of one sweep; results are in point order.
struct SweepReport {
  std::vector<Result<ExperimentResult>> results;
  /// Wall-clock of the fan-out (submission to last completion).
  double wall_seconds = 0.0;
  int threads_used = 0;
  MvaCacheStats cache_stats;

  bool all_ok() const;
  /// Status of the first failed point, or OK.
  Status first_error() const;
  /// The successful results, in point order (failed points dropped).
  std::vector<ExperimentResult> values() const;
};

/// \brief Deterministic per-point seed: SplitMix64 mix of (seed, index).
///
/// Distinct indices get decorrelated simulator seed streams, and the
/// mapping is independent of evaluation order and worker count.
uint64_t PointSeed(uint64_t base_seed, size_t point_index);

/// \brief Runs experiment grids on a worker pool.
///
/// The pool and MVA cache persist across Run() calls, so successive
/// sweeps of one runner keep amortizing warm cache entries. A runner is
/// externally synchronized: call Run from one thread at a time.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = SweepOptions{});

  /// Evaluates every point (simulator + model) in parallel.
  SweepReport Run(const std::vector<ExperimentPoint>& points);
  SweepReport Run(const SweepGrid& grid);

  /// One fully specified unit of sweep work: a grid point plus the
  /// options to evaluate it under (workload profile, calibration knobs,
  /// repetitions, ...). Used by sweeps whose axes are not
  /// ExperimentPoint fields — e.g. the workload-taxonomy and
  /// calibration sweeps.
  struct Task {
    ExperimentPoint point;
    ExperimentOptions options;
    /// When true (default), `options.base_seed` is re-derived as
    /// PointSeed(base_seed, index) so every task gets a decorrelated
    /// stream. Set false to pin the seed — e.g. calibration sweeps that
    /// must hold simulator noise fixed while model knobs vary.
    bool derive_seed = true;
  };

  /// Evaluates heterogeneous tasks in parallel. Each task's options are
  /// taken as given except for the per-task seed derivation (see Task)
  /// and the shared MVA cache — the same determinism guarantee as
  /// Run() either way.
  SweepReport RunTasks(const std::vector<Task>& tasks);

  /// Model-only fan-out (capacity planning: no simulator repetitions).
  /// Results are in point order; the shared MVA cache still applies.
  std::vector<Result<ModelResult>> RunModels(
      const std::vector<ExperimentPoint>& points);

  int thread_count() const { return pool_.thread_count(); }
  MvaCacheStats cache_stats() const { return cache_.stats(); }

  /// Atomically snapshots and resets the shared cache's counters
  /// (entries stay resident) so a long-lived consumer — the serving
  /// layer — can report per-window hit rates. See
  /// SolveCache::ResetStats.
  MvaCacheStats ResetCacheStats() { return cache_.ResetStats(); }

  /// The shared solve cache: one lock shard per pool thread (rounded up
  /// to a power of two), SweepOptions::cache_max_entries in total. The
  /// serving layer reads its shard count for /stats.
  const SolveCache& cache() const { return cache_; }

  /// Shuts the worker pool down: queued evaluations drain, then any
  /// later Run*/RunTasks throws std::runtime_error from the pool's
  /// Submit. The serving layer uses this for fast teardown and converts
  /// that exception into clean `shutting_down` rejections; batch code
  /// normally just lets the destructor do it.
  void Shutdown() { pool_.Shutdown(); }

 private:
  /// Experiment options for model-only point i: per-point seed +
  /// shared cache (Run/RunTasks wire these per task instead).
  ExperimentOptions PointOptions(size_t index);

  /// Serialized bookkeeping for SweepOptions::progress; one per Run*
  /// invocation (runners are externally synchronized).
  class ProgressReporter;

  /// `num_threads` is resolved to the pool width at construction.
  SweepOptions options_;
  /// Declared before the pool, so the pool drains its queued
  /// evaluations before the cache they solve through is destroyed.
  SolveCache cache_;
  ThreadPool pool_;
};

}  // namespace mrperf
