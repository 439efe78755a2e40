#include "engine/sweep_runner.h"

#include <chrono>
#include <exception>
#include <future>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/thread_annotations.h"
#include "model/model.h"
#include "queueing/mva_kernel.h"

namespace mrperf {
namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Submits the task `make_task(i)` for every i in [0, count) and returns
/// the results in index order. Every submitted task is joined before
/// this returns or rethrows: a Submit that throws (the pool shut down
/// mid-fan-out) or a task that throws is rethrown only once the others
/// have finished, so no task outlives the caller's frame unobserved.
template <typename MakeTask>
auto SubmitEachAndJoin(ThreadPool& pool, size_t count,
                       const MakeTask& make_task) {
  using R = std::invoke_result_t<decltype(make_task(size_t{0}))>;
  std::vector<std::future<R>> futures;
  futures.reserve(count);
  std::exception_ptr failure;
  try {
    for (size_t i = 0; i < count; ++i) {
      futures.push_back(pool.Submit(make_task(i)));
    }
  } catch (...) {
    failure = std::current_exception();
  }
  std::vector<R> results;
  results.reserve(futures.size());
  for (auto& f : futures) {
    try {
      results.push_back(f.get());
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
  return results;
}

/// `options` with num_threads resolved to the pool width: 0 (or less)
/// selects ThreadPool::DefaultThreadCount().
SweepOptions WithResolvedThreads(SweepOptions options) {
  if (options.num_threads <= 0) {
    options.num_threads = ThreadPool::DefaultThreadCount();
  }
  return options;
}

/// Evaluates one point, fanning its independent simulator repetitions
/// out to `pool` when allowed. The fanned path computes exactly the
/// values of RunExperiment's sequential loop (seed = base_seed +
/// rep·7919) and assembles them with the shared helper, so both paths
/// are byte-identical — the fan-out decision may therefore depend on
/// worker count (it is scheduling only).
Result<ExperimentResult> EvaluatePoint(ThreadPool& pool,
                                       const ExperimentPoint& point,
                                       const ExperimentOptions& options,
                                       bool fan_repetitions) {
  const int reps = options.repetitions;
  if (!fan_repetitions || reps <= 1) return RunExperiment(point, options);

  // Sub-tasks only touch the simulator side; strip the model options so
  // no cross-thread pointer (scratch, cache) leaks into the captured
  // copies.
  ExperimentOptions sim_options = options;
  sim_options.model = ModelOptions{};
  std::vector<std::optional<std::future<Result<double>>>> futures(
      static_cast<size_t>(reps));
  std::vector<std::optional<Result<double>>> inline_results(
      static_cast<size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    try {
      futures[rep] = pool.Submit([point, sim_options, rep]() {
        return RunSimulatedRepetition(point, sim_options, rep);
      });
    } catch (const std::runtime_error&) {
      // Pool shutting down mid-sweep: finish this repetition inline.
      inline_results[rep] = RunSimulatedRepetition(point, sim_options, rep);
    }
  }
  // The model solve overlaps with the in-flight repetitions.
  Result<ModelResult> model = RunModelPrediction(point, options);

  std::vector<double> rep_means;
  rep_means.reserve(static_cast<size_t>(reps));
  Status rep_error = Status::OK();
  for (int rep = 0; rep < reps; ++rep) {
    // Drain every future even after a failure so no sub-task outlives
    // this frame unobserved.
    Result<double> mean =
        futures[rep] ? futures[rep]->get() : *std::move(inline_results[rep]);
    if (!mean.ok()) {
      if (rep_error.ok()) rep_error = mean.status();
      continue;
    }
    rep_means.push_back(*mean);
  }
  // Error precedence matches the sequential path: the first failing
  // repetition (in rep order) wins over a model failure.
  if (!rep_error.ok()) return rep_error;
  if (!model.ok()) return model.status();
  return AssembleExperimentResult(point, *model, rep_means);
}

}  // namespace

/// Counts completed points and invokes the user callback under a mutex,
/// so observers see serialized, completion-ordered snapshots whatever
/// the worker count. Lives on the Run* frame: SubmitEachAndJoin joins
/// every task before that frame returns or unwinds.
class SweepRunner::ProgressReporter {
 public:
  ProgressReporter(std::function<void(const SweepProgress&)> callback,
                   size_t total, const SolveCache& cache)
      : callback_(std::move(callback)), total_(total), cache_(cache) {}

  /// No-op when no callback is configured.
  void PointDone() {
    if (!callback_) return;
    MutexLock lock(mu_);
    SweepProgress progress;
    progress.points_done = ++done_;
    progress.points_total = total_;
    progress.cache = cache_.stats();
    callback_(progress);
  }

 private:
  const std::function<void(const SweepProgress&)> callback_;
  const size_t total_;
  const SolveCache& cache_;
  Mutex mu_;
  size_t done_ GUARDED_BY(mu_) = 0;
};

bool SweepReport::all_ok() const {
  for (const auto& r : results) {
    if (!r.ok()) return false;
  }
  return true;
}

Status SweepReport::first_error() const {
  for (const auto& r : results) {
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

std::vector<ExperimentResult> SweepReport::values() const {
  std::vector<ExperimentResult> out;
  out.reserve(results.size());
  for (const auto& r : results) {
    if (r.ok()) out.push_back(*r);
  }
  return out;
}

uint64_t PointSeed(uint64_t base_seed, size_t point_index) {
  // SplitMix64 (Steele, Lea & Flood): full-avalanche mix of the master
  // seed and the point index. Fixed constants, no platform dependence.
  uint64_t z = base_seed + 0x9E3779B97F4A7C15ull *
                               (static_cast<uint64_t>(point_index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(WithResolvedThreads(std::move(options))),
      cache_(options_.num_threads, options_.cache_max_entries),
      pool_(options_.num_threads) {}

ExperimentOptions SweepRunner::PointOptions(size_t index) {
  ExperimentOptions opts = options_.experiment;
  if (options_.derive_point_seeds) {
    opts.base_seed = PointSeed(options_.experiment.base_seed, index);
  }
  opts.model.mva_cache = &cache_;
  return opts;
}

SweepReport SweepRunner::Run(const std::vector<ExperimentPoint>& points) {
  std::vector<Task> tasks;
  tasks.reserve(points.size());
  for (const ExperimentPoint& point : points) {
    Task task;
    task.point = point;
    task.options = options_.experiment;
    task.derive_seed = options_.derive_point_seeds;
    tasks.push_back(std::move(task));
  }
  return RunTasks(tasks);
}

SweepReport SweepRunner::Run(const SweepGrid& grid) {
  return Run(grid.Expand());
}

SweepReport SweepRunner::RunTasks(const std::vector<Task>& tasks) {
  const auto start = SteadyClock::now();
  const size_t n = tasks.size();
  ProgressReporter reporter(options_.progress, n, cache_);
  // Runs with fewer points than pool threads fan each point's simulator
  // repetitions out as sub-tasks: the threads no point occupies run
  // them, and results are byte-identical either way.
  const bool fan_repetitions =
      n < static_cast<size_t>(pool_.thread_count());

  SweepReport report;
  report.results = SubmitEachAndJoin(pool_, n, [&](size_t i) {
    const ExperimentPoint point = tasks[i].point;
    ExperimentOptions opts = tasks[i].options;
    if (tasks[i].derive_seed) {
      opts.base_seed = PointSeed(tasks[i].options.base_seed, i);
    }
    opts.model.mva_cache = &cache_;
    return [point, opts, fan_repetitions, &reporter, &pool = pool_]() mutable {
      // Resolved on the worker thread: each worker reuses one kernel
      // scratch across every point it evaluates (and across sweeps).
      opts.model.mva_scratch = &ThreadLocalMvaScratch();
      Result<ExperimentResult> result =
          EvaluatePoint(pool, point, opts, fan_repetitions);
      reporter.PointDone();
      return result;
    };
  });
  report.wall_seconds = SecondsSince(start);
  report.threads_used = pool_.thread_count();
  report.cache_stats = cache_.stats();
  return report;
}

std::vector<Result<ModelResult>> SweepRunner::RunModels(
    const std::vector<ExperimentPoint>& points) {
  ProgressReporter reporter(options_.progress, points.size(), cache_);
  return SubmitEachAndJoin(pool_, points.size(), [&](size_t i) {
    const ExperimentPoint point = points[i];
    ExperimentOptions opts = PointOptions(i);
    return [point, opts, &reporter]() mutable {
      opts.model.mva_scratch = &ThreadLocalMvaScratch();
      Result<ModelResult> result = RunModelPrediction(point, opts);
      reporter.PointDone();
      return result;
    };
  });
}

}  // namespace mrperf
