#include "engine/sweep_runner.h"

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "engine/sweep_csv.h"

namespace mrperf {
namespace {

/// Small, fast grid: 4 points, one simulator repetition each.
SweepOptions FastSweepOptions(int threads) {
  SweepOptions opts;
  opts.num_threads = threads;
  opts.experiment = DefaultExperimentOptions();
  opts.experiment.repetitions = 1;
  return opts;
}

SweepGrid SmallGrid() {
  SweepGrid grid;
  grid.Nodes({2, 3}).InputGigabytes({0.25}).Jobs({1, 2});
  return grid;
}

std::string SweepCsv(const SweepOptions& opts, const SweepGrid& grid) {
  SweepRunner runner(opts);
  SweepReport report = runner.Run(grid);
  EXPECT_TRUE(report.all_ok()) << report.first_error().ToString();
  return FormatSweepCsv(report.values());
}

TEST(PointSeedTest, DeterministicAndDecorrelated) {
  EXPECT_EQ(PointSeed(1234, 0), PointSeed(1234, 0));
  std::set<uint64_t> seeds;
  for (size_t i = 0; i < 1000; ++i) {
    seeds.insert(PointSeed(1234, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions on a realistic sweep
  EXPECT_NE(PointSeed(1234, 0), PointSeed(1235, 0));
}

TEST(SweepRunnerTest, ResultsArriveInPointOrder) {
  SweepRunner runner(FastSweepOptions(2));
  const auto points = SmallGrid().Expand();
  SweepReport report = runner.Run(points);
  ASSERT_EQ(report.results.size(), points.size());
  ASSERT_TRUE(report.all_ok());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(report.results[i]->point, points[i]) << "index " << i;
  }
  EXPECT_EQ(report.threads_used, 2);
  EXPECT_GE(report.wall_seconds, 0.0);
}

TEST(SweepRunnerTest, IdenticalResultsAtOneFourAndEightThreads) {
  // The engine's core guarantee: worker count never changes results.
  std::vector<SweepReport> reports;
  for (int threads : {1, 4, 8}) {
    SweepRunner runner(FastSweepOptions(threads));
    reports.push_back(runner.Run(SmallGrid()));
    ASSERT_TRUE(reports.back().all_ok());
  }
  for (size_t t = 1; t < reports.size(); ++t) {
    ASSERT_EQ(reports[t].results.size(), reports[0].results.size());
    for (size_t i = 0; i < reports[0].results.size(); ++i) {
      const ExperimentResult& a = *reports[0].results[i];
      const ExperimentResult& b = *reports[t].results[i];
      // Bitwise equality, not tolerance: same seeds, same solves.
      EXPECT_EQ(a.measured_sec, b.measured_sec) << "point " << i;
      EXPECT_EQ(a.forkjoin_sec, b.forkjoin_sec) << "point " << i;
      EXPECT_EQ(a.tripathi_sec, b.tripathi_sec) << "point " << i;
      EXPECT_EQ(a.forkjoin_error, b.forkjoin_error) << "point " << i;
      EXPECT_EQ(a.tripathi_error, b.tripathi_error) << "point " << i;
    }
  }
}

TEST(SweepRunnerTest, UniformClusterShapeScenarioReproducesSeedSeries) {
  // Acceptance gate for the scenario axes: a grid that pins the scenario
  // axes to the paper baseline — uniform shape, capacity scheduler,
  // "wordcount" — must reproduce the pre-scenario grid's series
  // byte-identically (this is the same grid family as fig10-15, shrunk
  // to stay fast).
  SweepGrid seed_grid = SmallGrid();
  SweepGrid scenario_grid = SmallGrid();
  scenario_grid.Schedulers({SchedulerKind::kCapacityFifo})
      .Profiles({"wordcount"})
      .ClusterShapes({{}});

  SweepOptions opts = FastSweepOptions(4);
  opts.derive_point_seeds = false;  // the figure benches' configuration
  SweepRunner seed_runner(opts);
  SweepRunner scenario_runner(opts);
  const SweepReport a = seed_runner.Run(seed_grid);
  const SweepReport b = scenario_runner.Run(scenario_grid);
  ASSERT_TRUE(a.all_ok());
  ASSERT_TRUE(b.all_ok());
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i]->measured_sec, b.results[i]->measured_sec);
    EXPECT_EQ(a.results[i]->forkjoin_sec, b.results[i]->forkjoin_sec);
    EXPECT_EQ(a.results[i]->tripathi_sec, b.results[i]->tripathi_sec);
    EXPECT_EQ(a.results[i]->forkjoin_error, b.results[i]->forkjoin_error);
    EXPECT_EQ(a.results[i]->tripathi_error, b.results[i]->tripathi_error);
  }
}

TEST(SweepRunnerTest, ScenarioGridIsThreadCountInvariant) {
  // The determinism guarantee extends to the scenario axes: a scheduler
  // x profile x cluster-shape grid is byte-identical at any worker
  // count.
  SweepGrid grid;
  grid.Schedulers(
          {SchedulerKind::kCapacityFifo, SchedulerKind::kTetrisPacking})
      .Profiles({"grep"})
      .ClusterShapes({{},
                      {ClusterNodeGroup{1, Resource{64 * kGiB, 12}},
                       ClusterNodeGroup{1, Resource{16 * kGiB, 4}}}})
      .Nodes({2})
      .InputGigabytes({0.25});
  std::vector<SweepReport> reports;
  for (int threads : {1, 4}) {
    SweepRunner runner(FastSweepOptions(threads));
    reports.push_back(runner.Run(grid));
    ASSERT_TRUE(reports.back().all_ok())
        << reports.back().first_error().ToString();
  }
  ASSERT_EQ(reports[0].results.size(), 4u);
  for (size_t i = 0; i < reports[0].results.size(); ++i) {
    const ExperimentResult& a = *reports[0].results[i];
    const ExperimentResult& b = *reports[1].results[i];
    EXPECT_EQ(a.measured_sec, b.measured_sec) << "point " << i;
    EXPECT_EQ(a.forkjoin_sec, b.forkjoin_sec) << "point " << i;
    EXPECT_EQ(a.tripathi_sec, b.tripathi_sec) << "point " << i;
  }
}

TEST(SweepRunnerTest, CacheDoesNotChangeResults) {
  // The runner solves through its shared cache; plain RunModelPrediction
  // calls with no cache are the oracle.
  const SweepOptions options = FastSweepOptions(2);
  SweepRunner runner(options);
  const auto points = SmallGrid().Expand();
  SweepReport report = runner.Run(points);
  ASSERT_TRUE(report.all_ok());
  for (size_t i = 0; i < points.size(); ++i) {
    Result<ModelResult> uncached =
        RunModelPrediction(points[i], options.experiment);
    ASSERT_TRUE(uncached.ok());
    EXPECT_EQ(report.results[i]->forkjoin_sec, uncached->forkjoin_response);
    EXPECT_EQ(report.results[i]->tripathi_sec, uncached->tripathi_response);
  }
  EXPECT_GT(report.cache_stats.lookups(), 0);
}

TEST(SweepRunnerTest, CacheShardsFollowThreadCount) {
  // Only pool workers solve through the cache, so a runner gives it one
  // lock shard per thread, rounded up to a power of two.
  EXPECT_EQ(SweepRunner(FastSweepOptions(1)).cache().shard_count(), 1);
  EXPECT_EQ(SweepRunner(FastSweepOptions(3)).cache().shard_count(), 4);
  EXPECT_EQ(SweepRunner(FastSweepOptions(8)).cache().shard_count(), 8);
}

TEST(SweepRunnerTest, PerPointSeedsDecorrelateMeasurements) {
  // Two grid points identical in every axis: with derived seeds their
  // simulated medians must come from different streams.
  SweepGrid grid;
  grid.Nodes({2, 2}).InputGigabytes({0.25});
  SweepRunner runner(FastSweepOptions(1));
  SweepReport report = runner.Run(grid);
  ASSERT_TRUE(report.all_ok());
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_NE(report.results[0]->measured_sec,
            report.results[1]->measured_sec);
  // The model side sees identical inputs and must agree exactly.
  EXPECT_EQ(report.results[0]->forkjoin_sec,
            report.results[1]->forkjoin_sec);
}

TEST(SweepRunnerTest, PinnedSeedsReproduceSerialBehavior) {
  SweepOptions opts = FastSweepOptions(2);
  opts.derive_point_seeds = false;
  SweepRunner runner(opts);
  SweepGrid grid;
  grid.Nodes({2, 2}).InputGigabytes({0.25});
  SweepReport report = runner.Run(grid);
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.results[0]->measured_sec,
            report.results[1]->measured_sec);
}

TEST(SweepRunnerTest, InvalidPointsFailWithoutPoisoningTheSweep) {
  SweepRunner runner(FastSweepOptions(2));
  std::vector<ExperimentPoint> points = SmallGrid().Expand();
  points[1].num_nodes = 0;  // invalid
  SweepReport report = runner.Run(points);
  ASSERT_EQ(report.results.size(), points.size());
  EXPECT_FALSE(report.all_ok());
  EXPECT_TRUE(report.first_error().IsInvalidArgument());
  EXPECT_FALSE(report.results[1].ok());
  EXPECT_TRUE(report.results[0].ok());
  EXPECT_TRUE(report.results[2].ok());
  EXPECT_EQ(report.values().size(), points.size() - 1);
}

TEST(SweepRunnerTest, RunModelsSolvesEveryPoint) {
  SweepRunner runner(FastSweepOptions(2));
  const auto points = SmallGrid().Expand();
  const auto models = runner.RunModels(points);
  ASSERT_EQ(models.size(), points.size());
  for (const auto& m : models) {
    ASSERT_TRUE(m.ok());
    EXPECT_GT(m->forkjoin_response, 0.0);
    EXPECT_GT(m->tripathi_response, 0.0);
  }
}

TEST(SweepRunnerTest, RunTasksHonorsPerTaskOptions) {
  SweepRunner runner(FastSweepOptions(2));
  SweepRunner::Task base;
  base.point.num_nodes = 2;
  base.point.input_bytes = kGiB / 4;
  base.options = DefaultExperimentOptions();
  base.options.repetitions = 1;

  SweepRunner::Task pinned = base;
  pinned.derive_seed = false;
  // Same pinned task twice: identical streams, identical results.
  SweepReport report = runner.RunTasks({pinned, pinned, base});
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.results[0]->measured_sec,
            report.results[1]->measured_sec);
  // The derived-seed task runs a different stream.
  EXPECT_NE(report.results[2]->measured_sec,
            report.results[0]->measured_sec);
}

TEST(SweepRunnerTest, ProgressReportsEveryPointInCompletionOrder) {
  SweepOptions opts = FastSweepOptions(4);
  std::mutex mu;
  std::vector<SweepProgress> seen;
  opts.progress = [&](const SweepProgress& p) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(p);
  };
  SweepRunner runner(opts);
  const auto points = SmallGrid().Expand();
  SweepReport report = runner.Run(points);
  ASSERT_TRUE(report.all_ok());
  // One serialized call per point, counting 1..N with a fixed total.
  ASSERT_EQ(seen.size(), points.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].points_done, i + 1);
    EXPECT_EQ(seen[i].points_total, points.size());
  }
  // Cache stats are live snapshots: lookups never decrease.
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i].cache.lookups(), seen[i - 1].cache.lookups());
  }
}

TEST(SweepRunnerTest, ProgressCoversRunModels) {
  SweepOptions opts = FastSweepOptions(2);
  std::mutex mu;
  size_t calls = 0;
  size_t last_total = 0;
  opts.progress = [&](const SweepProgress& p) {
    std::lock_guard<std::mutex> lock(mu);
    ++calls;
    last_total = p.points_total;
  };
  SweepRunner runner(opts);
  const auto points = SmallGrid().Expand();
  const auto models = runner.RunModels(points);
  ASSERT_EQ(models.size(), points.size());
  EXPECT_EQ(calls, points.size());
  EXPECT_EQ(last_total, points.size());
}

TEST(SweepRunnerTest, ProgressCallbackDoesNotPerturbResults) {
  SweepOptions quiet = FastSweepOptions(2);
  SweepOptions noisy = FastSweepOptions(2);
  noisy.progress = [](const SweepProgress&) {};
  SweepRunner a(quiet);
  SweepRunner b(noisy);
  const auto points = SmallGrid().Expand();
  SweepReport ra = a.Run(points);
  SweepReport rb = b.Run(points);
  ASSERT_TRUE(ra.all_ok());
  ASSERT_TRUE(rb.all_ok());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(ra.results[i]->forkjoin_sec, rb.results[i]->forkjoin_sec);
    EXPECT_EQ(ra.results[i]->measured_sec, rb.results[i]->measured_sec);
  }
}

TEST(SweepRunnerTest, CacheHitsAccumulateAcrossRuns) {
  // The runner's pool and cache persist: re-running the same grid should
  // be answered almost entirely from cache.
  SweepRunner runner(FastSweepOptions(2));
  const auto points = SmallGrid().Expand();
  SweepReport first = runner.Run(points);
  ASSERT_TRUE(first.all_ok());
  SweepReport second = runner.Run(points);
  ASSERT_TRUE(second.all_ok());
  EXPECT_GT(second.cache_stats.hits, first.cache_stats.hits);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(first.results[i]->forkjoin_sec,
              second.results[i]->forkjoin_sec);
  }
}

TEST(SweepRunnerTest, IdleWorkersRebalanceSkewedCostsDeterministically) {
  // Adversarial skew: the first tasks are an order of magnitude heavier
  // (more input, more jobs, more repetitions). Every point is its own
  // pool task, so while the heavy heads run, idle workers take the light
  // tail's points in index order — without changing any bytes.
  std::vector<SweepRunner::Task> tasks;
  for (int i = 0; i < 12; ++i) {
    SweepRunner::Task task;
    task.options = DefaultExperimentOptions();
    const bool heavy = i < 3;
    task.options.repetitions = heavy ? 3 : 1;
    task.point.num_nodes = heavy ? 6 : 2;
    task.point.input_bytes = static_cast<int64_t>(
        (heavy ? 1.0 : 0.125) * static_cast<double>(kGiB));
    task.point.num_jobs = heavy ? 3 : 1;
    tasks.push_back(task);
  }

  const auto run = [&tasks](int threads) {
    SweepOptions opts;
    opts.num_threads = threads;
    opts.experiment = DefaultExperimentOptions();
    SweepRunner runner(opts);
    SweepReport report = runner.RunTasks(tasks);
    EXPECT_TRUE(report.all_ok()) << report.first_error().ToString();
    return FormatSweepCsv(report.values());
  };
  EXPECT_EQ(run(8), run(1));
}

TEST(SweepRunnerTest, RepetitionFanOutMatchesSequentialEvaluation) {
  // A run with fewer points than pool threads fans repetitions out as
  // sub-tasks; the assembled medians must equal the sequential ones.
  SweepGrid grid;
  grid.Nodes({2}).InputGigabytes({0.25}).Jobs({1, 2});
  SweepOptions serial_opts = FastSweepOptions(1);
  serial_opts.experiment.repetitions = 3;
  const std::string serial = SweepCsv(serial_opts, grid);

  SweepOptions fan_opts = serial_opts;
  fan_opts.num_threads = 8;  // 2 one-point tasks on 8 threads: fan-out
  EXPECT_EQ(SweepCsv(fan_opts, grid), serial);
}

}  // namespace
}  // namespace mrperf
