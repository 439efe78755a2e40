#include "experiments/experiment.h"

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "experiments/report.h"
#include "workload/wordcount.h"

namespace mrperf {
namespace {

ExperimentOptions FastOptions() {
  ExperimentOptions opts = DefaultExperimentOptions();
  opts.repetitions = 1;
  return opts;
}

TEST(ExperimentTest, RunsOnePoint) {
  ExperimentPoint point;
  point.num_nodes = 4;
  point.input_bytes = 1 * kGiB;
  point.num_jobs = 1;
  auto r = RunExperiment(point, FastOptions());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->measured_sec, 0.0);
  EXPECT_GT(r->forkjoin_sec, 0.0);
  EXPECT_GT(r->tripathi_sec, 0.0);
  EXPECT_TRUE(r->model_converged);
}

TEST(ExperimentTest, ErrorsAreSignedRelative) {
  ExperimentPoint point;
  auto r = RunExperiment(point, FastOptions());
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->forkjoin_error,
              (r->forkjoin_sec - r->measured_sec) / r->measured_sec, 1e-12);
  EXPECT_NEAR(r->tripathi_error,
              (r->tripathi_sec - r->measured_sec) / r->measured_sec, 1e-12);
}

TEST(ExperimentTest, MedianOverRepetitionsIsDeterministic) {
  ExperimentOptions opts = FastOptions();
  opts.repetitions = 3;
  ExperimentPoint point;
  auto a = RunSimulatedMeasurement(point, opts);
  auto b = RunSimulatedMeasurement(point, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(*a, *b);
}

TEST(ExperimentTest, InvalidPointsRejected) {
  ExperimentPoint point;
  point.num_nodes = 0;
  EXPECT_FALSE(RunExperiment(point, FastOptions()).ok());
  point = ExperimentPoint();
  point.input_bytes = 0;
  EXPECT_FALSE(RunExperiment(point, FastOptions()).ok());
  point = ExperimentPoint();
  point.num_jobs = 0;
  EXPECT_FALSE(RunExperiment(point, FastOptions()).ok());
  // A cluster shape that parses and validates but whose nodes cannot
  // hold the 2 GiB containers is rejected before any simulation runs.
  point = ExperimentPoint();
  point.scenario.cluster = {ClusterNodeGroup{4, Resource{1024 * kMiB, 4}}};
  EXPECT_TRUE(RunExperiment(point, FastOptions()).status().IsInvalidArgument());
}

TEST(ExperimentTest, ZeroRepetitionsRejected) {
  ExperimentOptions opts = FastOptions();
  opts.repetitions = 0;
  EXPECT_FALSE(RunSimulatedMeasurement(ExperimentPoint(), opts).ok());
}

TEST(ExperimentTest, ZeroRepetitionsMakesRunExperimentModelOnly) {
  // The serving layer's "model_only" mode: the simulator is skipped,
  // measurement and error fields come back NaN (the serializers' null),
  // and the model side matches a full run bit-for-bit.
  ExperimentOptions opts = FastOptions();
  opts.repetitions = 0;
  const ExperimentPoint point;
  Result<ExperimentResult> model_only = RunExperiment(point, opts);
  ASSERT_TRUE(model_only.ok()) << model_only.status().ToString();
  EXPECT_TRUE(std::isnan(model_only->measured_sec));
  EXPECT_TRUE(std::isnan(model_only->forkjoin_error));
  EXPECT_TRUE(std::isnan(model_only->tripathi_error));
  EXPECT_GT(model_only->forkjoin_sec, 0.0);
  EXPECT_GT(model_only->tripathi_sec, 0.0);

  Result<ExperimentResult> full = RunExperiment(point, FastOptions());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(model_only->forkjoin_sec, full->forkjoin_sec);
  EXPECT_EQ(model_only->tripathi_sec, full->tripathi_sec);
  EXPECT_EQ(model_only->model_iterations, full->model_iterations);

  // Invalid points are still rejected in model-only mode.
  ExperimentPoint invalid;
  invalid.num_nodes = 0;
  EXPECT_FALSE(RunExperiment(invalid, opts).ok());
}

TEST(ExperimentTest, ExplicitUniformScenarioReproducesBaselineByteExactly) {
  // The scenario axes default to the paper baseline, and spelling that
  // baseline out (capacity scheduler, "wordcount" = the options' default
  // profile, uniform shape matching PaperCluster(4)) must reproduce the
  // seed fig10-15 pipeline bit-for-bit — simulator and both estimators.
  const ExperimentOptions opts = FastOptions();
  ExperimentPoint base;
  base.num_nodes = 4;

  ExperimentPoint scenario = base;
  scenario.scenario.scheduler = SchedulerKind::kCapacityFifo;
  scenario.scenario.profile = "wordcount";
  const ClusterConfig paper = PaperCluster(4);
  scenario.scenario.cluster = {ClusterNodeGroup{
      4, Resource{paper.node_capacity_bytes, paper.node.cpu_cores}}};

  auto a = RunExperiment(base, opts);
  auto b = RunExperiment(scenario, opts);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->measured_sec, b->measured_sec);
  EXPECT_EQ(a->forkjoin_sec, b->forkjoin_sec);
  EXPECT_EQ(a->tripathi_sec, b->tripathi_sec);
  EXPECT_EQ(a->forkjoin_error, b->forkjoin_error);
  EXPECT_EQ(a->tripathi_error, b->tripathi_error);
  EXPECT_EQ(a->model_iterations, b->model_iterations);
}

TEST(ExperimentTest, HeterogeneousScenarioRunsEndToEnd) {
  ExperimentPoint point;
  point.num_nodes = 4;  // overridden by the shape's 3 total nodes
  point.scenario.cluster = {ClusterNodeGroup{1, Resource{64 * kGiB, 12}},
                            ClusterNodeGroup{2, Resource{16 * kGiB, 4}}};
  auto r = RunExperiment(point, FastOptions());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->measured_sec, 0.0);
  EXPECT_GT(r->forkjoin_sec, 0.0);
  EXPECT_GT(r->tripathi_sec, 0.0);

  // The mixed cluster is a different system than the uniform one.
  ExperimentPoint uniform;
  uniform.num_nodes = 3;
  auto u = RunExperiment(uniform, FastOptions());
  ASSERT_TRUE(u.ok());
  EXPECT_NE(r->measured_sec, u->measured_sec);
}

TEST(ExperimentTest, TetrisScenarioUsesTheTetrisScheduler) {
  // Same point, different scheduler axis: the simulated measurement must
  // differ (packing + SRTF reorders containers), while the analytic
  // model — which always assumes capacity FIFO — stays identical.
  ExperimentPoint capacity;
  capacity.num_jobs = 2;
  ExperimentPoint tetris = capacity;
  tetris.scenario.scheduler = SchedulerKind::kTetrisPacking;
  const ExperimentOptions opts = FastOptions();
  auto a = RunSimulatedMeasurement(capacity, opts);
  auto b = RunSimulatedMeasurement(tetris, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  auto ma = RunModelPrediction(capacity, opts);
  auto mb = RunModelPrediction(tetris, opts);
  ASSERT_TRUE(ma.ok());
  ASSERT_TRUE(mb.ok());
  EXPECT_EQ(ma->forkjoin_response, mb->forkjoin_response);
  EXPECT_EQ(ma->tripathi_response, mb->tripathi_response);
}

TEST(ExperimentTest, NamedProfileScenarioOverridesOptionsProfile) {
  ExperimentPoint wordcount;
  ExperimentPoint terasort;
  terasort.scenario.profile = "terasort";
  const ExperimentOptions opts = FastOptions();
  auto a = RunModelPrediction(wordcount, opts);
  auto b = RunModelPrediction(terasort, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->forkjoin_response, b->forkjoin_response);

  ExperimentPoint bad;
  bad.scenario.profile = "no-such-profile";
  EXPECT_FALSE(RunExperiment(bad, opts).ok());
}

TEST(ExperimentTest, PointLabelShowsNonDefaultScenario) {
  ExperimentPoint point;
  EXPECT_EQ(PointLabel(point).find('['), std::string::npos);
  point.scenario.scheduler = SchedulerKind::kTetrisPacking;
  point.scenario.profile = "grep";
  EXPECT_NE(PointLabel(point).find("[tetris/grep/uniform]"),
            std::string::npos);
}

TEST(ReportTest, SummarizeErrors) {
  std::vector<ExperimentResult> results(3);
  results[0].forkjoin_error = 0.10;
  results[0].tripathi_error = 0.20;
  results[1].forkjoin_error = -0.05;
  results[1].tripathi_error = 0.25;
  results[2].forkjoin_error = 0.15;
  results[2].tripathi_error = 0.30;
  ErrorSummary s = SummarizeErrors(results);
  EXPECT_EQ(s.count, 3);
  EXPECT_DOUBLE_EQ(s.forkjoin_min, 0.05);
  EXPECT_DOUBLE_EQ(s.forkjoin_max, 0.15);
  EXPECT_NEAR(s.forkjoin_mean, 0.10, 1e-12);
  EXPECT_DOUBLE_EQ(s.tripathi_min, 0.20);
  EXPECT_DOUBLE_EQ(s.tripathi_max, 0.30);
  EXPECT_NEAR(s.forkjoin_over_fraction, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.tripathi_over_fraction, 1.0);
}

TEST(ReportTest, SummarizeEmptyIsZero) {
  ErrorSummary s = SummarizeErrors({});
  EXPECT_EQ(s.count, 0);
}

TEST(ReportTest, FigureTableRenders) {
  std::vector<ExperimentResult> results(2);
  results[0].measured_sec = 72.0;
  results[0].forkjoin_sec = 80.0;
  results[0].tripathi_sec = 90.0;
  results[0].forkjoin_error = 0.11;
  results[0].tripathi_error = 0.25;
  results[1].measured_sec = 50.0;
  results[1].forkjoin_sec = 55.0;
  results[1].tripathi_sec = 60.0;
  std::ostringstream os;
  PrintFigureTable(os, "Figure 10: Input 1GB, #jobs 1", "nodes", {4, 8},
                   results);
  const std::string out = os.str();
  EXPECT_NE(out.find("Figure 10"), std::string::npos);
  EXPECT_NE(out.find("HadoopSetup"), std::string::npos);
  EXPECT_NE(out.find("Fork/join"), std::string::npos);
  EXPECT_NE(out.find("Tripathi"), std::string::npos);
  EXPECT_NE(out.find("72.0"), std::string::npos);
}

TEST(ReportTest, ErrorSummaryRenders) {
  ErrorSummary s;
  s.count = 6;
  s.forkjoin_min = 0.05;
  s.forkjoin_max = 0.14;
  s.forkjoin_mean = 0.10;
  s.tripathi_min = 0.19;
  s.tripathi_max = 0.23;
  s.tripathi_mean = 0.21;
  s.forkjoin_over_fraction = 1.0;
  s.tripathi_over_fraction = 1.0;
  std::ostringstream os;
  PrintErrorSummary(os, "overall", s);
  EXPECT_NE(os.str().find("Fork/join error"), std::string::npos);
  EXPECT_NE(os.str().find("Tripathi"), std::string::npos);
}

}  // namespace
}  // namespace mrperf
