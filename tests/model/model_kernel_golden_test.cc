/// Golden A4 tests at the model level, on the calibrated problems behind
/// the Figure 10–15 series and on real converged timelines.
///
/// SolveModel has one A4 path: the grouped kernel over the timeline's
/// task equivalence classes. These tests rebuild a point's final A4
/// problem from its converged `ModelResult::timeline` (exactly the way
/// model.cc builds it) and check the production solve against the
/// per-task scalar oracle on the expanded problem, at two strengths:
///  - on every figure point the production solve is within the pinned
///    solver tolerance of the oracle (the grouped kernel collapses
///    sibling summands into count-weighted multiplies, which reorders
///    floating point);
///  - on timelines whose classes are all singletons (small clusters and
///    inputs) the two are **bit-for-bit identical**, so those points
///    predict exactly what a per-task solve would.
/// Model-level goldens pin the default pipeline's predictions, scratch
/// reuse and the solve cache on top.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "experiments/experiment.h"
#include "model/model.h"
#include "queueing/mva_kernel.h"
#include "queueing/solve_cache.h"
#include "workload/wordcount.h"

namespace mrperf {
namespace {

/// Pinned production-vs-oracle tolerance on a figure point's A4 solve,
/// relative (the solver iterates to 1e-10 absolute).
constexpr double kOracleRelTol = 1e-8;

ExperimentPoint Point(int nodes, double gb, int jobs,
                      int64_t block = 128 * kMiB) {
  ExperimentPoint p;
  p.num_nodes = nodes;
  p.input_bytes = static_cast<int64_t>(gb * kGiB);
  p.num_jobs = jobs;
  p.block_size_bytes = block;
  return p;
}

Result<ModelResult> Predict(const ExperimentPoint& point,
                            MvaKernelScratch* scratch = nullptr) {
  ExperimentOptions opts = DefaultExperimentOptions();
  opts.model.mva_scratch = scratch;
  return RunModelPrediction(point, opts);
}

/// A default-scenario point's model input, as RunModelPrediction builds
/// it.
Result<ModelInput> InputFor(const ExperimentPoint& point) {
  return ModelInputFromHerodotou(
      PaperCluster(point.num_nodes),
      PaperHadoopConfig(point.block_size_bytes, point.num_reducers),
      WordCountProfile(), point.input_bytes, point.num_jobs);
}

/// The grouped A4 problem of `timeline`, built the way SolveModel builds
/// it: cpu/disk/net queueing centers per node, each class's demand on
/// its node's three centers (a zero-cost class gets a 1e-12 cpu
/// placeholder).
Result<GroupedOverlapMvaProblem> BuildA4Problem(
    const ModelInput& input, const Timeline& timeline,
    const OverlapOptions& overlap_options) {
  MRPERF_ASSIGN_OR_RETURN(
      GroupedOverlapFactors factors,
      ComputeGroupedOverlapFactors(timeline, overlap_options));
  GroupedOverlapMvaProblem problem;
  for (int n = 0; n < input.NodeCount(); ++n) {
    const std::string id = std::to_string(n);
    problem.centers.push_back(
        {"cpu" + id, CenterType::kQueueing, input.NodeCpu(n)});
    problem.centers.push_back(
        {"disk" + id, CenterType::kQueueing, input.NodeDisk(n)});
    problem.centers.push_back({"net" + id, CenterType::kQueueing, 1});
  }
  for (const OverlapGroup& g : factors.groups) {
    OverlapTaskGroup group;
    group.count = g.count;
    group.demand.assign(problem.centers.size(), 0.0);
    const size_t base = static_cast<size_t>(g.node) * 3;
    group.demand[base] = g.demand.cpu;
    group.demand[base + 1] = g.demand.disk;
    group.demand[base + 2] = g.demand.network;
    if (g.demand.Total() <= 0) group.demand[base] = 1e-12;
    problem.groups.push_back(std::move(group));
  }
  problem.overlap = std::move(factors.theta);
  problem.task_group = std::move(factors.task_group);
  return problem;
}

/// Runs `point` through the default model and rebuilds the A4 problem of
/// its converged timeline.
Result<GroupedOverlapMvaProblem> ConvergedA4Problem(
    const ExperimentPoint& point) {
  const ExperimentOptions opts = DefaultExperimentOptions();
  MRPERF_ASSIGN_OR_RETURN(ModelInput input, InputFor(point));
  MRPERF_ASSIGN_OR_RETURN(ModelResult model, SolveModel(input, opts.model));
  return BuildA4Problem(input, model.timeline, opts.model.overlap);
}

void ExpectBitIdenticalModel(const ModelResult& a, const ModelResult& b) {
  EXPECT_EQ(a.forkjoin_response, b.forkjoin_response);
  EXPECT_EQ(a.tripathi_response, b.tripathi_response);
  EXPECT_EQ(a.map_response, b.map_response);
  EXPECT_EQ(a.shuffle_sort_response, b.shuffle_sort_response);
  EXPECT_EQ(a.merge_response, b.merge_response);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.forkjoin_job_responses.size(), b.forkjoin_job_responses.size());
  for (size_t j = 0; j < a.forkjoin_job_responses.size(); ++j) {
    EXPECT_EQ(a.forkjoin_job_responses[j], b.forkjoin_job_responses[j]);
    EXPECT_EQ(a.tripathi_job_responses[j], b.tripathi_job_responses[j]);
  }
}

/// One representative point per figure family: node sweeps at 1 GB and
/// 5 GB (Figures 10–13), the concurrency sweep (Figure 14), and the
/// 64 MB-block variant (Figure 15).
const ExperimentPoint kFigurePoints[] = {
    Point(4, 1.0, 1),             // Figure 10
    Point(6, 1.0, 4),             // Figure 11
    Point(8, 5.0, 1),             // Figure 12
    Point(4, 5.0, 4),             // Figure 13 / 14
    Point(4, 5.0, 1, 64 * kMiB),  // Figure 15
};

TEST(ModelKernelGoldenTest, FigureSeriesPointsBitIdenticalScalarVsBlocked) {
  // Points whose converged timeline has only singleton classes (one map
  // per node and wave, one reduce per node): the production kernel sees
  // G == T, and must reproduce the scalar oracle's bits and sweep count.
  const ExperimentPoint singleton_points[] = {
      Point(8, 1.0, 1),   // Figure 10's 8-node point
      Point(8, 1.0, 4),   // Figure 11's 8-node point
      Point(2, 0.25, 2),  // T = 12, the smallest model point
  };
  for (const ExperimentPoint& point : singleton_points) {
    auto problem = ConvergedA4Problem(point);
    ASSERT_TRUE(problem.ok()) << problem.status().ToString();
    ASSERT_EQ(problem->groups.size(), problem->TotalTasks())
        << point.num_nodes << " nodes, " << point.num_jobs << " jobs";
    auto production = SolveGroupedOverlapMva(*problem);
    auto oracle = SolveOverlapMva(problem->Expand());
    ASSERT_TRUE(production.ok()) << production.status().ToString();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(production->iterations, oracle->iterations);
    EXPECT_EQ(production->response, oracle->response);
    EXPECT_EQ(production->residence, oracle->residence);
  }
}

TEST(ModelKernelGoldenTest, FigureSeriesPointsGroupedWithinPinnedTolerance) {
  for (const ExperimentPoint& point : kFigurePoints) {
    auto problem = ConvergedA4Problem(point);
    ASSERT_TRUE(problem.ok()) << problem.status().ToString();
    auto production = SolveGroupedOverlapMva(*problem);
    auto oracle = SolveOverlapMva(problem->Expand());
    ASSERT_TRUE(production.ok()) << production.status().ToString();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_EQ(production->response.size(), oracle->response.size());
    for (size_t i = 0; i < oracle->response.size(); ++i) {
      const double ref = oracle->response[i];
      EXPECT_NEAR(production->response[i], ref,
                  kOracleRelTol * std::max(1.0, std::abs(ref)))
          << "task " << i;
      for (size_t k = 0; k < oracle->residence[i].size(); ++k) {
        const double res = oracle->residence[i][k];
        EXPECT_NEAR(production->residence[i][k], res,
                    kOracleRelTol * std::max(1.0, std::abs(res)))
            << "task " << i << " center " << k;
      }
    }
  }
}

TEST(ModelKernelGoldenTest, ScratchReuseDoesNotPerturbPredictions) {
  // The sweep engine reuses one scratch per worker across points of
  // different sizes; predictions must match scratch-free solves.
  MvaKernelScratch scratch;
  const ExperimentPoint points[] = {Point(8, 5.0, 4), Point(4, 1.0, 1),
                                    Point(6, 5.0, 2)};
  for (const ExperimentPoint& point : points) {
    auto fresh = Predict(point);
    auto reused = Predict(point, &scratch);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(reused.ok());
    ExpectBitIdenticalModel(*fresh, *reused);
  }
}

TEST(ModelKernelGoldenTest, SolveCacheDoesNotPerturbGroupedPredictions) {
  // The cache stores grouped solutions at class granularity and expands
  // per lookup; a hit must be bit-identical to recomputation.
  for (const ExperimentPoint& point :
       {Point(4, 1.0, 1), Point(4, 5.0, 4)}) {
    SolveCache cache;
    ExperimentOptions opts = DefaultExperimentOptions();
    auto uncached = RunModelPrediction(point, opts);
    opts.model.mva_cache = &cache;
    auto cold = RunModelPrediction(point, opts);
    auto warm = RunModelPrediction(point, opts);  // period-2 cycle hits
    ASSERT_TRUE(uncached.ok());
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(warm.ok());
    ExpectBitIdenticalModel(*uncached, *cold);
    ExpectBitIdenticalModel(*uncached, *warm);
    EXPECT_GT(cache.stats().hits, 0);
  }
}

TEST(ModelKernelGoldenTest, ColdDefaultPredictionsArePinned) {
  // The default pipeline (no cache, every A4 solve cold). The first two
  // rows are perfbench/reference.txt's model_grid rows: (4, 1 GB, 1 job)
  // has compressed classes, and (8, 1 GB, 4 jobs) is all singletons at
  // T = 48. The third, (2, 0.25 GB, 2 jobs), is all singletons at
  // T = 12; its values are what per-task scalar A4 solves give, so the
  // row fails if the grouped kernel stops reproducing the oracle's bits
  // on small problems. Fork/Join and the solver effort are pinned
  // exactly; Tripathi within 1e-9 relative, so an A5 quadrature change
  // inside its own tolerance does not have to touch this test.
  struct Golden {
    ExperimentPoint point;
    double forkjoin;
    double tripathi;
    int iterations;
    int64_t mva_iterations;
  };
  const Golden goldens[] = {
      {Point(4, 1.0, 1), 88.436642016035307, 98.906352220574789, 11, 385},
      {Point(8, 1.0, 4), 91.451295299409381, 102.40700690879534, 11, 440},
      {Point(2, 0.25, 2), 42.974765610927683, 43.655361447296379, 11, 363},
  };
  for (const Golden& g : goldens) {
    auto model = RunModelPrediction(g.point, DefaultExperimentOptions());
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    EXPECT_EQ(model->forkjoin_response, g.forkjoin);
    EXPECT_NEAR(model->tripathi_response, g.tripathi, 1e-9 * g.tripathi);
    EXPECT_EQ(model->iterations, g.iterations);
    EXPECT_EQ(model->mva_iterations, g.mva_iterations);
  }
}

}  // namespace
}  // namespace mrperf
