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
/// Model-level goldens pin the default pipeline's predictions, each way
/// out of the outer loop with the iterations whose Tripathi estimate is
/// evaluated, scratch reuse and the solve cache on top.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

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
  // on small problems. The rest pin each way out of the outer loop:
  //  - (8, 1 GB, 1 job) converges on the ε test at iteration 2;
  //  - (4, 5 GB, 4 jobs) leaves through the period-2 exit at iteration
  //    16, and its Tripathi mean is the midpoint of iterations 15
  //    (427.43148656037147) and 16, so answering with either iteration
  //    alone misses by ≈1.4e-7 relative;
  //  - the same point capped at 15 iterations returns iteration 15's
  //    estimate, not converged.
  // Tripathi is evaluated only on iterations whose estimate is read:
  // iterations i−1 and i on an exit at i that had no earlier near miss,
  // the last one on a best-effort answer, none on NotConverged.
  // Fork/Join and the solver effort are pinned exactly; Tripathi within
  // 1e-9 relative, so an A5 quadrature change inside its own tolerance
  // does not have to touch this test.
  struct Golden {
    ExperimentPoint point;
    int max_iterations;
    double forkjoin;
    double tripathi;
    std::vector<double> tripathi_jobs;
    int iterations;
    bool converged;
    int64_t mva_iterations;
    int tripathi_evaluations;
  };
  const Golden goldens[] = {
      {Point(4, 1.0, 1), 300, 88.436642016035307, 98.906352220574789,
       {98.906352220574789}, 11, true, 385, 2},
      {Point(8, 1.0, 4), 300, 91.451295299409381, 102.40700690879534,
       {102.40700690879534, 102.40700690879534, 102.40700690879534,
        102.40700690879534},
       11, true, 440, 2},
      {Point(2, 0.25, 2), 300, 42.974765610927683, 43.655361447296379,
       {43.655361447296379, 43.655361447296379}, 11, true, 363, 2},
      {Point(8, 1.0, 1), 300, 85.25359004130901, 95.240400042524087,
       {95.240400042524087}, 2, true, 2, 2},
      {Point(4, 5.0, 4), 300, 386.60470936432495, 427.43154479371486,
       {451.87267559933326, 446.47683395883939, 447.28206476222442,
        364.09483778783584},
       16, true, 2129, 2},
      {Point(4, 5.0, 4), 15, 386.60466141004957, 427.43148656037147,
       {451.87256591806761, 446.47673369462615, 447.28196323426198,
        364.09468339453008},
       15, false, 1996, 1},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(PointLabel(g.point) + " max_iterations " +
                 std::to_string(g.max_iterations));
    ExperimentOptions opts = DefaultExperimentOptions();
    opts.model.max_iterations = g.max_iterations;
    auto model = RunModelPrediction(g.point, opts);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    EXPECT_EQ(model->forkjoin_response, g.forkjoin);
    EXPECT_NEAR(model->tripathi_response, g.tripathi, 1e-9 * g.tripathi);
    ASSERT_EQ(model->tripathi_job_responses.size(), g.tripathi_jobs.size());
    for (size_t j = 0; j < g.tripathi_jobs.size(); ++j) {
      EXPECT_NEAR(model->tripathi_job_responses[j], g.tripathi_jobs[j],
                  1e-9 * g.tripathi_jobs[j])
          << "job " << j;
    }
    EXPECT_EQ(model->iterations, g.iterations);
    EXPECT_EQ(model->converged, g.converged);
    EXPECT_EQ(model->mva_iterations, g.mva_iterations);
    EXPECT_EQ(model->tripathi_evaluations, g.tripathi_evaluations);
  }
  // The capped point with allow_nonconverged off has no answer to pin.
  ExperimentOptions strict = DefaultExperimentOptions();
  strict.model.max_iterations = 15;
  strict.model.allow_nonconverged = false;
  auto refused = RunModelPrediction(Point(4, 5.0, 4), strict);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsNotConverged()) << refused.status().ToString();
}

TEST(ModelKernelGoldenTest, NearMissEvaluatesEachIterationOnce) {
  // Undamped, (8, 2.5 GB, 4 jobs) passes every A6 test but Tripathi's at
  // iteration 2 and converges at 3. Tripathi is read for iterations 1
  // and 2, then 2 and 3: three evaluations, iteration 2's reused. The
  // values were recorded on a tree that evaluated every iteration.
  ExperimentOptions opts = DefaultExperimentOptions();
  opts.model.damping = 1.0;
  auto model = RunModelPrediction(Point(8, 2.5, 4), opts);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model->forkjoin_response, 170.85002225784044);
  EXPECT_NEAR(model->tripathi_response, 194.13030807130451,
              1e-9 * 194.13030807130451);
  EXPECT_EQ(model->iterations, 3);
  EXPECT_TRUE(model->converged);
  EXPECT_EQ(model->mva_iterations, 204);
  EXPECT_EQ(model->tripathi_evaluations, 3);
}

}  // namespace
}  // namespace mrperf
