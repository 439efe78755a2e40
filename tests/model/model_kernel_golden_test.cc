/// Golden kernel-path tests at the model level: the full modified-MVA
/// loop (timeline → overlap factors → A4 overlap-MVA → estimators) on
/// the calibrated problems behind the Figure 10–15 series.
///
/// Two guarantees, at two strengths:
///  - the scalar and blocked per-task kernels are **bit-for-bit
///    identical** (they accumulate in the same order; any reordering of
///    the blocked product's floating point shows up here as a bit
///    difference);
///  - the group-compressed pipeline (kGrouped, and kAuto which selects
///    it) solves the same fixed point over task equivalence classes and
///    must match the scalar reference within the pinned tolerance below.
///    It collapses sibling summands into count-weighted multiplies, so
///    bit-identity is not expected — but the deviation is bounded by the
///    solver tolerance plus the outer loop's discrete sensitivities
///    (convergence-threshold flips near ε; observed max 2.3e-5 relative
///    on the figure grids, pinned at 1e-4 with margin).

#include <cmath>

#include <gtest/gtest.h>

#include "experiments/experiment.h"
#include "queueing/mva_kernel.h"
#include "queueing/solve_cache.h"

namespace mrperf {
namespace {

/// Pinned golden tolerance for group-compressed predictions, relative
/// to the scalar reference (see file comment for the derivation).
constexpr double kGroupedGoldenRelTol = 1e-4;

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
                            MvaKernelPath path,
                            MvaKernelScratch* scratch = nullptr) {
  ExperimentOptions opts = DefaultExperimentOptions();
  opts.model.mva.kernel = path;
  opts.model.mva_scratch = scratch;
  return RunModelPrediction(point, opts);
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

void ExpectWithinGoldenTol(const ModelResult& reference,
                           const ModelResult& candidate) {
  const auto near = [](double ref, double got) {
    const double tol = kGroupedGoldenRelTol * std::max(1.0, std::abs(ref));
    EXPECT_NEAR(ref, got, tol);
  };
  near(reference.forkjoin_response, candidate.forkjoin_response);
  near(reference.tripathi_response, candidate.tripathi_response);
  near(reference.map_response, candidate.map_response);
  near(reference.shuffle_sort_response, candidate.shuffle_sort_response);
  near(reference.merge_response, candidate.merge_response);
  ASSERT_EQ(reference.forkjoin_job_responses.size(),
            candidate.forkjoin_job_responses.size());
  for (size_t j = 0; j < reference.forkjoin_job_responses.size(); ++j) {
    near(reference.forkjoin_job_responses[j],
         candidate.forkjoin_job_responses[j]);
    near(reference.tripathi_job_responses[j],
         candidate.tripathi_job_responses[j]);
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
  for (const ExperimentPoint& point : kFigurePoints) {
    auto scalar = Predict(point, MvaKernelPath::kScalar);
    auto blocked = Predict(point, MvaKernelPath::kBlocked);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
    ExpectBitIdenticalModel(*scalar, *blocked);
  }
}

TEST(ModelKernelGoldenTest, FigureSeriesPointsGroupedWithinPinnedTolerance) {
  for (const ExperimentPoint& point : kFigurePoints) {
    auto scalar = Predict(point, MvaKernelPath::kScalar);
    auto grouped = Predict(point, MvaKernelPath::kGrouped);
    auto auto_path = Predict(point, MvaKernelPath::kAuto);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    ASSERT_TRUE(auto_path.ok()) << auto_path.status().ToString();
    ExpectWithinGoldenTol(*scalar, *grouped);
    // kAuto selects the grouped pipeline, so it matches it exactly.
    ExpectBitIdenticalModel(*grouped, *auto_path);
  }
}

TEST(ModelKernelGoldenTest, ScratchReuseDoesNotPerturbPredictions) {
  // The sweep engine reuses one scratch per worker across points of
  // different sizes; predictions must match scratch-free solves.
  MvaKernelScratch scratch;
  const ExperimentPoint points[] = {Point(8, 5.0, 4), Point(4, 1.0, 1),
                                    Point(6, 5.0, 2)};
  for (const ExperimentPoint& point : points) {
    auto fresh = Predict(point, MvaKernelPath::kAuto);
    auto reused = Predict(point, MvaKernelPath::kAuto, &scratch);
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
  // The default pipeline (kAuto, no cache, every A4 solve cold) on two
  // model-grid points: the predictions are perfbench/reference.txt's
  // model_grid rows. Fork/Join and the solver effort are pinned
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
