#include "model/model.h"

#include <limits>

#include <gtest/gtest.h>

#include "model/input.h"
#include "workload/wordcount.h"

namespace mrperf {
namespace {

Result<ModelInput> PaperInput(int nodes, double input_gb, int jobs,
                              int64_t block = 128 * kMiB) {
  return ModelInputFromHerodotou(
      PaperCluster(nodes), PaperHadoopConfig(block), WordCountProfile(),
      static_cast<int64_t>(input_gb * kGiB), jobs);
}

TEST(ModelTest, ConvergesOnPaperWorkload) {
  auto in = PaperInput(4, 1.0, 1);
  ASSERT_TRUE(in.ok());
  auto r = SolveModel(*in);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->converged);
  EXPECT_GT(r->iterations, 0);
  EXPECT_GT(r->forkjoin_response, 0.0);
  EXPECT_GT(r->tripathi_response, 0.0);
}

TEST(ModelTest, ResponsesExceedStaticInitialization) {
  // Contention and fork/join synchronization can only add to the
  // zero-contention static estimate of a single task chain.
  auto in = PaperInput(4, 1.0, 1);
  ASSERT_TRUE(in.ok());
  auto r = SolveModel(*in);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->map_response, in->init_map_response - 1e-9);
  const double static_chain = in->init_map_response +
                              in->init_shuffle_sort_response +
                              in->init_merge_response;
  EXPECT_GT(r->forkjoin_response, static_chain);
}

TEST(ModelTest, MoreJobsIncreaseResponse) {
  auto in1 = PaperInput(4, 1.0, 1);
  auto in4 = PaperInput(4, 1.0, 4);
  ASSERT_TRUE(in1.ok());
  ASSERT_TRUE(in4.ok());
  auto r1 = SolveModel(*in1);
  auto r4 = SolveModel(*in4);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  EXPECT_GT(r4->forkjoin_response, r1->forkjoin_response);
  EXPECT_GT(r4->tripathi_response, r1->tripathi_response);
  // Inter-job overlap only exists with multiple jobs.
  EXPECT_DOUBLE_EQ(r1->mean_beta, 0.0);
  EXPECT_GT(r4->mean_beta, 0.0);
}

TEST(ModelTest, MoreNodesDecreaseResponse) {
  auto in4 = PaperInput(4, 5.0, 1);
  auto in8 = PaperInput(8, 5.0, 1);
  ASSERT_TRUE(in4.ok());
  ASSERT_TRUE(in8.ok());
  auto r4 = SolveModel(*in4);
  auto r8 = SolveModel(*in8);
  ASSERT_TRUE(r4.ok());
  ASSERT_TRUE(r8.ok());
  EXPECT_GE(r4->forkjoin_response, r8->forkjoin_response);
}

TEST(ModelTest, MoreInputIncreasesResponse) {
  auto small = PaperInput(4, 1.0, 1);
  auto large = PaperInput(4, 5.0, 1);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  auto rs = SolveModel(*small);
  auto rl = SolveModel(*large);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rl.ok());
  EXPECT_GT(rl->forkjoin_response, rs->forkjoin_response);
}

TEST(ModelTest, SmallerBlocksDeepenTreeAndKeepJobComparable) {
  // Figure 15: 64 MB blocks double m; the tree gets deeper.
  auto b128 = PaperInput(4, 5.0, 1, 128 * kMiB);
  auto b64 = PaperInput(4, 5.0, 1, 64 * kMiB);
  ASSERT_TRUE(b128.ok());
  ASSERT_TRUE(b64.ok());
  auto r128 = SolveModel(*b128);
  auto r64 = SolveModel(*b64);
  ASSERT_TRUE(r128.ok());
  ASSERT_TRUE(r64.ok());
  EXPECT_GT(r64->tree_depth, r128->tree_depth);
}

TEST(ModelTest, PerJobResponsesReported) {
  auto in = PaperInput(4, 1.0, 3);
  ASSERT_TRUE(in.ok());
  auto r = SolveModel(*in);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->forkjoin_job_responses.size(), 3u);
  ASSERT_EQ(r->tripathi_job_responses.size(), 3u);
  // FIFO: later jobs cannot respond faster than the first.
  EXPECT_GE(r->forkjoin_job_responses[2],
            r->forkjoin_job_responses[0] - 1e-6);
}

TEST(ModelTest, TripathiAboveForkJoinWithHeavyTailLeaves) {
  auto in = PaperInput(4, 5.0, 1);
  ASSERT_TRUE(in.ok());
  ModelOptions opts;
  opts.estimator.leaf_cv = 1.10;
  auto r = SolveModel(*in, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->tripathi_response, r->forkjoin_response);
}

TEST(ModelTest, UnbalancedTreeInflatesNestedBinaryEstimate) {
  // §5.2: deeper trees raise the error; balancing mitigates it.
  auto in = PaperInput(4, 1.0, 1);
  ASSERT_TRUE(in.ok());
  ModelOptions balanced, unbalanced;
  balanced.estimator.forkjoin_mode = ForkJoinMode::kNestedBinary;
  unbalanced.estimator.forkjoin_mode = ForkJoinMode::kNestedBinary;
  unbalanced.balance_tree = false;
  auto rb = SolveModel(*in, balanced);
  auto ru = SolveModel(*in, unbalanced);
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(ru.ok());
  EXPECT_GT(ru->tree_depth, rb->tree_depth);
  EXPECT_GT(ru->forkjoin_response, rb->forkjoin_response);
}

TEST(ModelTest, AlphaScaleModulatesContention) {
  auto in = PaperInput(4, 5.0, 1);
  ASSERT_TRUE(in.ok());
  ModelOptions damped, full;
  damped.overlap.alpha_scale = 0.0;
  full.overlap.alpha_scale = 1.0;
  auto rd = SolveModel(*in, damped);
  auto rf = SolveModel(*in, full);
  ASSERT_TRUE(rd.ok());
  ASSERT_TRUE(rf.ok());
  // No intra-job contention -> lower class responses.
  EXPECT_LT(rd->map_response, rf->map_response);
}

TEST(ModelTest, MapOnlyJobSolves) {
  auto in = ModelInputFromHerodotou(PaperCluster(2), PaperHadoopConfig(
                                        128 * kMiB, /*reducers=*/0),
                                    WordCountProfile(), 1 * kGiB, 1);
  ASSERT_TRUE(in.ok());
  auto r = SolveModel(*in);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->forkjoin_response, 0.0);
  EXPECT_DOUBLE_EQ(r->shuffle_sort_response,
                   in->init_shuffle_sort_response);
}

TEST(ModelTest, StrictOptionsValidated) {
  auto in = PaperInput(4, 1.0, 1);
  ASSERT_TRUE(in.ok());
  ModelOptions opts;
  opts.epsilon = 0.0;
  EXPECT_FALSE(SolveModel(*in, opts).ok());
  opts = ModelOptions();
  opts.damping = 0.0;
  EXPECT_FALSE(SolveModel(*in, opts).ok());
  opts = ModelOptions();
  opts.max_iterations = 0;
  EXPECT_FALSE(SolveModel(*in, opts).ok());
}

TEST(ModelTest, BadLeafCvFailsBeforeTheFirstIteration) {
  // One iteration never converges, so no A6 test reads its Tripathi
  // estimate: with allow_nonconverged off nothing would evaluate it.
  // leaf_cv is checked at entry, so both settings name it.
  auto in = PaperInput(4, 1.0, 1);
  ASSERT_TRUE(in.ok());
  for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    for (bool allow_nonconverged : {true, false}) {
      ModelOptions opts;
      opts.max_iterations = 1;
      opts.estimator.leaf_cv = bad;
      opts.allow_nonconverged = allow_nonconverged;
      auto r = SolveModel(*in, opts);
      ASSERT_FALSE(r.ok()) << "leaf_cv " << bad;
      EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
      EXPECT_EQ(r.status().message(), "leaf_cv must be finite and >= 0");
    }
  }
}

TEST(ModelTest, NonConvergenceSurfacesWhenRequested) {
  auto in = PaperInput(4, 5.0, 4);
  ASSERT_TRUE(in.ok());
  ModelOptions opts;
  opts.max_iterations = 2;  // too few to converge on a 4-job workload
  opts.allow_nonconverged = false;
  auto r = SolveModel(*in, opts);
  if (!r.ok()) {
    EXPECT_TRUE(r.status().IsNotConverged());
  } else {
    EXPECT_TRUE(r->converged);  // converged legitimately fast
  }
}

TEST(ModelTest, DeterministicAcrossRuns) {
  auto in = PaperInput(4, 1.0, 2);
  ASSERT_TRUE(in.ok());
  auto r1 = SolveModel(*in);
  auto r2 = SolveModel(*in);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1->forkjoin_response, r2->forkjoin_response);
  EXPECT_DOUBLE_EQ(r1->tripathi_response, r2->tripathi_response);
}

TEST(ModelTest, TimelineExposedInResult) {
  auto in = PaperInput(4, 1.0, 1);
  ASSERT_TRUE(in.ok());
  auto r = SolveModel(*in);
  ASSERT_TRUE(r.ok());
  // 8 maps + 2 shuffle-sorts + 2 merges.
  EXPECT_EQ(r->timeline.tasks.size(), 12u);
  EXPECT_GT(r->timeline.makespan, 0.0);
}

}  // namespace
}  // namespace mrperf
