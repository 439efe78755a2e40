#include "model/estimators.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/statistics.h"
#include "model/precedence_tree.h"

namespace mrperf {
namespace {

/// Timeline with `parallel` equal tasks at t=0 followed by `serial` tasks
/// chained one after another.
Timeline MakeTimeline(int parallel, int serial, double dur = 10.0) {
  Timeline tl;
  auto add = [&tl, dur](double start) {
    TimelineTask t;
    t.job = 0;
    t.cls = TaskClass::kMap;
    t.index = static_cast<int>(tl.tasks.size());
    t.node = 0;
    t.interval = {start, start + dur};
    t.demand = {1.0, 0.0, 0.0};
    tl.tasks.push_back(t);
  };
  for (int i = 0; i < parallel; ++i) add(0.0);
  double t0 = dur;
  for (int i = 0; i < serial; ++i) {
    add(t0);
    t0 += dur;
  }
  tl.job_first_start = {0.0};
  tl.job_end = {t0};
  tl.makespan = t0;
  return tl;
}

LeafResponseFn Constant(double r) {
  return [r](int) { return r; };
}

TEST(ForkJoinTest, SingleLeafIsItsResponse) {
  Timeline tl = MakeTimeline(1, 0);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  auto r = EstimateForkJoin(*tree, Constant(10.0));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 10.0);
}

TEST(ForkJoinTest, SerialChainSums) {
  Timeline tl = MakeTimeline(1, 2);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  auto r = EstimateForkJoin(*tree, Constant(10.0));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 30.0);
}

TEST(ForkJoinTest, GroupHarmonicUsesGroupSize) {
  // k parallel equal tasks: R = H_k * r (Varki's estimate).
  for (int k : {2, 3, 8}) {
    Timeline tl = MakeTimeline(k, 0);
    auto tree = BuildPrecedenceTree(tl, 0);
    ASSERT_TRUE(tree.ok());
    auto r = EstimateForkJoin(*tree, Constant(10.0));
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(*r, HarmonicNumber(k) * 10.0, 1e-9) << "k=" << k;
  }
}

TEST(ForkJoinTest, NestedBinaryCompoundsH2) {
  // Paper literal mode: H2 = 3/2 at every binary P node; 4 balanced
  // leaves -> 1.5^2 = 2.25x.
  Timeline tl = MakeTimeline(4, 0);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  EstimatorOptions opts;
  opts.forkjoin_mode = ForkJoinMode::kNestedBinary;
  auto r = EstimateForkJoin(*tree, Constant(10.0), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 22.5, 1e-9);
}

TEST(ForkJoinTest, NestedBinaryAboveGroupHarmonic) {
  // Nested 1.5 factors overestimate relative to H_k for k > 2 — the
  // error-vs-depth effect §5.2 discusses.
  Timeline tl = MakeTimeline(16, 0);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  EstimatorOptions nested, group;
  nested.forkjoin_mode = ForkJoinMode::kNestedBinary;
  group.forkjoin_mode = ForkJoinMode::kGroupHarmonic;
  auto rn = EstimateForkJoin(*tree, Constant(10.0), nested);
  auto rg = EstimateForkJoin(*tree, Constant(10.0), group);
  ASSERT_TRUE(rn.ok());
  ASSERT_TRUE(rg.ok());
  EXPECT_GT(*rn, *rg);
}

TEST(ForkJoinTest, MaxDominatesGroup) {
  Timeline tl = MakeTimeline(2, 0);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  auto leaf = [](int id) { return id == 0 ? 4.0 : 10.0; };
  auto r = EstimateForkJoin(*tree, leaf);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 1.5 * 10.0);
}

TEST(ForkJoinTest, RejectsNegativeLeafAndEmptyTree) {
  Timeline tl = MakeTimeline(2, 0);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(EstimateForkJoin(*tree, Constant(-1.0)).ok());
  // A non-finite leaf is rejected like a negative one, in both modes.
  EstimatorOptions nested;
  nested.forkjoin_mode = ForkJoinMode::kNestedBinary;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kNaN, kInf}) {
    EXPECT_FALSE(EstimateForkJoin(*tree, Constant(bad)).ok());
    EXPECT_FALSE(EstimateForkJoin(*tree, Constant(bad), nested).ok());
  }
  PrecedenceTree empty;
  EXPECT_FALSE(EstimateForkJoin(empty, Constant(1.0)).ok());
  EXPECT_FALSE(EstimateForkJoin(*tree, nullptr).ok());
}

TEST(TripathiTest, SingleLeafIsItsResponse) {
  Timeline tl = MakeTimeline(1, 0);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  auto r = EstimateTripathi(*tree, Constant(7.0));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 7.0);
}

TEST(TripathiTest, SerialChainSumsMeans) {
  Timeline tl = MakeTimeline(1, 3);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  auto r = EstimateTripathi(*tree, Constant(5.0));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 20.0, 1e-9);
}

TEST(TripathiTest, ExponentialPairMatchesClosedForm) {
  // Leaf CV 1 -> exponential children; E[max of two iid Exp(r)] = 1.5r.
  Timeline tl = MakeTimeline(2, 0);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  EstimatorOptions opts;
  opts.leaf_cv = 1.0;
  auto r = EstimateTripathi(*tree, Constant(10.0), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 15.0, 0.01);
}

TEST(TripathiTest, DeterministicLeavesMaxIsMax) {
  // Leaf CV 0: max of equal constants is the constant.
  Timeline tl = MakeTimeline(4, 0);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  EstimatorOptions opts;
  opts.leaf_cv = 0.0;
  auto r = EstimateTripathi(*tree, Constant(10.0), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 10.0, 0.05);
}

TEST(TripathiTest, HigherLeafCvInflatesEstimate) {
  Timeline tl = MakeTimeline(8, 0);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  EstimatorOptions low, high;
  low.leaf_cv = 0.5;
  high.leaf_cv = 1.5;
  auto rl = EstimateTripathi(*tree, Constant(10.0), low);
  auto rh = EstimateTripathi(*tree, Constant(10.0), high);
  ASSERT_TRUE(rl.ok());
  ASSERT_TRUE(rh.ok());
  EXPECT_GT(*rh, *rl);
}

TEST(TripathiTest, EstimateAtLeastMaxLeaf) {
  Timeline tl = MakeTimeline(3, 0);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  auto leaf = [](int id) { return 5.0 + id; };
  auto r = EstimateTripathi(*tree, leaf);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(*r, 7.0);
}

TEST(TripathiTest, RejectsInvalidInputs) {
  Timeline tl = MakeTimeline(2, 0);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  EstimatorOptions opts;
  opts.leaf_cv = -1.0;
  EXPECT_FALSE(EstimateTripathi(*tree, Constant(1.0), opts).ok());
  EXPECT_FALSE(EstimateTripathi(*tree, Constant(-1.0)).ok());
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kNaN, kInf}) {
    EXPECT_FALSE(EstimateTripathi(*tree, Constant(bad)).ok());
    opts.leaf_cv = bad;
    EXPECT_FALSE(EstimateTripathi(*tree, Constant(1.0), opts).ok());
  }
  PrecedenceTree empty;
  EXPECT_FALSE(EstimateTripathi(empty, Constant(1.0)).ok());
}

TEST(EstimatorComparisonTest, BothReduceToSumForSerialChains) {
  Timeline tl = MakeTimeline(1, 4);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  auto fj = EstimateForkJoin(*tree, Constant(3.0));
  auto tri = EstimateTripathi(*tree, Constant(3.0));
  ASSERT_TRUE(fj.ok());
  ASSERT_TRUE(tri.ok());
  EXPECT_NEAR(*fj, *tri, 1e-6);
  EXPECT_NEAR(*fj, 15.0, 1e-9);
}

TEST(EstimatorComparisonTest, MixedStructure) {
  // 2 parallel tasks then 1 serial: FJ = 1.5*10 + 10 = 25.
  Timeline tl = MakeTimeline(2, 1);
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  auto fj = EstimateForkJoin(*tree, Constant(10.0));
  ASSERT_TRUE(fj.ok());
  EXPECT_DOUBLE_EQ(*fj, 25.0);
  auto tri = EstimateTripathi(*tree, Constant(10.0));
  ASSERT_TRUE(tri.ok());
  EXPECT_NEAR(*tri, 25.0, 0.05);  // exp pair: 15 + 10
}

}  // namespace
}  // namespace mrperf
