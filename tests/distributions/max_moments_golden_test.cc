/// Exact-bits goldens for A5, the Tripathi max-moments layer (paper
/// §4.2.4): MaxMoments on every pair of fitted families, and one
/// EstimateTripathi on a tree whose P nodes fit both Erlangs and H2s.
///
/// Every value is compared with EXPECT_EQ, so reordering any
/// floating-point operation in the fit, the CDFs, the tail bounds or the
/// quadrature fails here. A deliberate numerical change to A5, such as a
/// closed form for the max moments, refreshes this table and reports the
/// deltas.

#include <iterator>

#include <gtest/gtest.h>

#include "distributions/fitting.h"
#include "distributions/order_stats.h"
#include "model/estimators.h"
#include "model/precedence_tree.h"

namespace mrperf {
namespace {

struct MeanCv {
  double mean;
  double cv;
};

struct GoldenPair {
  MeanCv x;
  MeanCv y;
  double max_mean;
  double max_second;
};

Result<Moments> MaxOfFits(const MeanCv& a, const MeanCv& b) {
  MRPERF_ASSIGN_OR_RETURN(auto x, FitByMeanCv(a.mean, a.cv));
  MRPERF_ASSIGN_OR_RETURN(auto y, FitByMeanCv(b.mean, b.cv));
  return MaxMoments(x, y);
}

TEST(MaxMomentsGoldenTest, FamilyPairsArePinned) {
  // cv 0 and 0.02 fit point masses, 0.043 an Erlang at the 512-stage cap,
  // 0.3 / 0.5 / 0.7 Erlangs with 11 / 4 / 2 stages, above 1 an H2.
  const GoldenPair kPairs[] = {
      // Point mass, point mass.
      {{4.0, 0.0}, {7.0, 0.02}, 6.9999999999995044, 48.999999999993065},
      // Point mass, Erlang.
      {{5.0, 0.0}, {4.0, 0.5}, 5.4368435637829391, 30.693565214235438},
      // Point mass, H2.
      {{5.0, 0.0}, {3.0, 2.0}, 6.1081515268497499, 63.768871559554483},
      // Erlang at the stage cap, Erlang.
      {{10.0, 0.043}, {9.0, 0.3}, 10.696147050921125, 116.5842994037958},
      // Erlang, H2.
      {{6.0, 0.7}, {4.0, 1.5}, 7.619065013451233, 95.051388861528949},
      // H2, H2.
      {{3.0, 1.2}, {5.0, 2.5}, 6.54422902340169, 198.3877962420998},
  };
  for (size_t i = 0; i < std::size(kPairs); ++i) {
    SCOPED_TRACE(i);  // row of kPairs
    const GoldenPair& g = kPairs[i];
    auto m = MaxOfFits(g.x, g.y);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_EQ(m->mean, g.max_mean);
    EXPECT_EQ(m->second, g.max_second);
  }
}

TEST(TripathiGoldenTest, MixedTreeIsPinned) {
  // Phases of 4, 3, 1 and 2 parallel tasks chained serially; leaf CV 1.10
  // (the calibrated default) fits every leaf to an H2, and the max of two
  // H2 leaves falls below CV 1 and fits an Erlang one level up.
  const double kStarts[] = {0, 0, 0, 0, 10, 10, 10, 20, 30, 30};
  const double kResponses[] = {12.5, 7.25, 30, 3, 18, 9.5, 0.75, 22, 5.5, 14};
  Timeline tl;
  for (double start : kStarts) {
    TimelineTask t;
    t.job = 0;
    t.cls = TaskClass::kMap;
    t.index = static_cast<int>(tl.tasks.size());
    t.node = 0;
    t.interval = {start, start + 10.0};
    t.demand = {1.0, 0.0, 0.0};
    tl.tasks.push_back(t);
  }
  tl.job_first_start = {0.0};
  tl.job_end = {40.0};
  tl.makespan = 40.0;
  auto tree = BuildPrecedenceTree(tl, 0);
  ASSERT_TRUE(tree.ok());
  EstimatorOptions opts;
  opts.leaf_cv = 1.10;
  auto leaf = [&kResponses](int id) { return kResponses[id]; };
  auto r = EstimateTripathi(*tree, leaf, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 94.950091079011656);
}

}  // namespace
}  // namespace mrperf
