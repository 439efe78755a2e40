#include "distributions/fitting.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "distributions/numeric.h"
#include "distributions/order_stats.h"

namespace mrperf {
namespace {

using Family = FittedDistribution::Family;

FittedDistribution PointMass(double value) {
  FittedDistribution d;
  d.mean = value;
  return d;
}

FittedDistribution Erlang(int k, double mean) {
  FittedDistribution d;
  d.family = Family::kErlang;
  d.stages = k;
  d.mean = mean;
  return d;
}

FittedDistribution H2(double p, double mean1, double mean2) {
  FittedDistribution d;
  d.family = Family::kHyperExponential;
  d.mean = p * mean1 + (1.0 - p) * mean2;
  d.p = p;
  d.mean1 = mean1;
  d.mean2 = mean2;
  return d;
}

/// The fit's moments from its parameters.
Moments ParameterMoments(const FittedDistribution& d) {
  switch (d.family) {
    case Family::kPointMass:
      return {d.mean, d.mean * d.mean};
    case Family::kErlang:
      return {d.mean, d.mean * d.mean * (1.0 + 1.0 / d.stages)};
    case Family::kHyperExponential: {
      const double q = 1.0 - d.p;
      return {d.p * d.mean1 + q * d.mean2,
              2.0 * (d.p * d.mean1 * d.mean1 + q * d.mean2 * d.mean2)};
    }
  }
  return {};
}

/// The fit's moments from its Cdf, integrated up to its tail bound.
Moments CdfMoments(const FittedDistribution& d) {
  const double upper = d.UpperTailBound();
  auto survival = [&d](double t) { return 1.0 - d.Cdf(t); };
  auto mean = IntegrateAdaptiveSimpson(survival, 0.0, upper, 1e-10);
  auto second = IntegrateAdaptiveSimpson(
      [&survival](double t) { return 2.0 * t * survival(t); }, 0.0, upper,
      1e-10);
  EXPECT_TRUE(mean.ok());
  EXPECT_TRUE(second.ok());
  return {mean.ok() ? *mean : NAN, second.ok() ? *second : NAN};
}

TEST(FittedDistributionTest, PointMassMoments) {
  const Moments m = CdfMoments(PointMass(5.0));
  EXPECT_NEAR(m.mean, 5.0, 1e-9);
  EXPECT_NEAR(m.second, 25.0, 1e-8);
}

TEST(FittedDistributionTest, PointMassStepCdf) {
  const FittedDistribution d = PointMass(5.0);
  EXPECT_DOUBLE_EQ(d.Cdf(4.999), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(5.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Cdf(100.0), 1.0);
  EXPECT_DOUBLE_EQ(d.UpperTailBound(), 5.0);
}

TEST(FittedDistributionTest, ErlangMomentsMatchStageCount) {
  for (int k : {1, 2, 4, 16}) {
    const Moments m = CdfMoments(Erlang(k, 10.0));
    EXPECT_NEAR(m.mean, 10.0, 1e-8) << "k=" << k;
    EXPECT_NEAR(m.Variance(), 100.0 / k, 1e-6) << "k=" << k;
  }
}

TEST(FittedDistributionTest, OneStageErlangIsExponential) {
  const FittedDistribution e = Erlang(1, 3.0);
  EXPECT_DOUBLE_EQ(e.Cdf(0.0), 0.0);
  for (double t : {0.1, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(e.Cdf(t), 1.0 - std::exp(-t / 3.0), 1e-12) << "t=" << t;
  }
}

TEST(FittedDistributionTest, ErlangCdfIsMonotoneAndBounded) {
  const FittedDistribution d = Erlang(8, 5.0);
  double prev = 0.0;
  for (double t = 0; t <= 30.0; t += 0.25) {
    const double c = d.Cdf(t);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_GT(d.Cdf(30.0), 0.999);
}

TEST(FittedDistributionTest, ErlangCdfMedianNearMeanForLargeK) {
  // Erlang concentrates around its mean as k grows.
  const FittedDistribution d = Erlang(100, 10.0);
  EXPECT_NEAR(d.Cdf(10.0), 0.5, 0.03);
  EXPECT_LT(d.Cdf(8.0), 0.05);
  EXPECT_GT(d.Cdf(12.0), 0.95);
}

TEST(FittedDistributionTest, HyperExponentialMomentsFromBranches) {
  const Moments m = CdfMoments(H2(0.3, 1.0, 5.0));
  EXPECT_NEAR(m.mean, 0.3 * 1.0 + 0.7 * 5.0, 1e-8);
  EXPECT_NEAR(m.second, 2.0 * (0.3 * 1.0 + 0.7 * 25.0), 1e-6);
  EXPECT_GT(m.Cv(), 1.0);
}

TEST(FittedDistributionTest, HyperExponentialCdfMixesBranches) {
  const FittedDistribution d = H2(0.5, 2.0, 2.0);  // degenerates to Exp(2)
  for (double t : {0.5, 1.0, 4.0}) {
    EXPECT_NEAR(d.Cdf(t), 1.0 - std::exp(-t / 2.0), 1e-12) << "t=" << t;
  }
}

TEST(FittedDistributionTest, TailBoundCoversSurvival) {
  for (double cv : {0.0, 0.3, 1.0, 3.0}) {
    auto d = FitByMeanCv(1.0, cv);
    ASSERT_TRUE(d.ok()) << "cv=" << cv;
    EXPECT_LT(1.0 - d->Cdf(d->UpperTailBound()), 1e-12) << "cv=" << cv;
  }
}

TEST(FittingTest, ZeroCvGivesDeterministic) {
  auto d = FitByMeanCv(5.0, 0.0);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->family, Family::kPointMass);
  EXPECT_DOUBLE_EQ(d->mean, 5.0);
}

TEST(FittingTest, TinyCvTreatedAsDeterministic) {
  auto d = FitByMeanCv(5.0, 0.01);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->family, Family::kPointMass);
  EXPECT_EQ(FitByMeanCv(5.0, 1.0 / 24.0)->family, Family::kPointMass);
}

TEST(FittingTest, CvBelowOneGivesErlang) {
  // Paper §4.2.4: Erlang when CV <= 1.
  auto d = FitByMeanCv(10.0, 0.5);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->family, Family::kErlang);
  EXPECT_EQ(d->stages, 4);  // 1/cv^2 = 4 stages exactly
  EXPECT_DOUBLE_EQ(d->mean, 10.0);
}

TEST(FittingTest, CvOneGivesExponentialShape) {
  auto d = FitByMeanCv(3.0, 1.0);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->family, Family::kErlang);
  EXPECT_EQ(d->stages, 1);
  EXPECT_DOUBLE_EQ(d->mean, 3.0);
}

TEST(FittingTest, CvAboveOneGivesHyperexponential) {
  // Paper §4.2.4: Hyperexponential when CV >= 1.
  auto d = FitByMeanCv(2.0, 1.8);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->family, Family::kHyperExponential);
  const Moments m = ParameterMoments(*d);
  EXPECT_NEAR(m.mean, 2.0, 1e-9);
  EXPECT_NEAR(m.Cv(), 1.8, 1e-6);
  // Balanced means: each branch carries half of the mean.
  EXPECT_NEAR(d->p * d->mean1, 1.0, 1e-12);
  EXPECT_NEAR((1.0 - d->p) * d->mean2, 1.0, 1e-12);
}

TEST(FittingTest, HyperExponentialFitMatchesTargets) {
  for (double cv : {1.0, 1.2, 1.5, 2.0, 4.0}) {
    auto fit = FitByMeanCv(7.0, cv);
    ASSERT_TRUE(fit.ok()) << "cv=" << cv;
    const Moments m = ParameterMoments(*fit);
    EXPECT_NEAR(m.mean, 7.0, 1e-9) << "cv=" << cv;
    EXPECT_NEAR(m.Cv(), cv, 1e-6) << "cv=" << cv;
  }
}

TEST(FittingTest, HyperExponentialFitRejectsInvalid) {
  EXPECT_FALSE(FitByMeanCv(0.0, 1.5).ok());
  EXPECT_FALSE(FitByMeanCv(-1.0, 1.5).ok());
  // cv² overflows: no H2 can be fitted.
  EXPECT_FALSE(FitByMeanCv(1.0, 1e200).ok());
  // An H2 cannot have cv < 1; such a target fits an Erlang instead.
  auto below = FitByMeanCv(1.0, 0.5);
  ASSERT_TRUE(below.ok());
  EXPECT_NE(below->family, Family::kHyperExponential);
}

TEST(FittingTest, MeanAlwaysPreserved) {
  for (double cv : {0.0, 0.2, 0.33, 0.71, 1.0, 1.3, 2.5}) {
    auto d = FitByMeanCv(42.0, cv);
    ASSERT_TRUE(d.ok()) << "cv=" << cv;
    EXPECT_DOUBLE_EQ(d->mean, 42.0) << "cv=" << cv;
    EXPECT_NEAR(ParameterMoments(*d).mean, 42.0, 1e-6) << "cv=" << cv;
  }
}

TEST(FittingTest, CvApproximatelyPreservedForErlang) {
  // Erlang stage rounding means CV matches only approximately for
  // intermediate values.
  for (double cv : {0.3, 0.45, 0.6, 0.8, 0.95}) {
    auto d = FitByMeanCv(1.0, cv);
    ASSERT_TRUE(d.ok());
    EXPECT_NEAR(ParameterMoments(*d).Cv(), cv, 0.12) << "cv=" << cv;
  }
}

TEST(FittingTest, InvalidArgumentsRejected) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(FitByMeanCv(-1.0, 0.5).ok());
  EXPECT_FALSE(FitByMeanCv(1.0, -0.5).ok());
  EXPECT_FALSE(FitByMeanCv(0.0, 0.5).ok());
  EXPECT_FALSE(FitByMeanCv(kNaN, 1.5).ok());
  EXPECT_FALSE(FitByMeanCv(1.0, kNaN).ok());
  EXPECT_FALSE(FitByMeanCv(kNaN, 0.0).ok());
  EXPECT_FALSE(FitByMeanCv(kInf, 0.5).ok());
  EXPECT_FALSE(FitByMeanCv(1.0, kInf).ok());
}

TEST(FittingTest, ZeroMeanZeroCvIsDegenerate) {
  auto d = FitByMeanCv(0.0, 0.0);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->family, Family::kPointMass);
  EXPECT_DOUBLE_EQ(d->mean, 0.0);
}

TEST(ErlangStagesTest, ExactInverseSquares) {
  EXPECT_EQ(ErlangStagesForCv(1.0), 1);
  EXPECT_EQ(ErlangStagesForCv(0.5), 4);
  EXPECT_EQ(ErlangStagesForCv(1.0 / 3.0), 9);
  EXPECT_EQ(ErlangStagesForCv(0.25), 16);
}

TEST(ErlangStagesTest, CapsAtMaximum) {
  EXPECT_EQ(ErlangStagesForCv(0.001), 512);
  EXPECT_EQ(ErlangStagesForCv(1e-100), 512);
  EXPECT_EQ(ErlangStagesForCv(0.0), 512);
}

class FittingRoundTripTest : public ::testing::TestWithParam<double> {};

TEST_P(FittingRoundTripTest, CdfConsistentWithMoments) {
  const double cv = GetParam();
  auto d = FitByMeanCv(1.0, cv);
  ASSERT_TRUE(d.ok());
  // Numerically integrate the survival function: should recover the mean.
  double integral = 0.0;
  const double h = 0.0005;
  const double upper = d->UpperTailBound();
  for (double t = 0; t < upper; t += h) {
    integral += (1.0 - d->Cdf(t)) * h;
  }
  EXPECT_NEAR(integral, 1.0, 0.01) << "cv=" << cv;
}

INSTANTIATE_TEST_SUITE_P(CvGrid, FittingRoundTripTest,
                         ::testing::Values(0.1, 0.4, 0.7, 1.0, 1.5, 2.5));

}  // namespace
}  // namespace mrperf
