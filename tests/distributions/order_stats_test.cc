#include "distributions/order_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "distributions/fitting.h"
#include "distributions/numeric.h"

namespace mrperf {
namespace {

FittedDistribution Fit(double mean, double cv) {
  auto d = FitByMeanCv(mean, cv);
  EXPECT_TRUE(d.ok()) << "mean=" << mean << " cv=" << cv;
  return d.ok() ? *d : FittedDistribution{};
}

// The two-pass quadrature: one IntegrateAdaptiveSimpson per moment over
// the same interval at the same tolerance. MaxMoments shares the
// abscissae of both integrals and must match it bit for bit.
Result<Moments> TwoPassMaxMoments(const FittedDistribution& x,
                                  const FittedDistribution& y) {
  constexpr double kIntegrationTol = 1e-9;
  const double upper =
      std::max(std::max(0.0, x.UpperTailBound()), y.UpperTailBound());
  auto joint_cdf = [&x, &y](double t) { return x.Cdf(t) * y.Cdf(t); };
  MRPERF_ASSIGN_OR_RETURN(
      double mean,
      IntegrateAdaptiveSimpson(
          [&joint_cdf](double t) { return 1.0 - joint_cdf(t); }, 0.0, upper,
          kIntegrationTol));
  MRPERF_ASSIGN_OR_RETURN(
      double second,
      IntegrateAdaptiveSimpson(
          [&joint_cdf](double t) { return 2.0 * t * (1.0 - joint_cdf(t)); },
          0.0, upper, kIntegrationTol));
  Moments out;
  out.mean = mean;
  out.second = std::max(second, mean * mean);
  return out;
}

TEST(MomentsTest, VarianceAndCv) {
  Moments m{3.0, 13.0};
  EXPECT_DOUBLE_EQ(m.Variance(), 4.0);
  EXPECT_NEAR(m.Cv(), 2.0 / 3.0, 1e-12);
  Moments zero{0.0, 0.0};
  EXPECT_DOUBLE_EQ(zero.Cv(), 0.0);
}

TEST(MaxMomentsTest, TwoIidExponentials) {
  // E[max(X,Y)] for iid Exp(mean) is 1.5 * mean — the basis of the
  // paper's H2 = 3/2 fork/join factor.
  const FittedDistribution x = Fit(2.0, 1.0);
  auto m = MaxMoments(x, x);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->mean, 3.0, 1e-6);
  // Var[max of 2 iid exp(rate l)] = 5/(4l^2); l = 0.5 here.
  EXPECT_NEAR(m->Variance(), 5.0, 1e-4);
}

TEST(MaxMomentsTest, DominatedPair) {
  // max(X, c) where c is far above X's tail is essentially c.
  auto m = MaxMoments(Fit(1.0, 1.0), Fit(100.0, 0.0));
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->mean, 100.0, 1e-6);
  EXPECT_NEAR(m->Variance(), 0.0, 1e-3);
}

TEST(MaxMomentsTest, DeterministicPair) {
  auto m = MaxMoments(Fit(4.0, 0.0), Fit(7.0, 0.0));
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->mean, 7.0, 1e-9);
}

TEST(MinMaxIdentityTest, SumOfMinAndMaxEqualsSumOfMeans) {
  // E[min] + E[max] == E[X] + E[Y] for any X, Y; E[min] integrates the
  // joint survival S_X(t)·S_Y(t).
  const FittedDistribution x = Fit(3.0, 1.0 / std::sqrt(2.0));  // Erlang-2
  const FittedDistribution y = Fit(5.0, 1.0);                    // Exp(5)
  const double upper = std::max(x.UpperTailBound(), y.UpperTailBound());
  auto joint_survival = [&x, &y](double t) {
    return (1.0 - x.Cdf(t)) * (1.0 - y.Cdf(t));
  };
  auto mx = MaxMoments(x, y);
  auto mn = IntegrateAdaptiveSimpson(joint_survival, 0.0, upper, 1e-9);
  ASSERT_TRUE(mx.ok());
  ASSERT_TRUE(mn.ok());
  EXPECT_NEAR(mx->mean + *mn, 8.0, 1e-5);
}

TEST(SumMomentsTest, IndependentSum) {
  Moments a{2.0, 5.0};   // var 1
  Moments b{3.0, 13.0};  // var 4
  Moments s = SumMoments(a, b);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 5.0);
}

TEST(SumMomentsTest, ZeroIsNeutral) {
  Moments a{4.0, 20.0};
  Moments zero{0.0, 0.0};
  Moments s = SumMoments(a, zero);
  EXPECT_DOUBLE_EQ(s.mean, a.mean);
  EXPECT_NEAR(s.Variance(), a.Variance(), 1e-12);
}

TEST(MaxMomentsTest, MaxIsAtLeastEachMean) {
  // E[max(X, Y)] >= max(E[X], E[Y]) — Jensen-style sanity.
  auto m = MaxMoments(Fit(6.0, 1.0 / std::sqrt(2.0)), Fit(4.0, 1.5));
  ASSERT_TRUE(m.ok());
  EXPECT_GE(m->mean, 6.0 - 1e-9);
}

TEST(MaxMomentsTest, VarianceNeverNegative) {
  const FittedDistribution a = Fit(1.0, 0.0);
  auto m = MaxMoments(a, a);
  ASSERT_TRUE(m.ok());
  EXPECT_GE(m->Variance(), 0.0);
}

TEST(MaxMomentsTest, RandomFitsStayWithinOrderBounds) {
  // max(E[X], E[Y]) <= E[max(X, Y)] <= E[X] + E[Y] and E[max²] >= E[max]²
  // over seeded (mean, cv) draws covering every fitted family: point
  // masses (cv <= 1/24), Erlangs up to the 512-stage cap, the exponential
  // (cv = 1) and H2s up to cv = 8. Means stay in [1, 10]: for a larger
  // E[max²] at a high cv the quadrature's absolute 1e-9 tolerance is
  // below the rounding of its own sums, and the recursion runs to full
  // depth (one call at cv 8 and mean 24 takes about a minute).
  Rng rng(20170321);
  auto draw_cv = [&rng]() {
    switch (rng.UniformInt(5)) {
      case 0:
        return rng.Uniform(0.0, 1.0 / 24.0);
      case 1:
        return rng.Uniform(1.0 / 24.0, 0.05);
      case 2:
        return 1.0;
      case 3:
        return rng.Uniform(0.05, 1.0);
      default:
        return rng.Uniform(1.0, 8.0);
    }
  };
  constexpr double kRelSlack = 1e-9;
  for (int i = 0; i < 200; ++i) {
    const double mean_x = std::exp(rng.Uniform(0.0, std::log(10.0)));
    const double mean_y = std::exp(rng.Uniform(0.0, std::log(10.0)));
    const double cv_x = draw_cv();
    const double cv_y = draw_cv();
    SCOPED_TRACE(i);
    auto m = MaxMoments(Fit(mean_x, cv_x), Fit(mean_y, cv_y));
    ASSERT_TRUE(m.ok());
    EXPECT_GE(m->mean, std::max(mean_x, mean_y) * (1.0 - kRelSlack));
    EXPECT_LE(m->mean, (mean_x + mean_y) * (1.0 + kRelSlack));
    EXPECT_GE(m->second, m->mean * m->mean);
  }
}

// A fit of `family` with a mean drawn log-uniformly from [1, 10]: a point
// mass (cv <= 1/24), an Erlang with 2 to 512 stages (cv = 1/√k) or an H2
// with cv in (1, 8).
FittedDistribution DrawFit(Rng& rng, FittedDistribution::Family family) {
  const double mean = std::exp(rng.Uniform(0.0, std::log(10.0)));
  double cv = 0.0;
  switch (family) {
    case FittedDistribution::Family::kPointMass:
      cv = rng.Uniform(0.0, 1.0 / 24.0);
      break;
    case FittedDistribution::Family::kErlang:
      cv = 1.0 / std::sqrt(2.0 + static_cast<double>(rng.UniformInt(511)));
      break;
    case FittedDistribution::Family::kHyperExponential:
      cv = rng.Uniform(1.0, 8.0);
      break;
  }
  const FittedDistribution d = Fit(mean, cv);
  EXPECT_EQ(d.family, family) << "mean=" << mean << " cv=" << cv;
  return d;
}

TEST(MaxMomentsTest, OnePassMatchesTwoPassOracle) {
  // Seeded pairs over every pair of families, plus the degenerate cases:
  // two point masses at 0 (an empty interval, both moments 0), tail
  // bounds that overflow to +inf, and a point mass at 1e200 whose E[max]
  // is finite but whose E[max²] overflows; every overflowing pair fails.
  // Moments must match the two-pass oracle bit for bit, and statuses
  // code for code.
  using Family = FittedDistribution::Family;
  const Family kFamilies[] = {Family::kPointMass, Family::kErlang,
                              Family::kHyperExponential};
  Rng rng(20261018);
  std::vector<std::pair<FittedDistribution, FittedDistribution>> pairs;
  for (Family fx : kFamilies) {
    for (Family fy : kFamilies) {
      for (int i = 0; i < 20; ++i) {
        pairs.emplace_back(DrawFit(rng, fx), DrawFit(rng, fy));
      }
    }
  }
  const FittedDistribution zero = Fit(0.0, 0.0);
  const auto empty = MaxMoments(zero, zero);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->mean, 0.0);
  EXPECT_EQ(empty->second, 0.0);
  pairs.emplace_back(zero, zero);
  const FittedDistribution erlang_overflow = Fit(1e300, 0.5);
  const FittedDistribution h2_overflow = Fit(1e307, 4.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ASSERT_EQ(erlang_overflow.UpperTailBound(), kInf);
  ASSERT_EQ(h2_overflow.UpperTailBound(), kInf);
  const std::pair<FittedDistribution, FittedDistribution> kOverflowing[] = {
      {erlang_overflow, Fit(2.0, 1.0)},
      {Fit(3.0, 0.0), h2_overflow},
      {h2_overflow, erlang_overflow},
      {Fit(1e200, 0.0), Fit(2.0, 1.0)},
  };
  for (const auto& [x, y] : kOverflowing) {
    EXPECT_EQ(MaxMoments(x, y).status().code(), StatusCode::kInternal);
    pairs.emplace_back(x, y);
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    SCOPED_TRACE(i);  // index into pairs
    const auto& [x, y] = pairs[i];
    const auto one = MaxMoments(x, y);
    const auto two = TwoPassMaxMoments(x, y);
    ASSERT_EQ(one.status().code(), two.status().code())
        << one.status().ToString() << " vs " << two.status().ToString();
    if (!two.ok()) continue;
    EXPECT_EQ(one->mean, two->mean);
    EXPECT_EQ(one->second, two->second);
  }
}

}  // namespace
}  // namespace mrperf
