#include "distributions/numeric.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace mrperf {
namespace {

TEST(SimpsonTest, Polynomial) {
  // Simpson is exact for cubics.
  auto f = [](double x) { return x * x * x - 2 * x + 1; };
  auto r = IntegrateAdaptiveSimpson(f, 0.0, 2.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 4.0 - 4.0 + 2.0, 1e-12);
}

TEST(SimpsonTest, Exponential) {
  auto r = IntegrateAdaptiveSimpson([](double x) { return std::exp(-x); },
                                    0.0, 50.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 1.0, 1e-8);
}

TEST(SimpsonTest, OscillatoryFunction) {
  auto r = IntegrateAdaptiveSimpson([](double x) { return std::sin(x); },
                                    0.0, M_PI);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 2.0, 1e-9);
}

TEST(SimpsonTest, SharpPeak) {
  // Narrow Gaussian centered mid-interval; adaptivity must find it.
  auto f = [](double x) {
    const double d = (x - 5.0) / 0.05;
    return std::exp(-0.5 * d * d);
  };
  auto r = IntegrateAdaptiveSimpson(f, 0.0, 10.0, 1e-12, 50);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 0.05 * std::sqrt(2.0 * M_PI), 1e-6);
}

TEST(SimpsonTest, EmptyInterval) {
  auto r = IntegrateAdaptiveSimpson([](double) { return 1.0; }, 3.0, 3.0);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 0.0);
}

TEST(SimpsonTest, InvalidBounds) {
  EXPECT_FALSE(
      IntegrateAdaptiveSimpson([](double) { return 1.0; }, 2.0, 1.0).ok());
}

TEST(SimpsonTest, InvalidTolerance) {
  EXPECT_FALSE(
      IntegrateAdaptiveSimpson([](double) { return 1.0; }, 0.0, 1.0, 0.0)
          .ok());
  EXPECT_FALSE(
      IntegrateAdaptiveSimpson([](double) { return 1.0; }, 0.0, 1.0, -1.0)
          .ok());
  // A NaN tolerance fails every stop test; without the check the
  // recursion would split [0, 1] into 2^40 subintervals.
  auto one = [](double) { return 1.0; };
  for (double tol : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    auto r = IntegrateAdaptiveSimpson(one, 0.0, 1.0, tol);
    EXPECT_TRUE(r.status().IsInvalidArgument()) << tol;
  }
}

TEST(SimpsonTest, NonFiniteIntegrandReported) {
  auto r = IntegrateAdaptiveSimpson(
      [](double x) { return x == 0.0 ? 1.0 : 1.0 / 0.0 * 0.0; }, 0.0, 1.0);
  EXPECT_FALSE(r.ok());
}

TEST(SimpsonTest, ConstantFunction) {
  auto r = IntegrateAdaptiveSimpson([](double) { return 2.5; }, -1.0, 3.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 10.0, 1e-12);
}

}  // namespace
}  // namespace mrperf
