#include "distributions/order_stats.h"

#include <algorithm>
#include <cmath>

#include "distributions/numeric.h"

namespace mrperf {
namespace {

constexpr double kIntegrationTol = 1e-9;

}  // namespace

double Moments::Cv() const {
  if (mean == 0.0) return 0.0;
  const double var = Variance();
  return var > 0.0 ? std::sqrt(var) / mean : 0.0;
}

Result<Moments> MaxMoments(const FittedDistribution& x,
                           const FittedDistribution& y) {
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
  // Quadrature noise can push E[X²] slightly below mean²; clamp so the
  // implied variance is never negative.
  out.second = std::max(second, mean * mean);
  return out;
}

Moments SumMoments(const Moments& x, const Moments& y) {
  // Independence: means and variances add.
  Moments out;
  out.mean = x.mean + y.mean;
  const double var = x.Variance() + y.Variance();
  out.second = var + out.mean * out.mean;
  return out;
}

}  // namespace mrperf
