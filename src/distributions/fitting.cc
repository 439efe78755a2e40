#include "distributions/fitting.h"

#include <algorithm>
#include <cmath>

namespace mrperf {

double FittedDistribution::Cdf(double t) const {
  switch (family) {
    case Family::kPointMass:
      return t >= mean ? 1.0 : 0.0;
    case Family::kErlang: {
      if (t <= 0) return 0.0;
      // 1 - sum_{n=0}^{k-1} e^{-lt} (lt)^n / n! with l = k / mean,
      // evaluated with a running term to stay stable for large k.
      const double lt = stages / mean * t;
      double term = std::exp(-lt);  // n = 0
      double sum = term;
      for (int n = 1; n < stages; ++n) {
        term *= lt / n;
        sum += term;
      }
      const double cdf = 1.0 - sum;
      return cdf < 0.0 ? 0.0 : (cdf > 1.0 ? 1.0 : cdf);
    }
    case Family::kHyperExponential:
      if (t <= 0) return 0.0;
      return 1.0 - p * std::exp(-t / mean1) - (1.0 - p) * std::exp(-t / mean2);
  }
  return 0.0;
}

double FittedDistribution::UpperTailBound() const {
  switch (family) {
    case Family::kPointMass:
      return mean;
    case Family::kErlang:
      // Mean plus 40 standard deviations: the neglected survival mass is
      // below 1e-17, far under the quadrature tolerance.
      return mean + 40.0 * std::sqrt(mean * mean / stages) + 1e-12;
    case Family::kHyperExponential:
      // The slower branch dominates the tail; 40 of its means bounds the
      // survival mass below 1e-17.
      return 40.0 * std::max(mean1, mean2);
  }
  return mean;
}

int ErlangStagesForCv(double cv) {
  if (cv >= 1.0) return 1;
  // Matching CV^2 = 1/k exactly is only possible for integer k; round to the
  // nearest stage count, capped to keep Cdf evaluation cheap and stable.
  // The cap is checked before rounding: 1/cv² overflows a long for
  // cv below ≈3.3e-10 and is infinite at cv == 0.
  constexpr int kMaxStages = 512;
  const double k = 1.0 / (cv * cv);
  if (k >= kMaxStages) return kMaxStages;
  const int rounded = static_cast<int>(std::lround(k));
  return rounded < 1 ? 1 : rounded;
}

Result<FittedDistribution> FitByMeanCv(double mean, double cv) {
  if (!std::isfinite(mean) || !std::isfinite(cv)) {
    return Status::InvalidArgument("FitByMeanCv requires a finite mean and cv");
  }
  if (mean < 0 || cv < 0) {
    return Status::InvalidArgument("FitByMeanCv requires mean >= 0, cv >= 0");
  }
  FittedDistribution d;
  d.mean = mean;
  if (mean == 0) {
    if (cv > 0) {
      return Status::InvalidArgument("zero mean with positive cv is not a "
                                     "valid distribution");
    }
    return d;
  }
  // Very small CVs produce Erlangs with hundreds of stages whose CDF is a
  // numerically delicate truncated Poisson sum; a point mass is within the
  // fitting error at that point.
  constexpr double kDeterministicCvThreshold = 1.0 / 24.0;
  if (cv <= kDeterministicCvThreshold) return d;
  if (cv <= 1.0) {
    d.family = FittedDistribution::Family::kErlang;
    d.stages = ErlangStagesForCv(cv);
    return d;
  }
  // Balanced-means two-moment fit: p·m1 == (1-p)·m2 == mean/2.
  const double c2 = cv * cv;
  if (!std::isfinite(c2)) {
    return Status::InvalidArgument("cv is too large for an H2 fit");
  }
  double p = 0.5 * (1.0 + std::sqrt((c2 - 1.0) / (c2 + 1.0)));
  // For a huge cv, p rounds to 1; keep some weight on the slow branch.
  if (p >= 1.0 - 1e-12) p = 1.0 - 1e-12;
  d.family = FittedDistribution::Family::kHyperExponential;
  d.p = p;
  d.mean1 = mean / (2.0 * p);
  d.mean2 = mean / (2.0 * (1.0 - p));
  return d;
}

}  // namespace mrperf
