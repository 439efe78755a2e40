/// \file order_stats.h
/// \brief Moments of the max and of the sum of independent variables.
///
/// The Tripathi estimator needs E[max(X, Y)] and E[max(X, Y)²] of the two
/// fitted children of a P node. For independent non-negative X, Y:
///   E[max]  = ∫₀^∞ (1 − F_X(t)·F_Y(t)) dt
///   E[max²] = ∫₀^∞ 2t·(1 − F_X(t)·F_Y(t)) dt
/// evaluated by adaptive Simpson quadrature (absolute tolerance 1e-9) up to
/// the larger tail bound of the two fits. Both integrals run in one
/// recursion over shared abscissae, so F_X·F_Y is evaluated once per
/// abscissa; each integral keeps its own stop test and gives the same bits
/// as IntegrateAdaptiveSimpson (numeric.h) run on it alone, the oracle the
/// tests compare against.

#pragma once

#include "common/status.h"
#include "distributions/fitting.h"

namespace mrperf {

/// \brief First two raw moments of a random variable.
struct Moments {
  double mean = 0.0;
  double second = 0.0;  ///< E[X²]

  double Variance() const { return second - mean * mean; }
  double Cv() const;
};

/// \brief Moments of max(X, Y) for independent X, Y.
Result<Moments> MaxMoments(const FittedDistribution& x,
                           const FittedDistribution& y);

/// \brief Moments of X + Y for independent X, Y (no integration needed).
Moments SumMoments(const Moments& x, const Moments& y);

}  // namespace mrperf
