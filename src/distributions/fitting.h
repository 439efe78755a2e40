/// \file fitting.h
/// \brief CV-driven distribution fitting (paper §4.2.4).
///
/// "We assume that the distribution of X is of Erlang type if its CV <= 1,
/// and Hyperexponential distribution if CV >= 1." The Tripathi estimator
/// fits both children of every P node this way, then integrates the
/// max-moments of the two fits (order_stats.h).

#pragma once

#include "common/status.h"

namespace mrperf {

/// \brief A distribution on [0, ∞) fitted to a (mean, cv) pair: a point
/// mass, an Erlang-k, or a two-phase hyperexponential (H2). A plain value;
/// the fields a family does not use keep their defaults.
struct FittedDistribution {
  enum class Family { kPointMass, kErlang, kHyperExponential };

  Family family = Family::kPointMass;
  /// Erlang stage count k; the per-stage rate is k / mean.
  int stages = 1;
  /// Target mean: the point-mass value, the Erlang mean, the H2 mean.
  double mean = 0.0;
  /// H2: probability of the first branch, Exp(mean1); else Exp(mean2).
  double p = 0.0;
  double mean1 = 0.0;
  double mean2 = 0.0;

  /// F(t) = P(X <= t).
  double Cdf(double t) const;

  /// A t beyond which the survival mass is negligible; bounds the
  /// max-moment quadrature.
  double UpperTailBound() const;
};

/// \brief Fits a distribution to a (mean, cv) pair following the paper's
/// rule: cv <= 1/24 → point mass; cv <= 1 → Erlang with
/// k = ErlangStagesForCv(cv) at the exact mean; cv > 1 → H2 with balanced
/// means (p·mean1 == (1-p)·mean2), the standard two-moment fit. Errors when
/// mean or cv is negative or not finite, when cv² overflows, or when
/// mean == 0 with cv > 0.
Result<FittedDistribution> FitByMeanCv(double mean, double cv);

/// \brief Number of Erlang stages used for a given cv in (0, 1]:
/// round(1/cv²), capped at 512.
int ErlangStagesForCv(double cv);

}  // namespace mrperf
