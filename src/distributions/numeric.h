/// \file numeric.h
/// \brief Adaptive Simpson quadrature of one integrand: the oracle for the
/// max-moments quadrature.
///
/// `MaxMoments` (order_stats.h) integrates E[max] and E[max²] in one
/// recursion that shares its abscissae between the two integrals. Running
/// IntegrateAdaptiveSimpson once per integral must give the same bits;
/// tests check that. Only tests and benches call it: the lint's
/// `oracle-only` check fails a call from src/ or tools/ outside
/// numeric.{h,cc}.

#pragma once

#include <functional>

#include "common/status.h"

namespace mrperf {

/// \brief Integrates `f` over [a, b] with adaptive Simpson quadrature.
///
/// \param f integrand, evaluated on [a, b]
/// \param a lower bound
/// \param b upper bound (>= a)
/// \param abs_tol absolute error target (> 0 and finite; anything else
///        is InvalidArgument)
/// \param max_depth recursion depth cap; the integration degrades to the
///        current best estimate rather than recursing past it
Result<double> IntegrateAdaptiveSimpson(
    const std::function<double(double)>& f, double a, double b,
    double abs_tol = 1e-10, int max_depth = 40);

}  // namespace mrperf
