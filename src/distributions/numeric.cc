#include "distributions/numeric.h"

#include <cmath>

namespace mrperf {
namespace {

double SimpsonRule(const std::function<double(double)>& f, double a,
                   double fa, double b, double fb, double* fm_out) {
  const double m = 0.5 * (a + b);
  const double fm = f(m);
  *fm_out = fm;
  return (b - a) / 6.0 * (fa + 4.0 * fm + fb);
}

double AdaptiveStep(const std::function<double(double)>& f, double a,
                    double fa, double b, double fb, double fm, double whole,
                    double tol, int depth) {
  const double m = 0.5 * (a + b);
  double flm, frm;
  const double left = SimpsonRule(f, a, fa, m, fm, &flm);
  const double right = SimpsonRule(f, m, fm, b, fb, &frm);
  const double delta = left + right - whole;
  // Non-finite integrand values cannot be refined by subdividing; bail out
  // immediately so the NaN propagates to the caller's finiteness check
  // instead of recursing on 2^max_depth subintervals.
  if (!std::isfinite(delta)) return delta;
  if (depth <= 0 || std::abs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;
  }
  return AdaptiveStep(f, a, fa, m, fm, flm, left, 0.5 * tol, depth - 1) +
         AdaptiveStep(f, m, fm, b, fb, frm, right, 0.5 * tol, depth - 1);
}

}  // namespace

Result<double> IntegrateAdaptiveSimpson(
    const std::function<double(double)>& f, double a, double b,
    double abs_tol, int max_depth) {
  if (!(b >= a)) {
    return Status::InvalidArgument("integration bounds must satisfy b >= a");
  }
  // `abs_tol <= 0` alone lets a NaN through, and a NaN fails every stop
  // test: the recursion would split [a, b] into 2^max_depth subintervals.
  if (!std::isfinite(abs_tol) || abs_tol <= 0) {
    return Status::InvalidArgument(
        "integration tolerance must be positive and finite");
  }
  if (a == b) return 0.0;
  const double fa = f(a);
  const double fb = f(b);
  double fm;
  const double whole = SimpsonRule(f, a, fa, b, fb, &fm);
  const double value =
      AdaptiveStep(f, a, fa, b, fb, fm, whole, abs_tol, max_depth);
  if (!std::isfinite(value)) {
    return Status::Internal("integration produced a non-finite value");
  }
  return value;
}

}  // namespace mrperf
