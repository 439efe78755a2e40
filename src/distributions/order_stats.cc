#include "distributions/order_stats.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace mrperf {
namespace {

constexpr double kIntegrationTol = 1e-9;
constexpr int kMaxDepth = 40;  // IntegrateAdaptiveSimpson's default

// Both max-moment integrands at one abscissa t, from one joint-CDF
// evaluation F(t) = F_X(t)·F_Y(t): [0] is 1 − F(t) (E[max]), [1] is
// 2t·(1 − F(t)) (E[max²]).
using Integrands = std::array<double, 2>;

// One adaptive-Simpson step on [a, b] for both integrals at once. Each
// integral k takes exactly the steps IntegrateAdaptiveSimpson
// (numeric.h) would take on it alone: its own Simpson sums, non-finite
// bail-out, |delta| <= 15·tol stop test at the shared tol and depth, and
// left + right summation. An integral that stops here leaves its
// `refine` slot false and the other recurses alone; `f` is called once
// per abscissa for both. Only the slots `active` marks are written.
template <typename F>
Integrands AdaptiveStep(const F& f, double a, const Integrands& fa, double b,
                        const Integrands& fb, const Integrands& fm,
                        const Integrands& whole, double tol, int depth,
                        std::array<bool, 2> active) {
  const double m = 0.5 * (a + b);
  const Integrands flm = f(0.5 * (a + m));
  const Integrands frm = f(0.5 * (m + b));
  Integrands out{};
  Integrands left{};
  Integrands right{};
  std::array<bool, 2> refine{};
  for (int k = 0; k < 2; ++k) {
    if (!active[k]) continue;
    left[k] = (m - a) / 6.0 * (fa[k] + 4.0 * flm[k] + fm[k]);
    right[k] = (b - m) / 6.0 * (fm[k] + 4.0 * frm[k] + fb[k]);
    const double delta = left[k] + right[k] - whole[k];
    if (!std::isfinite(delta)) {
      out[k] = delta;
    } else if (depth <= 0 || std::abs(delta) <= 15.0 * tol) {
      out[k] = left[k] + right[k] + delta / 15.0;
    } else {
      refine[k] = true;
    }
  }
  if (refine[0] || refine[1]) {
    const Integrands l = AdaptiveStep(f, a, fa, m, fm, flm, left, 0.5 * tol,
                                      depth - 1, refine);
    const Integrands r = AdaptiveStep(f, m, fm, b, fb, frm, right, 0.5 * tol,
                                      depth - 1, refine);
    for (int k = 0; k < 2; ++k) {
      if (refine[k]) out[k] = l[k] + r[k];
    }
  }
  return out;
}

}  // namespace

double Moments::Cv() const {
  if (mean == 0.0) return 0.0;
  const double var = Variance();
  return var > 0.0 ? std::sqrt(var) / mean : 0.0;
}

Result<Moments> MaxMoments(const FittedDistribution& x,
                           const FittedDistribution& y) {
  // At least 0 and never NaN (std::max returns its first argument when the
  // second is NaN), so the oracle's bounds check cannot fail here; at
  // upper == 0 every Simpson sum below is exactly 0, which the oracle's
  // empty-interval return gives too.
  const double upper =
      std::max(std::max(0.0, x.UpperTailBound()), y.UpperTailBound());
  auto f = [&x, &y](double t) {
    const double tail = 1.0 - x.Cdf(t) * y.Cdf(t);
    return Integrands{tail, 2.0 * t * tail};
  };
  const double a = 0.0;
  const Integrands fa = f(a);
  const Integrands fb = f(upper);
  const Integrands fm = f(0.5 * (a + upper));
  Integrands whole{};
  for (int k = 0; k < 2; ++k) {
    whole[k] = (upper - a) / 6.0 * (fa[k] + 4.0 * fm[k] + fb[k]);
  }
  const std::array<bool, 2> both = {true, true};
  const Integrands value = AdaptiveStep(f, a, fa, upper, fb, fm, whole,
                                        kIntegrationTol, kMaxDepth, both);
  if (!std::isfinite(value[0]) || !std::isfinite(value[1])) {
    return Status::Internal("integration produced a non-finite value");
  }
  Moments out;
  out.mean = value[0];
  // Quadrature noise can push E[X²] slightly below mean²; clamp so the
  // implied variance is never negative.
  out.second = std::max(value[1], out.mean * out.mean);
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
