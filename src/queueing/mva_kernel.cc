#include "queueing/mva_kernel.h"

#include <algorithm>
#include <cmath>

/// Emit SIMD variants (SSE2 baseline / AVX2) of the blocked product
/// with runtime dispatch, so one portable binary uses wide vectors
/// where the host has them. An avx512f clone measured *slower* here
/// (GCC 12, Ice Lake-class host) and is deliberately omitted. The TU
/// is compiled with -ffp-contract=off (CMakeLists), so no clone fuses
/// multiply–add into FMA and every variant produces the plain loop's
/// bits (and, on all-singleton problems, the scalar oracle's);
/// vectorizing the k loop never reorders a per-(i,k) accumulator.
/// ThreadSanitizer cannot coexist with target_clones: the clones'
/// ifunc resolver runs during relocation, before the TSan runtime
/// initializes, and crashes at load. The unvectorized product is
/// bit-identical to the clones, so TSan builds lose only speed.
#if defined(__SANITIZE_THREAD__)
#define MRPERF_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MRPERF_TSAN_BUILD 1
#endif
#endif

#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute) && \
    !defined(MRPERF_TSAN_BUILD)
#if __has_attribute(target_clones)
#define MRPERF_SIMD_CLONES __attribute__((target_clones("default", "avx2")))
#endif
#endif
#ifndef MRPERF_SIMD_CLONES
#define MRPERF_SIMD_CLONES
#endif

namespace mrperf {
namespace {

/// i-tile height for the blocked product: tall enough to reuse each q
/// row several times, short enough that the tile's interference rows
/// stay resident in L1.
constexpr size_t kTileRows = 8;

/// Refreshes q[j][k] = residence[j][k] / response[j] (0 when idle) at
/// the top of every oracle sweep. The division is hoisted to one
/// reciprocal per row so the inner loop is the same multiply the grouped
/// kernel's fused refresh runs.
void RefreshQ(MvaKernelScratch& s) {
  const size_t T = s.tasks();
  const size_t K = s.centers();
  for (size_t j = 0; j < T; ++j) {
    const double* __restrict res = s.residence.Row(j);
    double* __restrict qj = s.q.Row(j);
    const double response = s.response[j];
    const double inv_response = response > 0 ? 1.0 / response : 0.0;
    for (size_t k = 0; k < K; ++k) {
      qj[k] = res[k] * inv_response;
    }
  }
}

/// Applies the residence update for row i given its interference row,
/// returning the row's response sum and folding |Δ| into *max_delta.
/// The arithmetic (and its order) is shared by both kernels, so they can
/// only differ in how the interference term is accumulated — and both
/// accumulate it in ascending-j order, which makes them bit-identical
/// on all-singleton problems.
double UpdateResidenceRow(MvaKernelScratch& s, size_t i,
                          const double* interference, double damping,
                          double* max_delta) {
  const size_t K = s.centers();
  const double* demand = s.demand.Row(i);
  double* res = s.residence.Row(i);
  double new_response = 0.0;
  for (size_t k = 0; k < K; ++k) {
    const double new_res =
        s.is_delay[k]
            ? demand[k]
            : demand[k] * (1.0 + interference[k] * s.inv_servers[k]);
    const double damped = res[k] + damping * (new_res - res[k]);
    *max_delta = std::max(*max_delta, std::abs(damped - res[k]));
    res[k] = damped;
    new_response += damped;
  }
  return new_response;
}

/// One damped oracle sweep with the original per-(i,k) gather loops.
double ScalarSweep(MvaKernelScratch& s, double damping) {
  const size_t T = s.tasks();
  const size_t K = s.centers();
  double max_delta = 0.0;
  for (size_t i = 0; i < T; ++i) {
    const double* theta = s.overlap.Row(i);
    double* interference = s.interference.Row(i);
    for (size_t k = 0; k < K; ++k) {
      // Delay centers never read their interference term; skip the
      // O(T) gather (the pre-kernel solver branched the same way).
      if (s.is_delay[k]) continue;
      double sum = 0.0;
      for (size_t j = 0; j < T; ++j) {
        if (j == i) continue;
        sum += theta[j] * s.q.At(j, k);
      }
      interference[k] = sum;
    }
    s.response[i] =
        UpdateResidenceRow(s, i, interference, damping, &max_delta);
  }
  return max_delta;
}

/// interference = θ · q as a blocked matrix product: for each i-tile
/// the j loop streams θ rows and q rows contiguously and the k loop is
/// a straight multiply–add the compiler vectorizes. Only this pure
/// product is multiversioned — the branchy residence update vectorizes
/// poorly and dilutes the clones when included.
MRPERF_SIMD_CLONES
void BlockedInterference(MvaKernelScratch& s) {
  const size_t T = s.tasks();
  const size_t K = s.centers();
  std::fill(s.interference.data.begin(), s.interference.data.end(), 0.0);
  for (size_t i0 = 0; i0 < T; i0 += kTileRows) {
    const size_t i1 = std::min(i0 + kTileRows, T);
    for (size_t j = 0; j < T; ++j) {
      const double* __restrict qj = s.q.Row(j);
      for (size_t i = i0; i < i1; ++i) {
        const double w = s.overlap.At(i, j);
        double* __restrict acc = s.interference.Row(i);
        for (size_t k = 0; k < K; ++k) acc[k] += w * qj[k];
      }
    }
  }
}

/// One grouped sweep over G rows: the blocked product on the
/// count-weighted W matrix, then the residence update with the q-row
/// refresh fused in — q for the next iteration is written while the
/// freshly damped residence row is still hot, eliminating the oracle's
/// separate RefreshQ pass. The fused refresh computes exactly what
/// RefreshQ would at the top of the next iteration, so the iteration
/// sequence matches the oracle's step for step.
double GroupedSweep(MvaKernelScratch& s, double damping) {
  const size_t G = s.tasks();
  const size_t K = s.centers();
  BlockedInterference(s);
  double max_delta = 0.0;
  for (size_t g = 0; g < G; ++g) {
    const double response =
        UpdateResidenceRow(s, g, s.interference.Row(g), damping, &max_delta);
    s.response[g] = response;
    const double inv_response = response > 0 ? 1.0 / response : 0.0;
    const double* __restrict res = s.residence.Row(g);
    double* __restrict qg = s.q.Row(g);
    for (size_t k = 0; k < K; ++k) qg[k] = res[k] * inv_response;
  }
  return max_delta;
}

/// Seeds the iteration state from a caller-provided residence matrix:
/// copies it over the packed zero-contention start and recomputes the
/// per-row response sums. Returns false (leaving the scratch untouched)
/// when the guess's shape does not match the packed problem — the
/// caller falls back to the cold start.
bool SeedInitialResidence(MvaKernelScratch& s, const FlatMatrix* initial) {
  if (initial == nullptr) return false;
  if (initial->rows != s.residence.rows ||
      initial->cols != s.residence.cols) {
    return false;
  }
  const size_t T = s.residence.rows;
  const size_t K = s.residence.cols;
  s.residence.data = initial->data;
  for (size_t i = 0; i < T; ++i) {
    const double* res = s.residence.Row(i);
    double response = 0.0;
    for (size_t k = 0; k < K; ++k) response += res[k];
    s.response[i] = response;
  }
  return true;
}

}  // namespace

MvaKernelResult RunOverlapMvaFixedPoint(MvaKernelScratch& scratch,
                                        double tolerance, int max_iterations,
                                        double damping,
                                        const FlatMatrix* initial_residence) {
  MvaKernelResult result;
  // The oracle refreshes q from residence at the top of every sweep, so
  // seeding residence (+ response sums) is sufficient.
  result.warm_started = SeedInitialResidence(scratch, initial_residence);
  for (int iter = 1; iter <= max_iterations; ++iter) {
    RefreshQ(scratch);
    const double max_delta = ScalarSweep(scratch, damping);
    result.iterations = iter;
    if (max_delta <= tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

MvaKernelResult RunGroupedOverlapMvaFixedPoint(MvaKernelScratch& scratch,
                                               double tolerance,
                                               int max_iterations,
                                               double damping,
                                               const FlatMatrix*
                                                   initial_residence) {
  // No leading RefreshQ: the pack initialized q from the starting
  // residence, and every sweep refreshes q for the next one. A warm
  // seed therefore re-refreshes the q rows here, computing exactly what
  // the pack would have from the seeded residence.
  MvaKernelResult result;
  result.warm_started = SeedInitialResidence(scratch, initial_residence);
  if (result.warm_started) {
    const size_t G = scratch.tasks();
    const size_t K = scratch.centers();
    for (size_t g = 0; g < G; ++g) {
      const double response = scratch.response[g];
      const double inv_response = response > 0 ? 1.0 / response : 0.0;
      const double* __restrict res = scratch.residence.Row(g);
      double* __restrict qg = scratch.q.Row(g);
      for (size_t k = 0; k < K; ++k) qg[k] = res[k] * inv_response;
    }
  }
  for (int iter = 1; iter <= max_iterations; ++iter) {
    const double max_delta = GroupedSweep(scratch, damping);
    result.iterations = iter;
    if (max_delta <= tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

MvaKernelScratch& ThreadLocalMvaScratch() {
  static thread_local MvaKernelScratch scratch;
  return scratch;
}

}  // namespace mrperf
