/// \file mva_kernel.h
/// \brief Flat, cache-friendly compute kernels for the overlap-MVA fixed
/// point (activity A4 of the modified-MVA loop, re-solved every outer
/// iteration of every sweep point).
///
/// The solver state lives in contiguous row-major buffers instead of
/// vector-of-vectors: `residence`, `q` and `interference` are T×K and
/// the θ matrix is T×T, where a row is one task equivalence class in
/// production and one task in the oracle. Two kernels compute the
/// per-iteration interference term Σ_j θ_ij · q_{j,k}:
///
///  - **Grouped (production)** — the term as a blocked T×T · T×K matrix
///    product over G task *equivalence classes*. The timeline emits
///    map/reduce tasks in large batches with identical intervals,
///    demands and θ rows; all members of such a class stay identical
///    through every fixed-point iteration, so the iteration runs exactly
///    on G×K buffers with a count-weighted θ matrix (one member
///    interferes with `count−1` siblings at the intra-class factor).
///    The inner loop is a straight-line multiply–add over contiguous
///    rows that the compiler vectorizes, and the q-row refresh is fused
///    into the residence update. Every A4 solve runs this kernel,
///    whatever G is.
///  - **Scalar oracle** — the original per-task, per-(i,k) gather loop
///    with a separate q refresh per sweep, kept only as the slow
///    reference the grouped kernel is checked against (tests and
///    benches; see SolveOverlapMva in mva_overlap.h).
///
/// When every class is a singleton the count-weighted matrix is θ with
/// an exact +0.0 diagonal, every (i,k) element accumulates in
/// ascending-j order in both kernels (adding +0.0 to a non-negative
/// partial sum is a bitwise identity), and the fused q refresh computes
/// what the oracle's refresh computes at the top of the next sweep — so
/// the two kernels are **bit-for-bit identical** there, asserted by
/// tests/queueing/mva_kernel_test on figure-shaped and random problems.
/// With real classes the grouped kernel collapses sibling summands into
/// one `count·θ·q` multiply, which reorders floating point: it matches
/// the oracle on the expanded problem within solver tolerance.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mrperf {

/// \brief Minimal contiguous row-major matrix used by the MVA solvers.
///
/// `Reshape` keeps the underlying capacity, so a reused matrix stops
/// allocating once it has seen the largest problem of a sweep.
struct FlatMatrix {
  std::vector<double> data;
  size_t rows = 0;
  size_t cols = 0;

  /// Zero-fills — some consumers (exact MVA's state-0 row, approx MVA's
  /// empty-class rows) read rows they never write.
  void Reshape(size_t r, size_t c) {
    rows = r;
    cols = c;
    data.assign(r * c, 0.0);
  }
  /// Reshape without the O(r·c) zero pass: contents are unspecified and
  /// every element must be written before it is read. The kernel pack
  /// path qualifies (pack/RefreshQ/both kernels overwrite everything),
  /// which makes per-worker scratch reuse memset-free as well as
  /// allocation-free.
  void ReshapeUninit(size_t r, size_t c) {
    rows = r;
    cols = c;
    data.resize(r * c);
  }
  double* Row(size_t r) { return data.data() + r * cols; }
  const double* Row(size_t r) const { return data.data() + r * cols; }
  double& At(size_t r, size_t c) { return data[r * cols + c]; }
  double At(size_t r, size_t c) const { return data[r * cols + c]; }
};

/// \brief Reusable buffers for one overlap-MVA solve.
///
/// Packing a problem reshapes every buffer; reusing one scratch across
/// solves (the sweep engine keeps one per worker thread) amortizes the
/// allocations that otherwise dominate small problems. A scratch is not
/// thread-safe: use one per thread.
struct MvaKernelScratch {
  // Problem, packed row-major (PackGroupedOverlapMvaProblem or the
  // oracle's PackOverlapMvaProblem, mva_overlap.h).
  FlatMatrix demand;   ///< T×K service demands.
  /// T×T interference weights: the count-weighted W of the grouped
  /// kernel, or the oracle's θ (diagonal never read).
  FlatMatrix overlap;
  /// K; 1 / server_count, so the update loop multiplies instead of
  /// dividing (exact for the power-of-two server counts clusters use;
  /// otherwise within 1 ulp — far inside solver tolerance).
  std::vector<double> inv_servers;
  std::vector<uint8_t> is_delay;  ///< K; 1 for infinite-server centers.

  // Iteration state / outputs.
  FlatMatrix residence;     ///< T×K; final residence times.
  FlatMatrix q;             ///< T×K; conditional location probabilities.
  FlatMatrix interference;  ///< T×K; Σ_j θ_ij · q_{j,k}.
  std::vector<double> response;  ///< T; row sums of residence.

  size_t tasks() const { return demand.rows; }
  size_t centers() const { return demand.cols; }
};

/// \brief Outcome of the fixed-point iteration.
struct MvaKernelResult {
  /// True when max |Δresidence| ≤ tolerance was reached within the
  /// iteration budget — including exactly on the final allowed
  /// iteration (a sweep that meets tolerance is converged no matter
  /// how many budget iterations remain).
  bool converged = false;
  /// Damped sweeps performed.
  int iterations = 0;
  /// True when the run was seeded from a caller-provided initial
  /// residence instead of the zero-contention pack (a dimension-
  /// mismatched guess is ignored and reports false).
  bool warm_started = false;
};

/// \brief Runs the scalar oracle: the damped per-task overlap-MVA fixed
/// point on packed buffers, one gather loop per (task, center).
///
/// Expects `scratch` packed by PackOverlapMvaProblem (mva_overlap.h);
/// `residence` must hold the zero-contention initial guess (== demand)
/// and `response` its row sums. On return `residence`/`response` hold
/// the fixed point.
///
/// `initial_residence` (optional) warm-starts the iteration: when its
/// shape matches the packed T×K residence buffer it replaces the
/// zero-contention start (response row sums are recomputed from it), so
/// a guess near the fixed point — the previous outer-loop iterate, a
/// neighboring sweep point's solution — converges in a fraction of the
/// cold iteration count. A null or shape-mismatched guess is ignored
/// and the run is bit-identical to the historical cold start. Warm
/// starts reach the same fixed point within the solver tolerance but
/// along a different trajectory, so the converged bits may differ from
/// a cold solve by up to that tolerance.
MvaKernelResult RunOverlapMvaFixedPoint(MvaKernelScratch& scratch,
                                        double tolerance, int max_iterations,
                                        double damping,
                                        const FlatMatrix* initial_residence =
                                            nullptr);

/// \brief Runs the production kernel: the group-compressed fixed point
/// on packed G-row buffers.
///
/// Expects `scratch` packed by PackGroupedOverlapMvaProblem
/// (mva_overlap.h): `overlap` holds the count-weighted G×G matrix
/// W[g][h] = count_h·θ_gh (h ≠ g) with diagonal (count_g−1)·θ_gg, and
/// `q` the refreshed rows of the zero-contention starting point. Each
/// sweep runs the blocked interference product over the G rows and
/// refreshes every q row inside the residence update (fused RefreshQ),
/// so an iteration is one pass over G×K state instead of two.
///
/// `initial_residence` warm-starts the G×K iteration exactly like the
/// oracle above; the q rows are re-refreshed from the seeded
/// residence (this kernel has no leading RefreshQ pass).
MvaKernelResult RunGroupedOverlapMvaFixedPoint(MvaKernelScratch& scratch,
                                               double tolerance,
                                               int max_iterations,
                                               double damping,
                                               const FlatMatrix*
                                                   initial_residence =
                                                       nullptr);

/// \brief Per-thread scratch singleton for solver callers that cannot
/// thread an explicit scratch through (the sweep engine's workers).
MvaKernelScratch& ThreadLocalMvaScratch();

}  // namespace mrperf
