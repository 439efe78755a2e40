/// \file mva_kernel.h
/// \brief Flat, cache-friendly compute kernel for the overlap-MVA fixed
/// point (the hot path of the modified-MVA loop: O(tasks² × centers) per
/// iteration, re-solved for every sweep point).
///
/// The solver state lives in contiguous row-major buffers instead of
/// vector-of-vectors: `residence`, `q` and `interference` are T×K, the
/// θ matrix is T×T with a zeroed diagonal. Three paths compute the
/// per-iteration interference term Σ_{j≠i} θ_ij · q_{j,k}:
///
///  - **Scalar reference** — the original per-(i,k) gather loop, kept as
///    the semantic baseline (and the faster choice for tiny problems).
///  - **Blocked** — the whole term as a T×T · T×K matrix product in
///    i-tiles, so the inner loop is a straight-line multiply–add over
///    contiguous rows that the compiler auto-vectorizes.
///  - **Grouped** — the same blocked product over G task *equivalence
///    classes* instead of T tasks. The timeline emits map/reduce tasks
///    in large batches with identical intervals, demands and θ rows;
///    all members of such a class stay identical through every
///    fixed-point iteration, so the iteration runs exactly on G×K
///    buffers with a count-weighted θ matrix (one member interferes
///    with `count−1` siblings at the intra-class factor). Per-iteration
///    cost drops from O(T²K) to O(G²K) and the q-row refresh is fused
///    into the residence update (no separate RefreshQ pass).
///
/// The scalar and blocked paths accumulate every (i,k) element in
/// ascending-j order and the packed diagonal is exactly 0.0 (adding
/// +0.0 to the non-negative partial sums is a bitwise identity), so
/// those two paths are **bit-for-bit identical** — asserted by
/// tests/queueing/mva_kernel_test on the calibrated figure problems and
/// on random instances. The grouped path collapses sibling summands
/// into one `count·θ·q` multiply, which reorders floating point: it
/// matches the per-task reference within solver tolerance (and is
/// bit-identical when every class is a singleton, where the weighted
/// matrix degenerates to θ itself). SolveCache therefore keys
/// grouped solves separately from per-task solves.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mrperf {

/// \brief Which interference kernel the overlap-MVA iteration uses.
enum class MvaKernelPath {
  /// Pick per problem size: blocked for large task counts, scalar below
  /// the crossover. The default for all callers.
  kAuto,
  /// Original nested gather loops (reference semantics).
  kScalar,
  /// Blocked T×T · T×K product over contiguous rows (vectorizable).
  kBlocked,
  /// Group-compressed fixed point: the blocked product over G task
  /// equivalence classes with count-weighted θ and a fused q refresh.
  /// Only meaningful for grouped problems (mva_overlap.h); a per-task
  /// solve asked for kGrouped degenerates to kBlocked.
  kGrouped,
};

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
  /// path qualifies (pack/RefreshQ/both sweeps overwrite everything),
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
  // Problem, packed row-major (filled by PackOverlapMvaProblem).
  FlatMatrix demand;   ///< T×K service demands.
  FlatMatrix overlap;  ///< T×T θ matrix, diagonal forced to 0.0.
  /// K; 1 / server_count, so the update loop multiplies instead of
  /// dividing (exact for the power-of-two server counts clusters use;
  /// otherwise within 1 ulp — far inside solver tolerance).
  std::vector<double> inv_servers;
  std::vector<uint8_t> is_delay;  ///< K; 1 for infinite-server centers.

  // Iteration state / outputs.
  FlatMatrix residence;     ///< T×K; final residence times.
  FlatMatrix q;             ///< T×K; conditional location probabilities.
  FlatMatrix interference;  ///< T×K; Σ_j θ_ij · q_{j,k} (blocked path).
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

/// \brief Resolves kAuto to a concrete path for a T-task problem.
/// kGrouped resolves to kBlocked here: a per-task problem carries no
/// group structure (it is all singleton classes, where grouped and
/// blocked coincide bit-for-bit).
MvaKernelPath ResolveMvaKernelPath(MvaKernelPath requested, size_t tasks);

/// \brief Resolves the path for a grouped problem with `tasks` members
/// in `groups` classes. kAuto picks kGrouped whenever the compression is
/// real (groups < tasks) and falls back to the per-task resolution when
/// every class is a singleton.
MvaKernelPath ResolveGroupedMvaKernelPath(MvaKernelPath requested,
                                          size_t tasks, size_t groups);

/// \brief Runs the damped overlap-MVA fixed point on packed buffers.
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
                                        double damping, MvaKernelPath path,
                                        const FlatMatrix* initial_residence =
                                            nullptr);

/// \brief Runs the group-compressed fixed point on packed G-row buffers.
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
/// per-task kernel above; the q rows are re-refreshed from the seeded
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
