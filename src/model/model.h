/// \file model.h
/// \brief The Hadoop 2.x MapReduce performance model — the paper's core
/// contribution (§4, Figure 4).
///
/// Iterates activities A1–A6 of the modified MVA algorithm:
///   A1  initialize class residence/response times (Herodotou static model
///       via ModelInputFromHerodotou, or caller-provided sample values);
///   A2  build the timeline (Algorithm 1) and the precedence tree;
///   A3  estimate intra-/inter-job overlap factors from the timeline;
///   A4  estimate per-task response times with the overlap-adjusted MVA on
///       per-node CPU/disk/network service centers;
///   A5  estimate the average job response time from the tree with both
///       the Tripathi and the Fork/Join approaches;
///   A6  convergence test with ε = 10⁻⁷ (paper recommendation), with
///       damping on the class-response updates to guarantee stability of
///       the discrete timeline→tree→MVA loop.
///
/// Tripathi's estimate feeds nothing back into A2–A4, so it runs only for
/// the iterations A6 or the answer reads: the current and the previous
/// one once every other A6 condition holds or the period-2 exit fires,
/// and the last one for a best-effort non-converged answer. Outputs are
/// bit-identical to evaluating every iteration. A failure only Tripathi
/// would raise (moments that overflow a double; Fork/Join still checks
/// every leaf on every iteration, and `leaf_cv` is checked at entry)
/// surfaces only from an iteration that is read.
///
/// Deviation from the paper: the paper aggregates resources into two
/// cluster-wide centers (CPU&Memory, Network); because the timeline
/// provides task placement, this implementation instantiates CPU, disk and
/// network centers per node, which localizes contention the same way the
/// validation cluster does.

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "model/estimators.h"
#include "model/input.h"
#include "model/overlap.h"
#include "model/precedence_tree.h"
#include "model/timeline.h"
#include "queueing/mva_overlap.h"
#include "queueing/solve_cache.h"

namespace mrperf {

/// \brief Solver options for the modified MVA loop.
struct ModelOptions {
  /// Convergence threshold on the mean job response (paper: 10⁻⁷).
  double epsilon = 1e-7;
  /// Additional relative threshold: |ΔR| / R ≤ epsilon_relative also
  /// counts as converged. The timeline is a discrete structure (container
  /// placement flips), so an absolute 10⁻⁷ on multi-hundred-second
  /// responses is not always reachable.
  double epsilon_relative = 1e-6;
  int max_iterations = 300;
  /// Under-relaxation of class-response updates in (0, 1].
  double damping = 0.5;
  /// Balance P-subtrees (paper default true; §5.2 ablation).
  bool balance_tree = true;
  EstimatorOptions estimator;
  OverlapOptions overlap;
  OverlapMvaOptions mva;
  /// Optional shared memoization cache for the A4 overlap-MVA solves
  /// (not owned; may be shared across threads). The sweep engine wires
  /// one cache through every point of a sweep so identical fixed points
  /// — period-2 placement cycles, repeated calibration points — are
  /// solved once. A hit is bit-identical to recomputation, so enabling
  /// the cache never changes results.
  SolveCache* mva_cache = nullptr;
  /// Optional reusable kernel buffers for the A4 solves (not owned; one
  /// per thread — a scratch is not thread-safe). The sweep engine wires
  /// a per-worker scratch through so grid sweeps stop reallocating
  /// solver state on every point.
  MvaKernelScratch* mva_scratch = nullptr;
  /// When false, a failure to converge returns Status::NotConverged
  /// instead of the best-effort estimate.
  bool allow_nonconverged = true;
};

/// \brief Full model output.
struct ModelResult {
  /// Mean job response time across the N concurrent jobs, per estimator.
  double forkjoin_response = 0.0;
  double tripathi_response = 0.0;
  /// Per-job estimates (includes each job's FIFO queueing offset).
  std::vector<double> forkjoin_job_responses;
  std::vector<double> tripathi_job_responses;
  /// Converged per-class response times (mean over tasks of the class).
  double map_response = 0.0;
  double shuffle_sort_response = 0.0;
  double merge_response = 0.0;
  /// Overlap diagnostics.
  double mean_alpha = 0.0;
  double mean_beta = 0.0;
  /// Tree/loop diagnostics.
  int tree_depth = 0;
  int iterations = 0;
  bool converged = false;
  /// A4 solver effort across the outer loop: cumulative damped MVA
  /// sweeps executed (solves answered by `mva_cache` execute none).
  int64_t mva_iterations = 0;
  /// A5 effort: outer iterations whose Tripathi trees were evaluated
  /// (each at most once). Two on an ε or period-2 exit that had no
  /// earlier near miss, one on a best-effort non-converged answer.
  int tripathi_evaluations = 0;
  /// The final timeline (placement, intervals).
  Timeline timeline;
};

/// \brief Runs the modified MVA algorithm to convergence.
Result<ModelResult> SolveModel(const ModelInput& input,
                               const ModelOptions& options = {});

}  // namespace mrperf
