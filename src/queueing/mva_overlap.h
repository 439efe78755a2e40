/// \file mva_overlap.h
/// \brief Overlap-adjusted MVA for tasks with precedence constraints
/// (Figure 9 of the paper; Liang–Tripathi [4] / Mak–Lundstrom [5]).
///
/// Plain MVA assumes every customer contends with every other at all times.
/// Tasks of a parallel job, however, only interfere while they are
/// simultaneously active. Following Mak & Lundstrom, the queueing delay task
/// i suffers from task j at center k is weighted by their overlap factor
/// θ_ij — the probability that j is active while i executes:
///
///   R_{i,k} = S_{i,k} · (1 + Σ_{j≠i} θ_ij · q_{j,k} / servers_k)
///
/// where q_{j,k} = R_{j,k} / R_j is the conditional probability that an
/// active task j resides at center k. The θ matrix combines the paper's
/// intra-job α factors and inter-job β factors. The fixed point is solved by
/// damped iteration.
///
/// One production path: SolveGroupedOverlapMva on a
/// GroupedOverlapMvaProblem (task equivalence classes, mva_kernel.h's
/// grouped kernel), whatever the class count. The per-task
/// OverlapMvaProblem and SolveOverlapMva are the slow **oracle** that
/// path is checked against: reachable from tests and benches only
/// (tools/lint/check_source.py's `oracle-only` check bans calls from the
/// rest of src/ and tools/).

#pragma once

#include <vector>

#include "common/status.h"
#include "queueing/closed_network.h"
#include "queueing/mva_kernel.h"

namespace mrperf {

/// \brief One task (leaf of the precedence tree) in the overlap MVA.
struct OverlapTask {
  /// Service demand at each center (seconds of pure service).
  std::vector<double> demand;
};

/// \brief Per-task problem description: the oracle's input (one row per
/// task, dense T×T θ). GroupedOverlapMvaProblem::Expand builds one from
/// a production problem.
struct OverlapMvaProblem {
  std::vector<ServiceCenter> centers;
  std::vector<OverlapTask> tasks;
  /// theta[i][j] in [0,1]: probability task j is active while i executes.
  /// The diagonal is ignored.
  std::vector<std::vector<double>> overlap;

  Status Validate() const;
};

/// \brief One task equivalence class of a group-compressed problem: all
/// members share one demand vector and one θ row/column block.
struct OverlapTaskGroup {
  /// Service demand of ONE member at each center.
  std::vector<double> demand;
  /// Number of identical members (>= 1).
  int count = 1;
};

/// \brief Group-compressed problem description.
///
/// The timeline emits tasks in large equivalence classes (every map of
/// one job/wave/node has the same interval, demand vector and θ row).
/// This representation stores one row per class plus multiplicities, so
/// the θ blocks are G×G instead of T×T and the fixed point runs in
/// O(G²K) per iteration. The compression is exact: members of a class
/// start identical (residence == demand) and receive identical updates,
/// so the grouped fixed point is the per-task fixed point restricted to
/// the identical-member manifold.
struct GroupedOverlapMvaProblem {
  std::vector<ServiceCenter> centers;
  std::vector<OverlapTaskGroup> groups;
  /// overlap[g][h] (h ≠ g): θ of one member of class h onto a member of
  /// class g. overlap[g][g]: θ between two *distinct* members of g (the
  /// diagonal is meaningful here, unlike the per-task matrix).
  std::vector<std::vector<double>> overlap;
  /// Optional expansion map: task_group[i] = class of original task i.
  /// Size must be the total member count, with exactly groups[g].count
  /// entries equal to g. When empty, solutions stay at one row per
  /// class.
  std::vector<int> task_group;

  /// Total member count Σ groups[g].count.
  size_t TotalTasks() const;
  /// O(G² + T) structural validation.
  Status Validate() const;
  /// Materializes the equivalent per-task problem for the oracle
  /// (SolveOverlapMva): tasks in task_group order when the map is
  /// present, else class by class.
  OverlapMvaProblem Expand() const;
};

/// \brief Solver options.
struct OverlapMvaOptions {
  double tolerance = 1e-10;
  int max_iterations = 100'000;
  /// Under-relaxation in (0,1]; the default 0.5 is robust for the strongly
  /// coupled systems produced by many-map-task jobs.
  double damping = 0.5;
  /// Skip the O(T²) / O(G²) problem validation: the caller guarantees a
  /// problem valid by construction (model.cc's BuildGroupedMvaProblem, or a
  /// problem already validated at an API entry point — SolveCache
  /// validates once per SolveThrough and never re-validates on hits or
  /// the miss solve). Never affects results; not part of cache keys.
  bool assume_valid = false;
  /// Optional warm start (not owned; must outlive the solve): an initial
  /// residence matrix replacing the zero-contention start when its shape
  /// matches the solved system — T×K for the oracle, G×K for the
  /// grouped kernel. A near-fixed-point guess (the previous
  /// outer-loop iterate, a neighboring sweep point's solution) cuts the
  /// iteration count by an order of magnitude; a mismatched shape is
  /// ignored (cold start, bit-identical to historical behavior).
  /// A kernel-level knob only: SolveModel always solves cold, and
  /// SolveCache::SolveThrough rejects a seeded call (a warm solve
  /// reaches the fixed point only within tolerance, along a different
  /// trajectory, so it must never enter a shared cache).
  const FlatMatrix* initial_residence = nullptr;
};

/// \brief Per-task solution.
struct OverlapMvaSolution {
  /// residence[i][k]: time task i spends at center k (queueing included).
  std::vector<std::vector<double>> residence;
  /// response[i]: Σ_k residence[i][k].
  std::vector<double> response;
  int iterations = 0;
  /// True when the solve ran from a caller-provided initial residence
  /// (OverlapMvaOptions::initial_residence with a matching shape).
  /// Diagnostic only, and always false for cached solutions (only cold
  /// solves are cached).
  bool warm_started = false;
};

/// \brief The oracle: solves the per-task fixed point with the scalar
/// gather kernel. Slow (O(T²K) per sweep) and simple; production solves
/// go through SolveGroupedOverlapMva, which is bit-identical to this on
/// all-singleton problems and within solver tolerance otherwise.
///
/// \param scratch optional reusable kernel buffers (one per thread); when
/// null a solve-local scratch is used. Reusing a scratch across solves
/// (as the sweep engine does per worker) eliminates the per-solve
/// allocations that dominate small problems.
Result<OverlapMvaSolution> SolveOverlapMva(
    const OverlapMvaProblem& problem, const OverlapMvaOptions& options = {},
    MvaKernelScratch* scratch = nullptr);

/// \brief Packs `problem` for the oracle (RunOverlapMvaFixedPoint):
/// demands and the θ matrix, center metadata, and the zero-contention
/// starting point (residence == demand).
void PackOverlapMvaProblem(const OverlapMvaProblem& problem,
                           MvaKernelScratch* scratch);

/// \brief The production A4 solve: runs the O(G²K) grouped fixed point
/// and returns the PER-TASK solution (groups expanded through
/// `problem.task_group`; one row per class when the map is empty).
Result<OverlapMvaSolution> SolveGroupedOverlapMva(
    const GroupedOverlapMvaProblem& problem,
    const OverlapMvaOptions& options = {}, MvaKernelScratch* scratch = nullptr);

/// \brief Group-level solve: one residence/response row per class, no
/// expansion. Always runs the grouped kernel — used by SolveCache to
/// store solutions at G rows instead of T.
Result<OverlapMvaSolution> SolveGroupedOverlapMvaGroupLevel(
    const GroupedOverlapMvaProblem& problem,
    const OverlapMvaOptions& options = {}, MvaKernelScratch* scratch = nullptr);

/// \brief Expands a group-level solution to per-task rows via
/// `task_group` (returns the input unchanged when the map is empty).
OverlapMvaSolution ExpandGroupedMvaSolution(
    const OverlapMvaSolution& group_solution,
    const std::vector<int>& task_group);

/// \brief Copies a solution's residence rows into a flat row-major
/// matrix usable as `OverlapMvaOptions::initial_residence` — the bridge
/// from one solve's fixed point to the next solve's warm start. Rows
/// must be rectangular (they are for every solver output).
FlatMatrix SolutionResidenceMatrix(const OverlapMvaSolution& solution);

/// \brief Packs a grouped `problem` for RunGroupedOverlapMvaFixedPoint:
/// per-class demands, the count-weighted W matrix (W[g][h] = count_h·θ_gh
/// off-diagonal, (count_g−1)·θ_gg on it), the zero-contention starting
/// point and its refreshed q rows.
void PackGroupedOverlapMvaProblem(const GroupedOverlapMvaProblem& problem,
                                  MvaKernelScratch* scratch);

}  // namespace mrperf
