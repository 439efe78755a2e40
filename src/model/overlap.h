/// \file overlap.h
/// \brief Intra-job (α) and inter-job (β) overlap factors (paper §4.2.3).
///
/// "For a system with multiple classes of tasks the queueing delay of task
/// class i due to task class j is directly proportional to their overlaps."
/// Both factors are estimated from the constructed timeline as the fraction
/// of task i's interval during which task j is also active:
///   θ_ij = |[st_i, et_i] ∩ [st_j, et_j]| / (et_i − st_i)
/// α applies to pairs from the same job, β to pairs from different jobs.
/// The scale knobs implement the paper's closing remark that "the cost
/// model can be further fine tuned ... by changing the calculation of the
/// overlap factors".

#pragma once

#include <vector>

#include "common/status.h"
#include "model/timeline.h"

namespace mrperf {

/// \brief Tuning of the overlap estimation.
struct OverlapOptions {
  double alpha_scale = 1.0;  ///< multiplier on intra-job overlaps
  double beta_scale = 1.0;   ///< multiplier on inter-job overlaps
};

/// \brief Combined overlap matrix over all timeline tasks.
struct OverlapFactors {
  /// theta[i][j]: overlap of timeline.tasks[j] onto timeline.tasks[i],
  /// already scaled by alpha/beta; clamped to [0, 1].
  std::vector<std::vector<double>> theta;
  /// Mean intra-job and inter-job factors (diagnostics / Figure 8 style).
  double mean_alpha = 0.0;
  double mean_beta = 0.0;
};

/// \brief Computes the dense T×T overlap factors from the timeline
/// intervals: the O(T²) oracle ComputeGroupedOverlapFactors is checked
/// against. Tests and benches only; SolveModel runs the grouped form.
Result<OverlapFactors> ComputeOverlapFactors(
    const Timeline& timeline, const OverlapOptions& options = {});

/// \brief One equivalence class of timeline tasks: identical
/// (job, node, interval, demand), hence identical θ rows and identical
/// MVA demand vectors. The timeline produces tasks in large such classes
/// (every map of one job/wave/node), which is what the group-compressed
/// A4 solve exploits.
struct OverlapGroup {
  int job = -1;
  int node = -1;
  Interval interval;
  ClassDemand demand;
  /// Number of member tasks.
  int count = 0;
  /// Timeline index of the first member (groups are ordered by it).
  int first_task = -1;
};

/// \brief Group-compressed overlap matrix: G×G blocks instead of T×T.
struct GroupedOverlapFactors {
  /// Classes in order of first appearance in the timeline.
  std::vector<OverlapGroup> groups;
  /// task_group[i]: class of timeline.tasks[i].
  std::vector<int> task_group;
  /// theta[g][h] (h ≠ g): overlap of a member of h onto a member of g,
  /// scaled by alpha/beta and clamped to [0, 1] exactly like the dense
  /// matrix. theta[g][g]: overlap between two *distinct* members of g
  /// (the intra-class factor — NOT a diagonal to be ignored).
  std::vector<std::vector<double>> theta;
  /// Mean intra-/inter-job factors over ordered task pairs — the same
  /// quantities the dense path reports, computed with count weights.
  double mean_alpha = 0.0;
  double mean_beta = 0.0;
};

/// \brief Computes the group-compressed overlap factors in
/// O(T·log G + G²) instead of the dense O(T²). The θ block values are
/// bit-identical to the dense entries for the corresponding task pairs
/// (same interval arithmetic on identical intervals); only the mean
/// diagnostics may differ in the last ulps (count-weighted summation).
Result<GroupedOverlapFactors> ComputeGroupedOverlapFactors(
    const Timeline& timeline, const OverlapOptions& options = {});

}  // namespace mrperf
