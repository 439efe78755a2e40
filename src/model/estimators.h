/// \file estimators.h
/// \brief Job average response time estimation from the precedence tree
/// (paper §4.2.4): the Tripathi-based and the Fork/Join-based approaches.
///
/// Both estimators consume the tree plus per-leaf response times (the
/// current MVA estimates). Leaves are assigned a coefficient of variation
/// (the classic MVA exponential-service assumption gives CV = 1; the knob
/// exposes the paper's accuracy-tuning space).
///
/// Tripathi [4, 9]: each subtree's response-time distribution is
/// approximated by an Erlang (CV <= 1) or a Hyperexponential (CV >= 1)
/// matched to its first two moments; S nodes add moments (independence),
/// P nodes take max-moments by numerical integration of the fitted CDFs.
///
/// Fork/Join [10, 12]: a parallel phase is a fork-join block estimated by
/// the harmonic-number formula R = H_k · max(T_1..T_k). Two evaluation
/// modes are provided:
///   * kGroupHarmonic (default): H is taken per phase group with k = group
///     size — Varki's original estimate, exact for iid exponential tasks;
///   * kNestedBinary: the paper's literal reading — H_2 = 3/2 applied at
///     every binary P node ("The precedence tree is a binary tree. Thus,
///     Hk = 3/2, ∀k"); with balancing this compounds to 1.5^ceil(log2 k)
///     per group and is kept as an ablation.

#pragma once

#include <functional>

#include "common/status.h"
#include "model/precedence_tree.h"
#include "model/timeline.h"

namespace mrperf {

/// \brief Fork/join evaluation mode.
enum class ForkJoinMode { kGroupHarmonic, kNestedBinary };

/// \brief Estimator configuration.
struct EstimatorOptions {
  ForkJoinMode forkjoin_mode = ForkJoinMode::kGroupHarmonic;
  /// Coefficient of variation assumed for leaf response times. Only the
  /// Tripathi estimator consumes it (the fork/join formula is CV-free).
  /// The library default of 1 is the classic MVA exponential-service
  /// assumption; the experiment driver calibrates it slightly above 1
  /// (heavy-tailed Hadoop task durations), which is the main reason the
  /// Tripathi approach overestimates more than fork/join in the paper's
  /// validation (19–23% vs 11–13.5%).
  double leaf_cv = 1.0;
};

/// \brief Response time of a leaf task, by timeline task id.
using LeafResponseFn = std::function<double(int task_id)>;

/// \brief Fork/Join-based estimate of the job response time for `tree`.
Result<double> EstimateForkJoin(const PrecedenceTree& tree,
                                const LeafResponseFn& leaf_response,
                                const EstimatorOptions& options = {});

/// \brief Tripathi-based estimate of the job response time for `tree`.
Result<double> EstimateTripathi(const PrecedenceTree& tree,
                                const LeafResponseFn& leaf_response,
                                const EstimatorOptions& options = {});

/// \brief InvalidArgument unless `leaf_cv` is finite and >= 0: the check
/// EstimateTripathi makes, shared with SolveModel's entry.
Status ValidateLeafCv(double leaf_cv);

}  // namespace mrperf
