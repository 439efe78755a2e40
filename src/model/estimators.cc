#include "model/estimators.h"

#include <algorithm>
#include <cmath>

#include "common/statistics.h"
#include "distributions/fitting.h"
#include "distributions/order_stats.h"

namespace mrperf {
namespace {

Status ValidateLeafFn(const LeafResponseFn& fn) {
  if (!fn) {
    return Status::InvalidArgument("leaf response function must be callable");
  }
  return Status::OK();
}

Status ValidateLeafResponse(double r) {
  if (!std::isfinite(r) || r < 0) {
    return Status::InvalidArgument("leaf response must be finite and >= 0");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Fork/Join evaluation
// ---------------------------------------------------------------------

Result<double> EvalForkJoinNode(const PrecedenceTree& tree, int node,
                                const LeafResponseFn& leaf_response) {
  const TreeNode& n = tree.nodes[node];
  switch (n.op) {
    case TreeOp::kLeaf: {
      const double r = leaf_response(n.task_id);
      MRPERF_RETURN_NOT_OK(ValidateLeafResponse(r));
      return r;
    }
    case TreeOp::kSerial: {
      MRPERF_ASSIGN_OR_RETURN(double l,
                              EvalForkJoinNode(tree, n.left, leaf_response));
      MRPERF_ASSIGN_OR_RETURN(double r,
                              EvalForkJoinNode(tree, n.right, leaf_response));
      return l + r;
    }
    case TreeOp::kParallel: {
      MRPERF_ASSIGN_OR_RETURN(double l,
                              EvalForkJoinNode(tree, n.left, leaf_response));
      MRPERF_ASSIGN_OR_RETURN(double r,
                              EvalForkJoinNode(tree, n.right, leaf_response));
      // H_2 = 1 + 1/2 applied at every binary P node (paper §4.2.4).
      return 1.5 * std::max(l, r);
    }
  }
  return Status::Internal("unreachable tree op");
}

}  // namespace

Result<double> EstimateForkJoin(const PrecedenceTree& tree,
                                const LeafResponseFn& leaf_response,
                                const EstimatorOptions& options) {
  MRPERF_RETURN_NOT_OK(ValidateLeafFn(leaf_response));
  if (tree.Empty()) {
    return Status::InvalidArgument("cannot estimate an empty tree");
  }
  if (options.forkjoin_mode == ForkJoinMode::kNestedBinary) {
    return EvalForkJoinNode(tree, tree.root, leaf_response);
  }
  // Group-harmonic: R = sum over phase groups of H_k * max(member
  // responses), k = group size (Varki's fork/join mean-value estimate).
  double total = 0.0;
  for (const auto& group : tree.phase_groups) {
    if (group.empty()) continue;
    double max_r = 0.0;
    for (int task_id : group) {
      const double r = leaf_response(task_id);
      MRPERF_RETURN_NOT_OK(ValidateLeafResponse(r));
      max_r = std::max(max_r, r);
    }
    total += HarmonicNumber(static_cast<int>(group.size())) * max_r;
  }
  return total;
}

// ---------------------------------------------------------------------
// Tripathi evaluation
// ---------------------------------------------------------------------

namespace {

Result<Moments> EvalTripathiNode(const PrecedenceTree& tree, int node,
                                 const LeafResponseFn& leaf_response,
                                 double leaf_cv) {
  const TreeNode& n = tree.nodes[node];
  switch (n.op) {
    case TreeOp::kLeaf: {
      const double r = leaf_response(n.task_id);
      MRPERF_RETURN_NOT_OK(ValidateLeafResponse(r));
      Moments m;
      m.mean = r;
      m.second = (1.0 + leaf_cv * leaf_cv) * r * r;
      return m;
    }
    case TreeOp::kSerial: {
      MRPERF_ASSIGN_OR_RETURN(
          Moments l, EvalTripathiNode(tree, n.left, leaf_response, leaf_cv));
      MRPERF_ASSIGN_OR_RETURN(
          Moments r, EvalTripathiNode(tree, n.right, leaf_response, leaf_cv));
      return SumMoments(l, r);
    }
    case TreeOp::kParallel: {
      MRPERF_ASSIGN_OR_RETURN(
          Moments l, EvalTripathiNode(tree, n.left, leaf_response, leaf_cv));
      MRPERF_ASSIGN_OR_RETURN(
          Moments r, EvalTripathiNode(tree, n.right, leaf_response, leaf_cv));
      // Degenerate children (zero mean) behave as instantaneous tasks.
      if (l.mean <= 0) return r;
      if (r.mean <= 0) return l;
      // Fit each child by CV (Erlang if CV <= 1, Hyperexponential if
      // CV >= 1, §4.2.4), then integrate for the max moments.
      MRPERF_ASSIGN_OR_RETURN(FittedDistribution dl,
                              FitByMeanCv(l.mean, l.Cv()));
      MRPERF_ASSIGN_OR_RETURN(FittedDistribution dr,
                              FitByMeanCv(r.mean, r.Cv()));
      return MaxMoments(dl, dr);
    }
  }
  return Status::Internal("unreachable tree op");
}

}  // namespace

Result<double> EstimateTripathi(const PrecedenceTree& tree,
                                const LeafResponseFn& leaf_response,
                                const EstimatorOptions& options) {
  MRPERF_RETURN_NOT_OK(ValidateLeafFn(leaf_response));
  if (tree.Empty()) {
    return Status::InvalidArgument("cannot estimate an empty tree");
  }
  MRPERF_RETURN_NOT_OK(ValidateLeafCv(options.leaf_cv));
  MRPERF_ASSIGN_OR_RETURN(
      Moments root,
      EvalTripathiNode(tree, tree.root, leaf_response, options.leaf_cv));
  return root.mean;
}

Status ValidateLeafCv(double leaf_cv) {
  if (!std::isfinite(leaf_cv) || leaf_cv < 0) {
    return Status::InvalidArgument("leaf_cv must be finite and >= 0");
  }
  return Status::OK();
}

}  // namespace mrperf
