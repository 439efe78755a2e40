#include "model/model.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace mrperf {
namespace {

/// Index of a node's center in the per-node center layout.
enum Center { kCpu = 0, kDisk = 1, kNet = 2 };

/// Per-node CPU / disk / network stations of the A4 problem.
/// Heterogeneous clusters get per-node multiplicities from their group.
std::vector<ServiceCenter> MakeCenters(const ModelInput& input) {
  const int num_nodes = input.NodeCount();
  std::vector<ServiceCenter> centers;
  centers.reserve(static_cast<size_t>(num_nodes) * 3);
  for (int n = 0; n < num_nodes; ++n) {
    centers.push_back(ServiceCenter{"cpu" + std::to_string(n),
                                    CenterType::kQueueing,
                                    input.NodeCpu(n)});
    centers.push_back(ServiceCenter{"disk" + std::to_string(n),
                                    CenterType::kQueueing,
                                    input.NodeDisk(n)});
    centers.push_back(
        ServiceCenter{"net" + std::to_string(n), CenterType::kQueueing, 1});
  }
  return centers;
}

/// Places one class representative's demand on its node.
std::vector<double> PlaceDemand(size_t num_centers, int node,
                                const ClassDemand& demand) {
  std::vector<double> placed(num_centers, 0.0);
  const size_t base = static_cast<size_t>(node) * 3;
  placed[base + kCpu] = demand.cpu;
  placed[base + kDisk] = demand.disk;
  placed[base + kNet] = demand.network;
  // The MVA requires positive total demand per task; zero-cost tasks
  // (possible for degenerate profiles) get a negligible placeholder.
  if (demand.Total() <= 0) placed[base + kCpu] = 1e-12;
  return placed;
}

/// Builds the group-compressed A4 problem straight from the timeline's
/// equivalence classes: one demand row per class, G×G θ blocks, and the
/// task→class map for expanding the solution back to tasks. When every
/// class is a singleton the classes are the tasks in timeline order.
GroupedOverlapMvaProblem BuildGroupedMvaProblem(
    const ModelInput& input, GroupedOverlapFactors&& overlap) {
  GroupedOverlapMvaProblem problem;
  problem.centers = MakeCenters(input);
  const size_t K = problem.centers.size();
  problem.groups.reserve(overlap.groups.size());
  for (const OverlapGroup& g : overlap.groups) {
    OverlapTaskGroup group;
    group.count = g.count;
    group.demand = PlaceDemand(K, g.node, g.demand);
    problem.groups.push_back(std::move(group));
  }
  problem.overlap = std::move(overlap.theta);
  problem.task_group = std::move(overlap.task_group);
  return problem;
}

struct ClassResponses {
  double map = 0.0;
  double shuffle_sort = 0.0;  // includes the placement-average network leg
  double merge = 0.0;
  double net_inflation = 1.0;  // contention multiplier on shuffle transfers
};

/// What one outer iteration's Tripathi estimate reads: the per-job
/// precedence trees, the A4 leaf responses and each job's FIFO offset.
/// The estimate feeds nothing back into A2–A4, so it is evaluated only
/// for an iteration whose value A6 or the answer reads.
struct TripathiInputs {
  std::vector<PrecedenceTree> trees;
  std::vector<double> leaf_response;  // by timeline task id
  std::vector<double> offsets;        // by job
  bool evaluated = false;
  double mean = 0.0;
  std::vector<double> job_responses;

  /// Evaluates the estimate on first use and counts it in `evaluations`.
  Status Evaluate(const EstimatorOptions& options, int* evaluations) {
    if (evaluated) return Status::OK();
    const auto leaf = [this](int task_id) { return leaf_response[task_id]; };
    double sum = 0.0;
    job_responses.clear();
    for (size_t job = 0; job < trees.size(); ++job) {
      MRPERF_ASSIGN_OR_RETURN(double tri,
                              EstimateTripathi(trees[job], leaf, options));
      job_responses.push_back(offsets[job] + tri);
      sum += offsets[job] + tri;
    }
    mean = sum / static_cast<double>(trees.size());
    evaluated = true;
    ++*evaluations;
    return Status::OK();
  }
};

}  // namespace

Result<ModelResult> SolveModel(const ModelInput& input,
                               const ModelOptions& options) {
  MRPERF_RETURN_NOT_OK(input.Validate());
  if (options.epsilon <= 0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (options.damping <= 0 || options.damping > 1) {
    return Status::InvalidArgument("damping must be in (0, 1]");
  }
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  // Checked here, not first by an evaluation: a run whose Tripathi
  // estimate is never read must still reject it.
  MRPERF_RETURN_NOT_OK(ValidateLeafCv(options.estimator.leaf_cv));

  // ---- A1: initialization (Herodotou-derived inputs) --------------------
  ClassResponses cls;
  cls.map = input.init_map_response;
  cls.shuffle_sort = input.init_shuffle_sort_response;
  cls.merge = input.init_merge_response;

  TreeOptions tree_opts;
  tree_opts.balance = options.balance_tree;

  // A4 solver configuration. Problems built below are valid by
  // construction (θ clamped to [0,1], demands placed non-negative with a
  // positive-total placeholder, centers from validated input), so the
  // per-solve O(G²) re-validation of the hot loop is skipped —
  // full validation stays at the public API entries.
  OverlapMvaOptions mva_opts = options.mva;
  mva_opts.assume_valid = true;
  // Every A4 solve starts cold from the zero-contention point: a kernel
  // seed in options.mva is ignored (SolveCache::SolveThrough rejects one).
  mva_opts.initial_residence = nullptr;

  ModelResult result;
  double prev_fj = -1.0;
  double prev2_fj = -1.0;  // two iterations back, for cycle detection
  ClassResponses prev_cls = cls;
  TripathiInputs prev_tri;

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations = iter;

    // ---- A2a: timeline from current class responses ---------------------
    TaskDurations durations;
    durations.map = cls.map;
    durations.merge = cls.merge;
    // Split the shuffle-sort response into its node-local base and the
    // per-remote-map penalty (Algorithm 1 line 16), inflating the transfer
    // term with the current network-contention estimate.
    const int num_nodes = input.NodeCount();
    const double mean_remote_maps =
        num_nodes > 1
            ? input.map_tasks *
                  (1.0 - 1.0 / static_cast<double>(num_nodes))
            : 0.0;
    durations.shuffle_per_remote_map =
        input.shuffle_per_remote_map_sec * cls.net_inflation;
    durations.shuffle_sort_base = std::max(
        0.0, cls.shuffle_sort -
                 mean_remote_maps * durations.shuffle_per_remote_map);
    MRPERF_ASSIGN_OR_RETURN(Timeline timeline,
                            BuildTimeline(input, durations));

    // ---- A3 + A4: overlap factors and the overlap-adjusted MVA ---------
    // θ as G×G blocks over the timeline's task equivalence classes, the
    // fixed point in O(G²K) per iteration, solutions expanded back to
    // per-task rows.
    MRPERF_ASSIGN_OR_RETURN(
        GroupedOverlapFactors overlap,
        ComputeGroupedOverlapFactors(timeline, options.overlap));
    const double mean_alpha = overlap.mean_alpha;
    const double mean_beta = overlap.mean_beta;
    const GroupedOverlapMvaProblem problem =
        BuildGroupedMvaProblem(input, std::move(overlap));
    OverlapMvaSolution mva;
    SolveThroughInfo solve_info;
    if (options.mva_cache) {
      MRPERF_ASSIGN_OR_RETURN(
          mva, options.mva_cache->SolveThrough(problem, mva_opts,
                                               options.mva_scratch,
                                               &solve_info));
    } else {
      MRPERF_ASSIGN_OR_RETURN(
          mva, SolveGroupedOverlapMva(problem, mva_opts, options.mva_scratch));
      solve_info.iterations = mva.iterations;
    }
    result.mva_iterations += solve_info.iterations;

    // New class response estimates (means over tasks of the class).
    double map_sum = 0.0, ss_sum = 0.0, mg_sum = 0.0;
    double net_res_sum = 0.0, net_dem_sum = 0.0;
    int map_count = 0, ss_count = 0, mg_count = 0;
    for (size_t i = 0; i < timeline.tasks.size(); ++i) {
      const auto& t = timeline.tasks[i];
      const double response = mva.response[i];
      const size_t net_center = static_cast<size_t>(t.node) * 3 + kNet;
      switch (t.cls) {
        case TaskClass::kMap:
          map_sum += response;
          ++map_count;
          break;
        case TaskClass::kShuffleSort:
          ss_sum += response;
          ++ss_count;
          net_res_sum += mva.residence[i][net_center];
          net_dem_sum += t.demand.network;
          break;
        case TaskClass::kMerge:
          mg_sum += response;
          ++mg_count;
          break;
      }
    }
    ClassResponses next = cls;
    if (map_count > 0) next.map = map_sum / map_count;
    if (ss_count > 0) next.shuffle_sort = ss_sum / ss_count;
    if (mg_count > 0) next.merge = mg_sum / mg_count;
    next.net_inflation =
        net_dem_sum > 0 ? std::max(1.0, net_res_sum / net_dem_sum) : 1.0;

    const double d = options.damping;
    cls.map += d * (next.map - cls.map);
    cls.shuffle_sort += d * (next.shuffle_sort - cls.shuffle_sort);
    cls.merge += d * (next.merge - cls.merge);
    cls.net_inflation += d * (next.net_inflation - cls.net_inflation);

    // ---- A5: job response estimation from the precedence tree ----------
    // Fork/Join on every iteration; Tripathi's inputs are kept, and A6 or
    // the answer evaluates them when it reads the estimate.
    auto leaf_response = [&mva](int task_id) {
      return mva.response[task_id];
    };
    TripathiInputs tri;
    tri.trees.reserve(input.num_jobs);
    tri.offsets = timeline.job_first_start;
    double fj_sum = 0.0;
    result.forkjoin_job_responses.clear();
    int max_depth = 0;
    for (int job = 0; job < input.num_jobs; ++job) {
      MRPERF_ASSIGN_OR_RETURN(
          PrecedenceTree tree,
          BuildPrecedenceTree(timeline, job, tree_opts));
      max_depth = std::max(max_depth, tree.depth);
      MRPERF_ASSIGN_OR_RETURN(
          double fj,
          EstimateForkJoin(tree, leaf_response, options.estimator));
      // A job's response includes the FIFO queueing delay before its
      // first container starts.
      const double offset = timeline.job_first_start[job];
      result.forkjoin_job_responses.push_back(offset + fj);
      fj_sum += offset + fj;
      tri.trees.push_back(std::move(tree));
    }
    tri.leaf_response = std::move(mva.response);
    const double fj_mean = fj_sum / input.num_jobs;

    result.forkjoin_response = fj_mean;
    result.map_response = cls.map;
    result.shuffle_sort_response = cls.shuffle_sort;
    result.merge_response = cls.merge;
    result.mean_alpha = mean_alpha;
    result.mean_beta = mean_beta;
    result.tree_depth = max_depth;
    result.timeline = std::move(timeline);

    // ---- A6: convergence test ------------------------------------------
    const auto close = [&options](double cur, double prev) {
      const double delta = std::abs(cur - prev);
      return delta <= options.epsilon ||
             delta <= options.epsilon_relative * std::abs(cur);
    };
    // Both exits below read this iteration's and the previous one's
    // Tripathi estimate.
    const auto evaluate_tripathi = [&]() -> Status {
      MRPERF_RETURN_NOT_OK(
          prev_tri.Evaluate(options.estimator, &result.tripathi_evaluations));
      return tri.Evaluate(options.estimator, &result.tripathi_evaluations);
    };
    // The test covers the job estimates and the per-class response times
    // (the iterated quantities of Figure 4's A4/A5 activities). Each
    // comparison is pure, so Tripathi's goes last and is evaluated only
    // when every other one holds.
    if (prev_fj >= 0 && close(fj_mean, prev_fj) &&
        close(cls.map, prev_cls.map) &&
        close(cls.shuffle_sort, prev_cls.shuffle_sort) &&
        close(cls.merge, prev_cls.merge)) {
      MRPERF_RETURN_NOT_OK(evaluate_tripathi());
      if (close(tri.mean, prev_tri.mean)) {
        result.tripathi_response = tri.mean;
        result.tripathi_job_responses = std::move(tri.job_responses);
        result.converged = true;
        return result;
      }
    }
    prev_cls = cls;
    // Discrete placement decisions can lock the loop into a period-2
    // cycle; detect it and return the midpoint of the cycle.
    if (prev2_fj >= 0 && iter > 10 && close(fj_mean, prev2_fj)) {
      MRPERF_RETURN_NOT_OK(evaluate_tripathi());
      result.forkjoin_response = 0.5 * (fj_mean + prev_fj);
      result.tripathi_response = 0.5 * (tri.mean + prev_tri.mean);
      result.tripathi_job_responses = std::move(tri.job_responses);
      result.converged = true;
      return result;
    }
    prev2_fj = prev_fj;
    prev_fj = fj_mean;
    prev_tri = std::move(tri);
  }

  if (!options.allow_nonconverged) {
    return Status::NotConverged(
        "modified MVA did not converge within max_iterations");
  }
  // The best-effort answer is the last iteration's estimate.
  MRPERF_RETURN_NOT_OK(
      prev_tri.Evaluate(options.estimator, &result.tripathi_evaluations));
  result.tripathi_response = prev_tri.mean;
  result.tripathi_job_responses = std::move(prev_tri.job_responses);
  result.converged = false;
  return result;
}

}  // namespace mrperf
