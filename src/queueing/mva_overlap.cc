#include "queueing/mva_overlap.h"

#include <algorithm>
#include <cmath>

namespace mrperf {

Status OverlapMvaProblem::Validate() const {
  if (centers.empty()) {
    return Status::InvalidArgument("overlap MVA requires at least one center");
  }
  if (tasks.empty()) {
    return Status::InvalidArgument("overlap MVA requires at least one task");
  }
  for (const auto& center : centers) {
    if (center.server_count < 1) {
      return Status::InvalidArgument("center '" + center.name +
                                     "' must have at least one server");
    }
  }
  for (const auto& task : tasks) {
    if (task.demand.size() != centers.size()) {
      return Status::InvalidArgument(
          "every task must provide one demand per center");
    }
    double total = 0.0;
    for (double d : task.demand) {
      if (d < 0) return Status::InvalidArgument("demands must be >= 0");
      total += d;
    }
    if (total <= 0) {
      return Status::InvalidArgument(
          "every task must have positive total demand");
    }
  }
  if (overlap.size() != tasks.size()) {
    return Status::InvalidArgument(
        "overlap matrix must be tasks x tasks (row count mismatch)");
  }
  for (const auto& row : overlap) {
    if (row.size() != tasks.size()) {
      return Status::InvalidArgument(
          "overlap matrix must be tasks x tasks (column count mismatch)");
    }
    for (double v : row) {
      if (v < 0.0 || v > 1.0 + 1e-9) {
        return Status::InvalidArgument("overlap factors must be in [0, 1]");
      }
    }
  }
  return Status::OK();
}

size_t GroupedOverlapMvaProblem::TotalTasks() const {
  size_t total = 0;
  for (const OverlapTaskGroup& g : groups) {
    total += static_cast<size_t>(g.count);
  }
  return total;
}

Status GroupedOverlapMvaProblem::Validate() const {
  if (centers.empty()) {
    return Status::InvalidArgument("overlap MVA requires at least one center");
  }
  if (groups.empty()) {
    return Status::InvalidArgument(
        "grouped overlap MVA requires at least one group");
  }
  for (const auto& center : centers) {
    if (center.server_count < 1) {
      return Status::InvalidArgument("center '" + center.name +
                                     "' must have at least one server");
    }
  }
  for (const OverlapTaskGroup& g : groups) {
    if (g.count < 1) {
      return Status::InvalidArgument("group counts must be >= 1");
    }
    if (g.demand.size() != centers.size()) {
      return Status::InvalidArgument(
          "every group must provide one demand per center");
    }
    double total = 0.0;
    for (double d : g.demand) {
      if (d < 0) return Status::InvalidArgument("demands must be >= 0");
      total += d;
    }
    if (total <= 0) {
      return Status::InvalidArgument(
          "every group must have positive total demand");
    }
  }
  if (overlap.size() != groups.size()) {
    return Status::InvalidArgument(
        "overlap matrix must be groups x groups (row count mismatch)");
  }
  for (const auto& row : overlap) {
    if (row.size() != groups.size()) {
      return Status::InvalidArgument(
          "overlap matrix must be groups x groups (column count mismatch)");
    }
    for (double v : row) {
      if (v < 0.0 || v > 1.0 + 1e-9) {
        return Status::InvalidArgument("overlap factors must be in [0, 1]");
      }
    }
  }
  if (!task_group.empty()) {
    if (task_group.size() != TotalTasks()) {
      return Status::InvalidArgument(
          "task_group must map every member (size != total count)");
    }
    std::vector<int> seen(groups.size(), 0);
    for (int g : task_group) {
      if (g < 0 || static_cast<size_t>(g) >= groups.size()) {
        return Status::InvalidArgument("task_group entry out of range");
      }
      ++seen[g];
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      if (seen[g] != groups[g].count) {
        return Status::InvalidArgument(
            "task_group member counts disagree with group counts");
      }
    }
  }
  return Status::OK();
}

OverlapMvaProblem GroupedOverlapMvaProblem::Expand() const {
  OverlapMvaProblem dense;
  dense.centers = centers;
  const size_t T = TotalTasks();
  // Expansion order: original task order when the map is present, else
  // class by class.
  std::vector<int> order;
  if (!task_group.empty()) {
    order = task_group;
  } else {
    order.reserve(T);
    for (size_t g = 0; g < groups.size(); ++g) {
      for (int c = 0; c < groups[g].count; ++c) {
        order.push_back(static_cast<int>(g));
      }
    }
  }
  dense.tasks.reserve(T);
  for (int g : order) {
    dense.tasks.push_back(OverlapTask{groups[g].demand});
  }
  dense.overlap.assign(T, std::vector<double>(T, 0.0));
  for (size_t i = 0; i < T; ++i) {
    for (size_t j = 0; j < T; ++j) {
      if (i == j) continue;
      dense.overlap[i][j] = overlap[order[i]][order[j]];
    }
  }
  return dense;
}

void PackOverlapMvaProblem(const OverlapMvaProblem& problem,
                           MvaKernelScratch* scratch) {
  const size_t T = problem.tasks.size();
  const size_t K = problem.centers.size();
  // Uninitialized reshape: every element below is overwritten before
  // use (q by RefreshQ, interference by the sweep's gather loop).
  scratch->demand.ReshapeUninit(T, K);
  scratch->overlap.ReshapeUninit(T, T);
  scratch->residence.ReshapeUninit(T, K);
  scratch->q.ReshapeUninit(T, K);
  scratch->interference.ReshapeUninit(T, K);
  scratch->inv_servers.assign(K, 1.0);
  scratch->is_delay.assign(K, 0);
  scratch->response.assign(T, 0.0);

  for (size_t k = 0; k < K; ++k) {
    scratch->inv_servers[k] =
        1.0 / static_cast<double>(problem.centers[k].server_count);
    scratch->is_delay[k] = problem.centers[k].type == CenterType::kDelay;
  }
  for (size_t i = 0; i < T; ++i) {
    double* demand = scratch->demand.Row(i);
    double* residence = scratch->residence.Row(i);
    double* theta = scratch->overlap.Row(i);
    // Start from zero contention: residence == raw demand.
    double response = 0.0;
    for (size_t k = 0; k < K; ++k) {
      demand[k] = problem.tasks[i].demand[k];
      residence[k] = demand[k];
      response += demand[k];
    }
    scratch->response[i] = response;
    // The diagonal is copied but never read: the gather loop skips j == i.
    for (size_t j = 0; j < T; ++j) theta[j] = problem.overlap[i][j];
  }
}

Result<OverlapMvaSolution> SolveOverlapMva(const OverlapMvaProblem& problem,
                                           const OverlapMvaOptions& options,
                                           MvaKernelScratch* scratch) {
  if (!options.assume_valid) {
    MRPERF_RETURN_NOT_OK(problem.Validate());
  }
  if (options.damping <= 0 || options.damping > 1) {
    return Status::InvalidArgument("damping must be in (0, 1]");
  }
  MvaKernelScratch local;
  MvaKernelScratch& s = scratch ? *scratch : local;
  PackOverlapMvaProblem(problem, &s);

  const MvaKernelResult run = RunOverlapMvaFixedPoint(
      s, options.tolerance, options.max_iterations, options.damping,
      options.initial_residence);
  if (!run.converged) {
    return Status::NotConverged(
        "overlap MVA did not converge within max_iterations");
  }

  const size_t T = problem.tasks.size();
  const size_t K = problem.centers.size();
  OverlapMvaSolution sol;
  sol.residence.resize(T);
  for (size_t i = 0; i < T; ++i) {
    const double* row = s.residence.Row(i);
    sol.residence[i].assign(row, row + K);
  }
  sol.response = s.response;
  sol.iterations = run.iterations;
  sol.warm_started = run.warm_started;
  return sol;
}

FlatMatrix SolutionResidenceMatrix(const OverlapMvaSolution& solution) {
  FlatMatrix m;
  const size_t rows = solution.residence.size();
  const size_t cols = rows > 0 ? solution.residence[0].size() : 0;
  m.ReshapeUninit(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    double* row = m.Row(i);
    for (size_t k = 0; k < cols; ++k) row[k] = solution.residence[i][k];
  }
  return m;
}

void PackGroupedOverlapMvaProblem(const GroupedOverlapMvaProblem& problem,
                                  MvaKernelScratch* scratch) {
  const size_t G = problem.groups.size();
  const size_t K = problem.centers.size();
  // Uninitialized reshape: every element below is overwritten before use
  // (interference by the grouped sweep's blocked product).
  scratch->demand.ReshapeUninit(G, K);
  scratch->overlap.ReshapeUninit(G, G);
  scratch->residence.ReshapeUninit(G, K);
  scratch->q.ReshapeUninit(G, K);
  scratch->interference.ReshapeUninit(G, K);
  scratch->inv_servers.assign(K, 1.0);
  scratch->is_delay.assign(K, 0);
  scratch->response.assign(G, 0.0);

  for (size_t k = 0; k < K; ++k) {
    scratch->inv_servers[k] =
        1.0 / static_cast<double>(problem.centers[k].server_count);
    scratch->is_delay[k] = problem.centers[k].type == CenterType::kDelay;
  }
  for (size_t g = 0; g < G; ++g) {
    const OverlapTaskGroup& group = problem.groups[g];
    double* demand = scratch->demand.Row(g);
    double* residence = scratch->residence.Row(g);
    double* w = scratch->overlap.Row(g);
    // Start from zero contention: residence == raw demand.
    double response = 0.0;
    for (size_t k = 0; k < K; ++k) {
      demand[k] = group.demand[k];
      residence[k] = demand[k];
      response += demand[k];
    }
    scratch->response[g] = response;
    // The grouped kernel fuses RefreshQ into the sweep, so pack seeds the
    // q rows of the starting point (what RefreshQ would compute first).
    const double inv_response = response > 0 ? 1.0 / response : 0.0;
    double* q = scratch->q.Row(g);
    for (size_t k = 0; k < K; ++k) q[k] = residence[k] * inv_response;
    // Count-weighted interference matrix: one member of g sees count_h
    // members of class h, and count_g − 1 siblings of its own class.
    for (size_t h = 0; h < G; ++h) {
      const double members =
          h == g ? static_cast<double>(problem.groups[h].count - 1)
                 : static_cast<double>(problem.groups[h].count);
      w[h] = members * problem.overlap[g][h];
    }
  }
}

OverlapMvaSolution ExpandGroupedMvaSolution(
    const OverlapMvaSolution& group_solution,
    const std::vector<int>& task_group) {
  if (task_group.empty()) return group_solution;
  OverlapMvaSolution sol;
  sol.iterations = group_solution.iterations;
  sol.warm_started = group_solution.warm_started;
  sol.residence.reserve(task_group.size());
  sol.response.reserve(task_group.size());
  for (int g : task_group) {
    sol.residence.push_back(group_solution.residence[g]);
    sol.response.push_back(group_solution.response[g]);
  }
  return sol;
}

Result<OverlapMvaSolution> SolveGroupedOverlapMvaGroupLevel(
    const GroupedOverlapMvaProblem& problem, const OverlapMvaOptions& options,
    MvaKernelScratch* scratch) {
  if (!options.assume_valid) {
    MRPERF_RETURN_NOT_OK(problem.Validate());
  }
  if (options.damping <= 0 || options.damping > 1) {
    return Status::InvalidArgument("damping must be in (0, 1]");
  }
  MvaKernelScratch local;
  MvaKernelScratch& s = scratch ? *scratch : local;
  PackGroupedOverlapMvaProblem(problem, &s);

  const MvaKernelResult run = RunGroupedOverlapMvaFixedPoint(
      s, options.tolerance, options.max_iterations, options.damping,
      options.initial_residence);
  if (!run.converged) {
    return Status::NotConverged(
        "overlap MVA did not converge within max_iterations");
  }

  const size_t G = problem.groups.size();
  const size_t K = problem.centers.size();
  OverlapMvaSolution sol;
  sol.residence.resize(G);
  for (size_t g = 0; g < G; ++g) {
    const double* row = s.residence.Row(g);
    sol.residence[g].assign(row, row + K);
  }
  sol.response = s.response;
  sol.iterations = run.iterations;
  sol.warm_started = run.warm_started;
  return sol;
}

Result<OverlapMvaSolution> SolveGroupedOverlapMva(
    const GroupedOverlapMvaProblem& problem, const OverlapMvaOptions& options,
    MvaKernelScratch* scratch) {
  MRPERF_ASSIGN_OR_RETURN(
      OverlapMvaSolution group_sol,
      SolveGroupedOverlapMvaGroupLevel(problem, options, scratch));
  return ExpandGroupedMvaSolution(group_sol, problem.task_group);
}

}  // namespace mrperf
