/// Microbenchmark for the §4.3 complexity analysis and the overlap-MVA
/// kernels (mva_kernel.h). The MVA algorithm is O(C²N²K); the
/// overlap-MVA interference term O(T²K) per iteration is the hot path of
/// every sweep point. This bench sweeps task counts over three columns
/// and sweeps population for the exact/approximate MVA solvers:
///
///   scalar   the oracle, SolveOverlapMva on the per-task problem;
///   blocked  the production solve (SolveGroupedOverlapMva) of the same
///            problem as T singleton classes — the SIMD-cloned blocked
///            product at full task granularity;
///   grouped  the production solve of the same network compressed to
///            the bench's fixed 8 equivalence classes, so tasks-per-class
///            grows with T — at T = 256 that is 32 members/class, the
///            regime the timeline produces.
///
/// Self-contained timing (no Google Benchmark) so CI can run it as a
/// perf-smoke gate:
///
///   bench_mva_scaling --smoke      small grid; exit 1 on any solver
///                                  error, a singleton production solve
///                                  that is not bit-identical to the
///                                  oracle, a grouped solve outside
///                                  tolerance of the oracle, or a
///                                  warm-started oracle solve that fails
///                                  to cut fixed-point iterations
///   bench_mva_scaling              full sweep (default min 200 ms/cell)
///   --min-ms=N --max-tasks=T      timing budget / largest task count
///   --json-out=PATH               machine-readable per-T medians
///                                  (BENCH_mva_scaling.json in CI) for
///                                  cross-run perf-trajectory diffing

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "queueing/mva_approx.h"
#include "queueing/mva_exact.h"
#include "queueing/mva_kernel.h"
#include "queueing/mva_overlap.h"

namespace mrperf {
namespace {

/// Equivalence classes of the grouped cells (tasks/class = T/8).
constexpr int kBenchGroups = 8;

/// Agreement bound for grouped production vs oracle responses.
constexpr double kGroupedRelTol = 1e-8;

/// The bench-standard overlap problem: 4 nodes × (cpu, disk) centers,
/// tasks striped across nodes, dense θ = 0.8.
OverlapMvaProblem BuildOverlapProblem(int tasks) {
  OverlapMvaProblem p;
  for (int n = 0; n < 4; ++n) {
    const std::string id = std::to_string(n);
    p.centers.push_back({"cpu" + id, CenterType::kQueueing, 4});
    p.centers.push_back({"disk" + id, CenterType::kQueueing, 1});
  }
  const size_t K = p.centers.size();
  for (int t = 0; t < tasks; ++t) {
    OverlapTask task;
    task.demand.assign(K, 0.0);
    task.demand[(t % 4) * 2] = 8.0;
    task.demand[(t % 4) * 2 + 1] = 2.0;
    p.tasks.push_back(task);
  }
  p.overlap.assign(tasks, std::vector<double>(tasks, 0.8));
  for (int i = 0; i < tasks; ++i) p.overlap[i][i] = 0.0;
  return p;
}

/// The same network group-compressed: `groups` classes striped across
/// the 4 nodes with `tasks / groups` members each, homogeneous θ = 0.8
/// (intra and inter) — the structure the timeline's task waves produce.
GroupedOverlapMvaProblem BuildGroupedProblem(int tasks, int groups) {
  GroupedOverlapMvaProblem p;
  for (int n = 0; n < 4; ++n) {
    const std::string id = std::to_string(n);
    p.centers.push_back({"cpu" + id, CenterType::kQueueing, 4});
    p.centers.push_back({"disk" + id, CenterType::kQueueing, 1});
  }
  const size_t K = p.centers.size();
  const int per_group = tasks / groups;
  for (int g = 0; g < groups; ++g) {
    OverlapTaskGroup group;
    group.count = per_group;
    group.demand.assign(K, 0.0);
    group.demand[(g % 4) * 2] = 8.0;
    group.demand[(g % 4) * 2 + 1] = 2.0;
    p.groups.push_back(std::move(group));
    for (int c = 0; c < per_group; ++c) p.task_group.push_back(g);
  }
  p.overlap.assign(groups, std::vector<double>(groups, 0.8));
  return p;
}

/// `p` as T singleton classes, in task order: what the production
/// kernel solves when no two tasks share a class.
GroupedOverlapMvaProblem SingletonClasses(const OverlapMvaProblem& p) {
  GroupedOverlapMvaProblem grouped;
  grouped.centers = p.centers;
  for (const OverlapTask& task : p.tasks) {
    grouped.groups.push_back({task.demand, /*count=*/1});
  }
  grouped.overlap = p.overlap;
  return grouped;
}

ClosedNetwork BuildClosedNetwork(int population) {
  ClosedNetwork net;
  net.centers = {{"cpu", CenterType::kQueueing, 4},
                 {"net", CenterType::kQueueing, 1}};
  net.demand = {{8.0, 0.0}, {1.0, 3.0}, {4.0, 0.5}};
  net.population = {population, population, population};
  net.think_time = {0.0, 0.0, 0.0};
  return net;
}

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Times `fn` as the MEDIAN seconds/call over 5 samples that together
/// run for at least `min_ms` (medians resist scheduler noise, and the
/// JSON perf trajectory wants a robust statistic). `fn` returns false on
/// solver error, which aborts the bench.
template <typename Fn>
bool TimeIt(Fn&& fn, double min_ms, double* seconds_per_call) {
  // Warm-up (also populates reused scratch buffers).
  if (!fn()) return false;
  constexpr int kSamples = 5;
  double samples[kSamples];
  const double budget_ms = min_ms / kSamples;
  for (int s = 0; s < kSamples; ++s) {
    int calls = 0;
    const double start = NowSeconds();
    double elapsed = 0.0;
    do {
      if (!fn()) return false;
      ++calls;
      elapsed = NowSeconds() - start;
    } while (elapsed * 1000.0 < budget_ms);
    samples[s] = elapsed / calls;
  }
  std::sort(samples, samples + kSamples);
  *seconds_per_call = samples[kSamples / 2];
  return true;
}

bool BitwiseEqual(const OverlapMvaSolution& a, const OverlapMvaSolution& b) {
  if (a.response != b.response || a.iterations != b.iterations) return false;
  return a.residence == b.residence;
}

/// Relative agreement check for a production solve against the oracle
/// on the same (expanded) problem.
bool WithinRelTol(const OverlapMvaSolution& ref,
                  const OverlapMvaSolution& got) {
  if (ref.response.size() != got.response.size()) return false;
  for (size_t i = 0; i < ref.response.size(); ++i) {
    const double tol =
        kGroupedRelTol * std::max(1.0, std::abs(ref.response[i]));
    if (std::abs(ref.response[i] - got.response[i]) > tol) return false;
  }
  return true;
}

struct OverlapRow {
  int tasks = 0;
  int groups = 0;
  double scalar_us = 0.0;
  double blocked_us = 0.0;
  double grouped_us = 0.0;
  int iterations = 0;
  /// Fixed-point iterations on the perturbed-neighbor problem (demands
  /// scaled 5%), solved from the uniform init vs warm-started with the
  /// base problem's converged residence matrix.
  int neighbor_cold_iters = 0;
  int neighbor_warm_iters = 0;
  double blocked_speedup() const { return scalar_us / blocked_us; }
  double grouped_speedup() const { return blocked_us / grouped_us; }
};

/// Times the oracle vs the two production columns on one problem size;
/// verifies the singleton production solve is bit-for-bit the oracle
/// and the grouped solve agrees with the oracle on its expansion within
/// tolerance. Returns false on failure.
bool RunOverlapCell(int tasks, double min_ms, OverlapRow* row) {
  const OverlapMvaProblem p = BuildOverlapProblem(tasks);
  const GroupedOverlapMvaProblem singletons = SingletonClasses(p);
  const int groups = std::min(kBenchGroups, tasks);
  const GroupedOverlapMvaProblem gp = BuildGroupedProblem(tasks, groups);
  MvaKernelScratch scratch;
  const OverlapMvaOptions opts;

  auto scalar_sol = SolveOverlapMva(p, opts, &scratch);
  auto blocked_sol = SolveGroupedOverlapMva(singletons, opts, &scratch);
  if (!scalar_sol.ok() || !blocked_sol.ok()) {
    std::fprintf(stderr, "overlap MVA failed at T=%d: %s\n", tasks,
                 (!scalar_sol.ok() ? scalar_sol.status() : blocked_sol.status())
                     .ToString()
                     .c_str());
    return false;
  }
  if (!BitwiseEqual(*scalar_sol, *blocked_sol)) {
    std::fprintf(stderr,
                 "singleton production solve differs from the oracle at "
                 "T=%d (must be bit-identical)\n",
                 tasks);
    return false;
  }
  // Grouped production vs the oracle on the expanded problem.
  auto grouped_ref = SolveOverlapMva(gp.Expand(), opts, &scratch);
  auto grouped_sol = SolveGroupedOverlapMva(gp, opts, &scratch);
  if (!grouped_ref.ok() || !grouped_sol.ok()) {
    std::fprintf(
        stderr, "grouped overlap MVA failed at T=%d/G=%d: %s\n", tasks,
        groups,
        (!grouped_ref.ok() ? grouped_ref.status() : grouped_sol.status())
            .ToString()
            .c_str());
    return false;
  }
  if (!WithinRelTol(*grouped_ref, *grouped_sol)) {
    std::fprintf(stderr,
                 "grouped solve outside tolerance at T=%d/G=%d "
                 "(must match the oracle)\n",
                 tasks, groups);
    return false;
  }

  // Warm-start cell, on the oracle: the same network with demands
  // scaled 1% — the neighboring-sweep-point shape — solved cold vs
  // seeded with the base problem's fixed point. The warm solve must land
  // on the same fixed point and do so in strictly fewer damped sweeps.
  OverlapMvaProblem neighbor = BuildOverlapProblem(tasks);
  for (OverlapTask& task : neighbor.tasks) {
    for (double& d : task.demand) d *= 1.01;
  }
  auto neighbor_cold = SolveOverlapMva(neighbor, opts, &scratch);
  const FlatMatrix seed = SolutionResidenceMatrix(*scalar_sol);
  OverlapMvaOptions warm_opts = opts;
  warm_opts.initial_residence = &seed;
  auto neighbor_warm = SolveOverlapMva(neighbor, warm_opts, &scratch);
  if (!neighbor_cold.ok() || !neighbor_warm.ok()) {
    std::fprintf(
        stderr, "neighbor overlap MVA failed at T=%d: %s\n", tasks,
        (!neighbor_cold.ok() ? neighbor_cold.status() : neighbor_warm.status())
            .ToString()
            .c_str());
    return false;
  }
  if (!neighbor_warm->warm_started) {
    std::fprintf(stderr, "warm start was not taken at T=%d\n", tasks);
    return false;
  }
  if (!WithinRelTol(*neighbor_cold, *neighbor_warm)) {
    std::fprintf(stderr,
                 "warm-started solve outside tolerance at T=%d (must reach "
                 "the cold fixed point)\n",
                 tasks);
    return false;
  }
  if (neighbor_warm->iterations >= neighbor_cold->iterations) {
    std::fprintf(stderr,
                 "warm start did not reduce iterations at T=%d "
                 "(warm %d >= cold %d)\n",
                 tasks, neighbor_warm->iterations, neighbor_cold->iterations);
    return false;
  }

  row->tasks = tasks;
  row->groups = groups;
  row->iterations = scalar_sol->iterations;
  row->neighbor_cold_iters = neighbor_cold->iterations;
  row->neighbor_warm_iters = neighbor_warm->iterations;
  const auto solve_scalar = [&] {
    return SolveOverlapMva(p, opts, &scratch).ok();
  };
  const auto solve_blocked = [&] {
    return SolveGroupedOverlapMva(singletons, opts, &scratch).ok();
  };
  const auto solve_grouped = [&] {
    return SolveGroupedOverlapMva(gp, opts, &scratch).ok();
  };
  double sec = 0.0;
  if (!TimeIt(solve_scalar, min_ms, &sec)) return false;
  row->scalar_us = sec * 1e6;
  if (!TimeIt(solve_blocked, min_ms, &sec)) return false;
  row->blocked_us = sec * 1e6;
  if (!TimeIt(solve_grouped, min_ms, &sec)) return false;
  row->grouped_us = sec * 1e6;
  return true;
}

/// Writes the overlap rows as a JSON array (CI uploads this as the
/// BENCH_mva_scaling.json artifact; %.17g doubles round-trip exactly).
bool WriteScalingJson(const std::string& path,
                      const std::vector<OverlapRow>& rows) {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  std::string out = "[";
  char line[512];
  for (size_t i = 0; i < rows.size(); ++i) {
    const OverlapRow& r = rows[i];
    std::snprintf(
        line, sizeof(line),
        "%s\n  {\"tasks\": %d, \"groups\": %d, \"tasks_per_group\": %d, "
        "\"iterations\": %d, \"neighbor_cold_iterations\": %d, "
        "\"neighbor_warm_iterations\": %d, "
        "\"scalar_ns\": %.17g, \"blocked_ns\": %.17g, "
        "\"grouped_ns\": %.17g, \"blocked_speedup\": %.17g, "
        "\"grouped_speedup_vs_blocked\": %.17g}",
        i == 0 ? "" : ",", r.tasks, r.groups, r.tasks / r.groups,
        r.iterations, r.neighbor_cold_iters, r.neighbor_warm_iters,
        r.scalar_us * 1e3, r.blocked_us * 1e3,
        r.grouped_us * 1e3, r.blocked_speedup(), r.grouped_speedup());
    out += line;
  }
  out += rows.empty() ? "]\n" : "\n]\n";
  file << out;
  file.flush();
  if (!file) {
    std::fprintf(stderr, "failed writing '%s'\n", path.c_str());
    return false;
  }
  std::printf("wrote %zu rows to %s\n", rows.size(), path.c_str());
  return true;
}

bool RunClosedNetworkSweep(const std::vector<int>& populations,
                           double min_ms) {
  std::printf("\n%-12s | %12s | %12s\n", "population", "exact us",
              "approx us");
  for (int pop : populations) {
    const ClosedNetwork net = BuildClosedNetwork(pop);
    const auto solve_exact = [&] { return SolveMvaExact(net).ok(); };
    const auto solve_approx = [&] { return SolveMvaApprox(net).ok(); };
    // Cheap feasibility probe (the solver's own ∏(N_c+1) guard against
    // its default cap) instead of a discarded full solve: at N=256 one
    // exact solve walks ~1.7e7 states.
    size_t states = 1;
    bool exact_feasible = true;
    for (int class_pop : net.population) {
      states *= static_cast<size_t>(class_pop) + 1;
      if (states > kExactMvaDefaultMaxStates) {
        exact_feasible = false;
        break;
      }
    }
    double exact_sec = 0.0;
    if (exact_feasible && !TimeIt(solve_exact, min_ms, &exact_sec)) {
      std::fprintf(stderr, "exact MVA failed at N=%d\n", pop);
      return false;
    }
    double approx_sec = 0.0;
    if (!TimeIt(solve_approx, min_ms, &approx_sec)) {
      std::fprintf(stderr, "approximate MVA failed at N=%d\n", pop);
      return false;
    }
    if (exact_feasible) {
      std::printf("%-12d | %12.2f | %12.2f\n", pop, exact_sec * 1e6,
                  approx_sec * 1e6);
    } else {
      std::printf("%-12d | %12s | %12.2f\n", pop, "(state blowup)",
                  approx_sec * 1e6);
    }
  }
  return true;
}

int Run(bool smoke, double min_ms, int max_tasks,
        const std::string& json_path) {
  std::vector<int> task_counts;
  if (smoke) {
    task_counts = {8, 64};
  } else {
    for (int t = 8; t <= max_tasks; t *= 2) task_counts.push_back(t);
  }
  if (task_counts.empty()) {
    // Guard the success sentinel: a grid that runs zero cells (e.g.
    // --max-tasks below 8 or unparsable) must not read as a passed gate.
    std::fprintf(stderr, "no overlap-MVA cells to run (max_tasks=%d)\n",
                 max_tasks);
    return 2;
  }

  std::printf("overlap-MVA kernel scaling (%s)\n",
              smoke ? "smoke grid" : "full grid");
  std::printf("%-8s | %6s | %12s | %12s | %12s | %8s | %8s | %6s | %7s | "
              "%7s\n",
              "tasks", "groups", "scalar us", "blocked us", "grouped us",
              "blk spd", "grp spd", "iters", "nbr cold", "nbr warm");
  bool speedup_ok = true;
  std::vector<OverlapRow> rows;
  for (int tasks : task_counts) {
    OverlapRow row;
    if (!RunOverlapCell(tasks, min_ms, &row)) return 1;
    std::printf("%-8d | %6d | %12.2f | %12.2f | %12.2f | %7.2fx | %7.2fx "
                "| %6d | %7d | %7d\n",
                row.tasks, row.groups, row.scalar_us, row.blocked_us,
                row.grouped_us, row.blocked_speedup(), row.grouped_speedup(),
                row.iterations, row.neighbor_cold_iters,
                row.neighbor_warm_iters);
    if (tasks >= 64 && row.blocked_speedup() < 2.0) speedup_ok = false;
    if (tasks >= 256 && row.grouped_speedup() < 5.0) speedup_ok = false;
    rows.push_back(row);
  }
  if (!json_path.empty() && !WriteScalingJson(json_path, rows)) return 1;
  const std::vector<int> populations =
      smoke ? std::vector<int>{4, 16}
            : std::vector<int>{2, 4, 8, 16, 32, 64, 128, 256, 512};
  if (!RunClosedNetworkSweep(populations, min_ms)) return 1;
  if (!smoke && !speedup_ok) {
    // Informational outside CI: the smoke gate only fails on solver
    // errors, since shared runners make wall-clock ratios noisy.
    std::fprintf(stderr,
                 "note: blocked speedup below 2x at T >= 64 or grouped "
                 "speedup below 5x at T >= 256 on this run\n");
  }
  std::printf(
      "\nall solver statuses OK; singleton production bit-identical to "
      "the oracle; grouped production within %g of the oracle; warm "
      "starts reduced neighbor iterations on every row\n",
      kGroupedRelTol);
  return 0;
}

}  // namespace
}  // namespace mrperf

int main(int argc, char** argv) {
  mrperf::Flags args(argc, argv);
  const bool smoke = args.BoolFlag("--smoke");
  double min_ms = args.DoubleFlag("--min-ms", 0.0);  // 0 = mode default
  const int max_tasks = args.IntFlag("--max-tasks", 256);
  const std::string json_path = args.StringFlag("--json-out");
  if (!args.Validate()) {
    std::fprintf(stderr,
                 "usage: %s [--smoke] [--min-ms=N] [--max-tasks=T] "
                 "[--json-out=PATH]\n",
                 argv[0]);
    return 2;
  }
  // An explicit --min-ms wins regardless of flag order.
  if (min_ms <= 0.0) min_ms = smoke ? 20.0 : 200.0;
  return mrperf::Run(smoke, min_ms, max_tasks, json_path);
}
