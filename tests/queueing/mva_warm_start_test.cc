/// Kernel-seed property tests for the overlap-MVA solver: a seeded
/// solve must land on the cold fixed point (within the pinned 1e-8
/// tolerance) in fewer damped sweeps, and a mismatched seed must be
/// ignored bit-identically. The solve cache holds cold solves only: a
/// seeded SolveThrough call is rejected without touching the cache,
/// while a cold one is looked up, solved, inserted and accounted in
/// the solves/solve_iterations lifecycle counters.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "queueing/mva_kernel.h"
#include "queueing/mva_overlap.h"
#include "queueing/solve_cache.h"

namespace mrperf {
namespace {

constexpr double kFixedPointTol = 1e-8;

/// 2 nodes × (cpu, disk), `tasks` tasks striped across the nodes,
/// homogeneous overlap θ.
OverlapMvaProblem BuildProblem(int tasks, double theta,
                               double demand_scale = 1.0) {
  OverlapMvaProblem p;
  for (int n = 0; n < 2; ++n) {
    const std::string id = std::to_string(n);
    p.centers.push_back({"cpu" + id, CenterType::kQueueing, 2});
    p.centers.push_back({"disk" + id, CenterType::kQueueing, 1});
  }
  const size_t K = p.centers.size();
  for (int t = 0; t < tasks; ++t) {
    OverlapTask task;
    task.demand.assign(K, 0.0);
    task.demand[(t % 2) * 2] = 6.0 * demand_scale;
    task.demand[(t % 2) * 2 + 1] = 2.0 * demand_scale;
    p.tasks.push_back(task);
  }
  p.overlap.assign(tasks, std::vector<double>(tasks, theta));
  for (int i = 0; i < tasks; ++i) p.overlap[i][i] = 0.0;
  return p;
}

GroupedOverlapMvaProblem BuildGroupedProblem(int groups, int per_group,
                                             double theta,
                                             double demand_scale = 1.0) {
  GroupedOverlapMvaProblem p;
  p.centers = {{"cpu", CenterType::kQueueing, 4},
               {"disk", CenterType::kQueueing, 1}};
  for (int g = 0; g < groups; ++g) {
    OverlapTaskGroup group;
    group.count = per_group;
    group.demand = {(4.0 + g) * demand_scale, (1.0 + 0.5 * g) * demand_scale};
    p.groups.push_back(std::move(group));
    for (int c = 0; c < per_group; ++c) p.task_group.push_back(g);
  }
  p.overlap.assign(groups, std::vector<double>(groups, theta));
  return p;
}

void ExpectSameFixedPoint(const OverlapMvaSolution& a,
                          const OverlapMvaSolution& b) {
  ASSERT_EQ(a.response.size(), b.response.size());
  for (size_t i = 0; i < a.response.size(); ++i) {
    const double tol =
        kFixedPointTol * std::max(1.0, std::abs(a.response[i]));
    EXPECT_NEAR(a.response[i], b.response[i], tol) << "task " << i;
  }
}

TEST(MvaWarmStartTest, WarmSolveReachesTheColdFixedPointInFewerSweeps) {
  const OverlapMvaProblem base = BuildProblem(8, 0.7);
  const OverlapMvaProblem neighbor = BuildProblem(8, 0.7, 1.02);
  OverlapMvaOptions opts;

  auto base_sol = SolveOverlapMva(base, opts);
  ASSERT_TRUE(base_sol.ok());
  auto cold = SolveOverlapMva(neighbor, opts);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->warm_started);

  const FlatMatrix seed = SolutionResidenceMatrix(*base_sol);
  OverlapMvaOptions warm_opts = opts;
  warm_opts.initial_residence = &seed;
  auto warm = SolveOverlapMva(neighbor, warm_opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
  ExpectSameFixedPoint(*cold, *warm);
  EXPECT_LT(warm->iterations, cold->iterations);
}

TEST(MvaWarmStartTest, WarmFromTheExactFixedPointConvergesAlmostInstantly) {
  const OverlapMvaProblem p = BuildProblem(6, 0.5);
  OverlapMvaOptions opts;
  auto cold = SolveOverlapMva(p, opts);
  ASSERT_TRUE(cold.ok());

  const FlatMatrix seed = SolutionResidenceMatrix(*cold);
  OverlapMvaOptions warm_opts = opts;
  warm_opts.initial_residence = &seed;
  auto warm = SolveOverlapMva(p, warm_opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
  EXPECT_LE(warm->iterations, 2);
  ExpectSameFixedPoint(*cold, *warm);
}

TEST(MvaWarmStartTest, MismatchedSeedShapeIsIgnoredBitIdentically) {
  const OverlapMvaProblem p = BuildProblem(5, 0.6);
  OverlapMvaOptions opts;
  auto cold = SolveOverlapMva(p, opts);
  ASSERT_TRUE(cold.ok());

  FlatMatrix wrong;  // 2×2, nothing like the 5×4 residence shape
  wrong.Reshape(2, 2);
  OverlapMvaOptions warm_opts = opts;
  warm_opts.initial_residence = &wrong;
  auto sol = SolveOverlapMva(p, warm_opts);
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->warm_started);
  EXPECT_EQ(sol->iterations, cold->iterations);
  EXPECT_EQ(sol->response, cold->response);
  EXPECT_EQ(sol->residence, cold->residence);
}

TEST(MvaWarmStartTest, GroupedWarmSolveMatchesColdWithinTolerance) {
  const GroupedOverlapMvaProblem base = BuildGroupedProblem(3, 4, 0.6);
  const GroupedOverlapMvaProblem neighbor =
      BuildGroupedProblem(3, 4, 0.6, 1.02);
  const OverlapMvaOptions opts;

  auto base_sol = SolveGroupedOverlapMvaGroupLevel(base, opts);
  ASSERT_TRUE(base_sol.ok());
  auto cold = SolveGroupedOverlapMva(neighbor, opts);
  ASSERT_TRUE(cold.ok());

  // Class-level seed: one row per group.
  const FlatMatrix seed = SolutionResidenceMatrix(*base_sol);
  OverlapMvaOptions warm_opts = opts;
  warm_opts.initial_residence = &seed;
  auto warm = SolveGroupedOverlapMva(neighbor, warm_opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
  ExpectSameFixedPoint(*cold, *warm);
  EXPECT_LT(warm->iterations, cold->iterations);
}

TEST(MvaWarmStartTest, SeededSolveThroughIsRejectedAndColdSolvesAreCached) {
  SolveCache cache(/*shards=*/1, /*max_entries=*/16);
  const GroupedOverlapMvaProblem p = BuildGroupedProblem(3, 4, 0.6);
  const OverlapMvaOptions opts;

  auto cold = SolveGroupedOverlapMva(p, opts);
  ASSERT_TRUE(cold.ok());
  // A class-level seed: the shape the grouped kernel would accept.
  auto group_level = SolveGroupedOverlapMvaGroupLevel(p, opts);
  ASSERT_TRUE(group_level.ok());
  const FlatMatrix seed = SolutionResidenceMatrix(*group_level);
  OverlapMvaOptions seeded = opts;
  seeded.initial_residence = &seed;

  // A seeded call is refused before any cache traffic or solve.
  EXPECT_EQ(cache.SolveThrough(p, seeded).status().code(),
            StatusCode::kInvalidArgument);
  MvaCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups(), 0);
  EXPECT_EQ(stats.insertions, 0);
  EXPECT_EQ(stats.size, 0);
  EXPECT_EQ(stats.solves, 0);
  EXPECT_EQ(stats.solve_iterations, 0);

  // A cold call misses, solves and inserts; the solve is accounted.
  SolveThroughInfo miss_info;
  auto miss = cache.SolveThrough(p, opts, nullptr, &miss_info);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss_info.iterations, cold->iterations);
  EXPECT_EQ(miss->response, cold->response);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.size, 1);
  EXPECT_EQ(stats.solves, 1);
  EXPECT_EQ(stats.solve_iterations, miss_info.iterations);

  // A repeat is a pure hit: zero executed iterations, and the solve
  // accounting is unchanged.
  SolveThroughInfo hit_info;
  auto hit = cache.SolveThrough(p, opts, nullptr, &hit_info);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit_info.iterations, 0);
  EXPECT_EQ(hit->response, cold->response);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.solves, 1);
  EXPECT_EQ(stats.solve_iterations, miss_info.iterations);
}

}  // namespace
}  // namespace mrperf
