/// Production vs oracle at the kernel level: a per-task problem solved
/// as T singleton classes through SolveGroupedOverlapMva — the
/// production kernel, whose blocked interference product carries the
/// SIMD clones — must be bit-for-bit identical to the scalar oracle
/// (SolveOverlapMva) on every problem, figure-calibrated shapes and
/// random instances alike. All-singleton A4 problems are real (small
/// clusters, one map per node), and this is what keeps their
/// predictions on the oracle's bits.

#include "queueing/mva_kernel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "queueing/mva_overlap.h"

namespace mrperf {
namespace {

/// Uniform int in [lo, hi] from the repo's deterministic RNG.
int RandInt(Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(rng.UniformInt(
                  static_cast<uint64_t>(hi - lo) + 1));
}

/// The bench/figure-shaped problem: per-node cpu/disk/net centers, tasks
/// striped across nodes, homogeneous θ.
OverlapMvaProblem StripedProblem(int tasks, int nodes, double theta) {
  OverlapMvaProblem p;
  for (int n = 0; n < nodes; ++n) {
    const std::string id = std::to_string(n);
    p.centers.push_back({"cpu" + id, CenterType::kQueueing, 4});
    p.centers.push_back({"disk" + id, CenterType::kQueueing, 1});
    p.centers.push_back({"net" + id, CenterType::kDelay, 1});
  }
  const size_t K = p.centers.size();
  for (int t = 0; t < tasks; ++t) {
    OverlapTask task;
    task.demand.assign(K, 0.0);
    const size_t base = static_cast<size_t>(t % nodes) * 3;
    task.demand[base] = 8.0;
    task.demand[base + 1] = 2.0;
    task.demand[base + 2] = 0.5;
    p.tasks.push_back(task);
  }
  p.overlap.assign(tasks, std::vector<double>(tasks, theta));
  for (int i = 0; i < tasks; ++i) p.overlap[i][i] = 0.0;
  return p;
}

OverlapMvaProblem RandomProblem(Rng& rng) {
  const int tasks = RandInt(rng, 2, 40);
  const int centers = RandInt(rng, 1, 6);
  OverlapMvaProblem p;
  for (int k = 0; k < centers; ++k) {
    const bool delay = RandInt(rng, 0, 9) == 0;
    p.centers.push_back({"c" + std::to_string(k),
                         delay ? CenterType::kDelay : CenterType::kQueueing,
                         RandInt(rng, 1, 4)});
  }
  for (int t = 0; t < tasks; ++t) {
    OverlapTask task;
    task.demand.reserve(centers);
    for (int k = 0; k < centers; ++k) {
      // Mostly sparse demands, always positive total.
      const bool sparse = RandInt(rng, 0, 2) == 0;
      task.demand.push_back(sparse ? 0.0 : rng.Uniform(0.1, 10.0));
    }
    bool any = false;
    for (double d : task.demand) any = any || d > 0;
    if (!any) task.demand[0] = 1.0;
    p.tasks.push_back(task);
  }
  p.overlap.assign(tasks, std::vector<double>(tasks, 0.0));
  for (int i = 0; i < tasks; ++i) {
    for (int j = 0; j < tasks; ++j) {
      if (i != j) p.overlap[i][j] = rng.Uniform(0.0, 1.0);
    }
  }
  return p;
}

/// The same problem as T singleton classes, in task order.
GroupedOverlapMvaProblem SingletonClasses(const OverlapMvaProblem& p) {
  GroupedOverlapMvaProblem grouped;
  grouped.centers = p.centers;
  for (const OverlapTask& task : p.tasks) {
    grouped.groups.push_back({task.demand, /*count=*/1});
  }
  grouped.overlap = p.overlap;
  return grouped;
}

Result<OverlapMvaSolution> Production(const OverlapMvaProblem& p,
                                      MvaKernelScratch* scratch = nullptr) {
  return SolveGroupedOverlapMva(SingletonClasses(p), {}, scratch);
}

Result<OverlapMvaSolution> Oracle(const OverlapMvaProblem& p,
                                  MvaKernelScratch* scratch = nullptr) {
  return SolveOverlapMva(p, {}, scratch);
}

void ExpectBitIdentical(const OverlapMvaSolution& a,
                        const OverlapMvaSolution& b) {
  ASSERT_EQ(a.response.size(), b.response.size());
  EXPECT_EQ(a.iterations, b.iterations);
  for (size_t i = 0; i < a.response.size(); ++i) {
    EXPECT_EQ(a.response[i], b.response[i]) << "task " << i;
    ASSERT_EQ(a.residence[i].size(), b.residence[i].size());
    for (size_t k = 0; k < a.residence[i].size(); ++k) {
      EXPECT_EQ(a.residence[i][k], b.residence[i][k])
          << "task " << i << " center " << k;
    }
  }
}

TEST(MvaKernelTest, BlockedMatchesScalarOnFigureShapedProblems) {
  // The calibrated figure grids use 4/6/8-node clusters; golden check
  // that the vectorized production kernel is bit-for-bit the scalar
  // oracle there.
  for (int nodes : {4, 6, 8}) {
    for (int tasks : {3, 9, 17, 40, 65}) {
      const OverlapMvaProblem p = StripedProblem(tasks, nodes, 0.8);
      auto scalar = Oracle(p);
      auto blocked = Production(p);
      ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
      ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
      ExpectBitIdentical(*scalar, *blocked);
    }
  }
}

TEST(MvaKernelTest, BlockedMatchesScalarOnRandomProblems) {
  // Property test: random shapes, demands (including zero columns),
  // asymmetric θ, delay centers, multi-server centers. Singleton classes
  // make the weighted matrix θ itself with a +0.0 diagonal, so the
  // production kernel is not merely within tolerance of the oracle but
  // bit-identical to it.
  Rng rng(0xC0FFEEull);
  for (int trial = 0; trial < 50; ++trial) {
    const OverlapMvaProblem p = RandomProblem(rng);
    auto scalar = Oracle(p);
    auto blocked = Production(p);
    ASSERT_EQ(scalar.ok(), blocked.ok()) << "trial " << trial;
    if (!scalar.ok()) continue;  // both NotConverged is agreement too
    ExpectBitIdentical(*scalar, *blocked);
  }
}

TEST(MvaKernelTest, ScratchReuseAcrossDifferentShapesIsClean) {
  // A scratch reused across solves of different sizes — and across the
  // production kernel and the oracle — must not leak state between
  // problems: interleave big/small/big and compare with fresh-scratch
  // solves.
  MvaKernelScratch scratch;
  const OverlapMvaProblem big = StripedProblem(40, 8, 0.8);
  const OverlapMvaProblem small = StripedProblem(3, 4, 0.3);

  auto big_fresh = Production(big);
  auto small_fresh = Production(small);
  ASSERT_TRUE(big_fresh.ok());
  ASSERT_TRUE(small_fresh.ok());

  auto big1 = Production(big, &scratch);
  auto small_oracle = Oracle(small, &scratch);
  auto small1 = Production(small, &scratch);
  auto big2 = Production(big, &scratch);
  ASSERT_TRUE(big1.ok());
  ASSERT_TRUE(small_oracle.ok());
  ASSERT_TRUE(small1.ok());
  ASSERT_TRUE(big2.ok());
  ExpectBitIdentical(*big_fresh, *big1);
  ExpectBitIdentical(*small_fresh, *small_oracle);
  ExpectBitIdentical(*small_fresh, *small1);
  ExpectBitIdentical(*big_fresh, *big2);
}

TEST(MvaKernelTest, ThreadLocalScratchIsStablePerThread) {
  MvaKernelScratch* first = &ThreadLocalMvaScratch();
  MvaKernelScratch* second = &ThreadLocalMvaScratch();
  EXPECT_EQ(first, second);
  const OverlapMvaProblem p = StripedProblem(10, 4, 0.5);
  auto fresh = Production(p);
  auto reused = Production(p, first);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(reused.ok());
  ExpectBitIdentical(*fresh, *reused);
}

TEST(MvaKernelTest, FlatMatrixReshapeZeroesAndKeepsShape) {
  FlatMatrix m;
  m.Reshape(3, 4);
  EXPECT_EQ(m.rows, 3u);
  EXPECT_EQ(m.cols, 4u);
  m.At(2, 3) = 7.0;
  EXPECT_EQ(m.Row(2)[3], 7.0);
  m.Reshape(2, 2);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t k = 0; k < 2; ++k) EXPECT_EQ(m.At(i, k), 0.0);
  }
}

}  // namespace
}  // namespace mrperf
