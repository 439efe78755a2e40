/// Group-compressed overlap-MVA, production vs oracle: the grouped
/// kernel (SolveGroupedOverlapMva) must solve the same fixed point as
/// the scalar oracle on the expanded problem (SolveOverlapMva(Expand()))
/// within solver tolerance on every problem (random instances
/// included), match it bit for bit when every class is a singleton, and
/// cache at class granularity so structurally identical problems hit by
/// construction.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "model/overlap.h"
#include "model/timeline.h"
#include "queueing/mva_kernel.h"
#include "queueing/mva_overlap.h"
#include "queueing/solve_cache.h"

namespace mrperf {
namespace {

/// Relative agreement bound between the grouped kernel and the oracle:
/// they reorder floating point (count-weighted multiplies vs sibling
/// sums) but iterate the same contraction to tolerance 1e-10.
constexpr double kPathRelTol = 1e-8;

/// Uniform int in [lo, hi] from the repo's deterministic RNG.
int RandInt(Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(
                  rng.UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

/// Figure-shaped grouped problem: G classes striped across nodes with
/// cpu/disk centers, homogeneous θ (intra and inter), `per_group`
/// members each.
GroupedOverlapMvaProblem StripedGroupedProblem(int groups, int per_group,
                                               int nodes, double theta) {
  GroupedOverlapMvaProblem p;
  for (int n = 0; n < nodes; ++n) {
    const std::string id = std::to_string(n);
    p.centers.push_back({"cpu" + id, CenterType::kQueueing, 4});
    p.centers.push_back({"disk" + id, CenterType::kQueueing, 1});
  }
  const size_t K = p.centers.size();
  for (int g = 0; g < groups; ++g) {
    OverlapTaskGroup group;
    group.count = per_group;
    group.demand.assign(K, 0.0);
    group.demand[(g % nodes) * 2] = 8.0 + g;
    group.demand[(g % nodes) * 2 + 1] = 2.0;
    p.groups.push_back(std::move(group));
  }
  p.overlap.assign(groups, std::vector<double>(groups, theta));
  // Interleaved member order, so expansion maps are non-trivial.
  for (int c = 0; c < per_group; ++c) {
    for (int g = 0; g < groups; ++g) p.task_group.push_back(g);
  }
  return p;
}

GroupedOverlapMvaProblem RandomGroupedProblem(Rng& rng) {
  const int groups = RandInt(rng, 1, 8);
  const int centers = RandInt(rng, 1, 5);
  GroupedOverlapMvaProblem p;
  for (int k = 0; k < centers; ++k) {
    const bool delay = RandInt(rng, 0, 9) == 0;
    p.centers.push_back({"c" + std::to_string(k),
                         delay ? CenterType::kDelay : CenterType::kQueueing,
                         RandInt(rng, 1, 4)});
  }
  for (int g = 0; g < groups; ++g) {
    OverlapTaskGroup group;
    group.count = RandInt(rng, 1, 6);
    group.demand.reserve(centers);
    for (int k = 0; k < centers; ++k) {
      const bool sparse = RandInt(rng, 0, 2) == 0;
      group.demand.push_back(sparse ? 0.0 : rng.Uniform(0.1, 10.0));
    }
    bool any = false;
    for (double d : group.demand) any = any || d > 0;
    if (!any) group.demand[0] = 1.0;
    p.groups.push_back(std::move(group));
  }
  p.overlap.assign(groups, std::vector<double>(groups, 0.0));
  for (int g = 0; g < groups; ++g) {
    for (int h = 0; h < groups; ++h) {
      p.overlap[g][h] = rng.Uniform(0.0, 1.0);
    }
  }
  // Shuffled member order.
  for (int g = 0; g < groups; ++g) {
    for (int c = 0; c < p.groups[g].count; ++c) p.task_group.push_back(g);
  }
  for (size_t i = p.task_group.size(); i > 1; --i) {
    std::swap(p.task_group[i - 1],
              p.task_group[rng.UniformInt(static_cast<uint64_t>(i))]);
  }
  return p;
}

Result<OverlapMvaSolution> Production(const GroupedOverlapMvaProblem& p,
                                      MvaKernelScratch* scratch = nullptr) {
  return SolveGroupedOverlapMva(p, {}, scratch);
}

/// The scalar oracle on the expanded per-task problem; rows follow
/// `task_group` order, like the production solution's.
Result<OverlapMvaSolution> Oracle(const GroupedOverlapMvaProblem& p,
                                  MvaKernelScratch* scratch = nullptr) {
  return SolveOverlapMva(p.Expand(), {}, scratch);
}

void ExpectWithinRelTol(const OverlapMvaSolution& ref,
                        const OverlapMvaSolution& got) {
  ASSERT_EQ(ref.response.size(), got.response.size());
  for (size_t i = 0; i < ref.response.size(); ++i) {
    EXPECT_NEAR(ref.response[i], got.response[i],
                kPathRelTol * std::max(1.0, std::abs(ref.response[i])))
        << "task " << i;
    ASSERT_EQ(ref.residence[i].size(), got.residence[i].size());
    for (size_t k = 0; k < ref.residence[i].size(); ++k) {
      EXPECT_NEAR(ref.residence[i][k], got.residence[i][k],
                  kPathRelTol * std::max(1.0, std::abs(ref.residence[i][k])))
          << "task " << i << " center " << k;
    }
  }
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

TEST(MvaGroupedTest, ExpandMaterializesEquivalentDenseProblem) {
  const GroupedOverlapMvaProblem p = StripedGroupedProblem(3, 4, 4, 0.8);
  const OverlapMvaProblem dense = p.Expand();
  ASSERT_EQ(dense.tasks.size(), p.TotalTasks());
  ASSERT_TRUE(dense.Validate().ok());
  for (size_t i = 0; i < dense.tasks.size(); ++i) {
    EXPECT_EQ(dense.tasks[i].demand, p.groups[p.task_group[i]].demand);
    for (size_t j = 0; j < dense.tasks.size(); ++j) {
      const double expected =
          i == j ? 0.0 : p.overlap[p.task_group[i]][p.task_group[j]];
      EXPECT_EQ(dense.overlap[i][j], expected) << i << "," << j;
    }
  }
}

TEST(MvaGroupedTest, GroupedMatchesScalarReferenceOnFigureShapes) {
  for (int per_group : {1, 3, 16}) {
    for (int groups : {1, 4, 7}) {
      const GroupedOverlapMvaProblem p =
          StripedGroupedProblem(groups, per_group, 4, 0.8);
      auto grouped = Production(p);
      auto scalar = Oracle(p);
      ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
      ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
      ExpectWithinRelTol(*scalar, *grouped);
    }
  }
}

TEST(MvaGroupedTest, GroupedMatchesScalarReferenceOnRandomProblems) {
  // Property test: random class counts/multiplicities/θ (asymmetric,
  // delay centers, sparse demands, shuffled member order).
  Rng rng(0xBADC0DEull);
  for (int trial = 0; trial < 50; ++trial) {
    const GroupedOverlapMvaProblem p = RandomGroupedProblem(rng);
    auto grouped = Production(p);
    auto scalar = Oracle(p);
    ASSERT_EQ(grouped.ok(), scalar.ok()) << "trial " << trial;
    if (!grouped.ok()) continue;  // both NotConverged is agreement too
    ExpectWithinRelTol(*scalar, *grouped);
  }
}

TEST(MvaGroupedTest, SingletonClassesDegenerateBitwiseToBlocked) {
  // With every count == 1 the weighted matrix is θ with a zero diagonal
  // and the grouped iteration is exactly the oracle's: bit-identity, not
  // tolerance. Every all-singleton A4 problem relies on this.
  Rng rng(0x5EEDull);
  for (int trial = 0; trial < 20; ++trial) {
    GroupedOverlapMvaProblem p = RandomGroupedProblem(rng);
    for (auto& g : p.groups) g.count = 1;
    p.task_group.clear();
    for (size_t g = 0; g < p.groups.size(); ++g) {
      p.task_group.push_back(static_cast<int>(g));
    }
    auto grouped = Production(p);
    auto oracle = Oracle(p);
    ASSERT_EQ(grouped.ok(), oracle.ok()) << "trial " << trial;
    if (!grouped.ok()) continue;
    ExpectBitIdentical(*oracle, *grouped);
  }
}

TEST(MvaGroupedTest, ExpansionFollowsTaskGroupOrder) {
  const GroupedOverlapMvaProblem p = StripedGroupedProblem(3, 2, 4, 0.5);
  auto sol = Production(p);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->response.size(), p.TotalTasks());
  // Members of one class are identical rows; classes differ (demands
  // differ by construction).
  EXPECT_EQ(sol->response[0], sol->response[3]);  // class 0 members
  EXPECT_EQ(sol->residence[1], sol->residence[4]);
  EXPECT_NE(sol->response[0], sol->response[1]);
}

TEST(MvaGroupedTest, GroupLevelSolutionHasOneRowPerClass) {
  GroupedOverlapMvaProblem p = StripedGroupedProblem(3, 5, 4, 0.6);
  auto group_level = SolveGroupedOverlapMvaGroupLevel(p);
  ASSERT_TRUE(group_level.ok());
  EXPECT_EQ(group_level->response.size(), 3u);
  const OverlapMvaSolution expanded =
      ExpandGroupedMvaSolution(*group_level, p.task_group);
  EXPECT_EQ(expanded.response.size(), p.TotalTasks());
  auto direct = Production(p);
  ASSERT_TRUE(direct.ok());
  ExpectBitIdentical(*direct, expanded);
}

TEST(MvaGroupedTest, ScratchReuseAcrossGroupedAndDenseSolvesIsClean) {
  MvaKernelScratch scratch;
  const GroupedOverlapMvaProblem big = StripedGroupedProblem(6, 8, 4, 0.7);
  const GroupedOverlapMvaProblem small = StripedGroupedProblem(2, 1, 4, 0.3);
  auto big_fresh = Production(big);
  auto small_fresh = Production(small);
  ASSERT_TRUE(big_fresh.ok());
  ASSERT_TRUE(small_fresh.ok());
  auto big1 = Production(big, &scratch);
  auto dense = Oracle(big, &scratch);
  auto small1 = Production(small, &scratch);
  auto big2 = Production(big, &scratch);
  ASSERT_TRUE(big1.ok());
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(small1.ok());
  ASSERT_TRUE(big2.ok());
  ExpectBitIdentical(*big_fresh, *big1);
  ExpectBitIdentical(*small_fresh, *small1);
  ExpectBitIdentical(*big_fresh, *big2);
}

TEST(MvaGroupedTest, ValidateCatchesStructuralErrors) {
  const GroupedOverlapMvaProblem good = StripedGroupedProblem(3, 2, 4, 0.5);
  ASSERT_TRUE(good.Validate().ok());

  GroupedOverlapMvaProblem bad = good;
  bad.groups[0].count = 0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;
  bad.overlap[1].pop_back();
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;
  bad.overlap[0][1] = 1.5;
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;
  bad.task_group[0] = 99;
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;
  bad.task_group.pop_back();
  EXPECT_FALSE(bad.Validate().ok());

  bad = good;  // counts disagree with the map
  std::swap(bad.groups[0].count, bad.groups[1].count);
  bad.groups[0].count += 1;
  bad.groups[1].count -= 1;
  EXPECT_FALSE(bad.Validate().ok());
}

/// Shard counts the grouped cache cases run at.
constexpr int kShardCounts[] = {1, 4};

TEST(MvaGroupedCacheTest, CompressedKeysHitAcrossMemberOrderings) {
  // Same compressed form, different member orderings: one solve, two
  // hits, each expanded through its own map.
  GroupedOverlapMvaProblem a = StripedGroupedProblem(3, 2, 4, 0.5);
  GroupedOverlapMvaProblem b = a;
  std::reverse(b.task_group.begin(), b.task_group.end());
  const OverlapMvaOptions opts;
  for (int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    SolveCache cache(shards);
    auto sa = cache.SolveThrough(a, opts);
    auto sb = cache.SolveThrough(b, opts);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 1);
    // b's expansion is a's reversed.
    for (size_t i = 0; i < sa->response.size(); ++i) {
      EXPECT_EQ(sa->response[i], sb->response[sa->response.size() - 1 - i]);
    }
  }
}

TEST(MvaGroupedCacheTest, Period2CycleHitsByConstruction) {
  // The modified-MVA loop's period-2 placement cycle alternates between
  // two problems; from the third solve on everything is a hit.
  const GroupedOverlapMvaProblem a = StripedGroupedProblem(3, 4, 4, 0.5);
  const GroupedOverlapMvaProblem b = StripedGroupedProblem(3, 4, 4, 0.7);
  const OverlapMvaOptions opts;
  for (int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    SolveCache cache(shards);
    auto a1 = cache.SolveThrough(a, opts);
    auto b1 = cache.SolveThrough(b, opts);
    auto a2 = cache.SolveThrough(a, opts);
    auto b2 = cache.SolveThrough(b, opts);
    ASSERT_TRUE(a1.ok() && b1.ok() && a2.ok() && b2.ok());
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(cache.stats().hits, 2);
    ExpectBitIdentical(*a1, *a2);
    ExpectBitIdentical(*b1, *b2);
  }
}

TEST(MvaGroupedCacheTest, HitsAreBitIdenticalToRecomputation) {
  const GroupedOverlapMvaProblem p = StripedGroupedProblem(4, 8, 4, 0.8);
  const OverlapMvaOptions opts;
  auto direct = SolveGroupedOverlapMva(p, opts);
  ASSERT_TRUE(direct.ok());
  for (int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    SolveCache cache(shards);
    auto cold = cache.SolveThrough(p, opts);
    auto warm = cache.SolveThrough(p, opts);
    ASSERT_TRUE(cold.ok() && warm.ok());
    ExpectBitIdentical(*direct, *cold);
    ExpectBitIdentical(*direct, *warm);
  }
}

/// Random timeline: tasks draw jobs/nodes/intervals/demands from small
/// pools, so equivalence classes of every multiplicity (including
/// singletons) appear.
Timeline RandomTimeline(Rng& rng) {
  Timeline tl;
  const int jobs = RandInt(rng, 1, 3);
  const int nodes = RandInt(rng, 1, 3);
  const int tasks = RandInt(rng, 2, 30);
  const double starts[] = {0.0, 4.0, 9.0};
  const double durations[] = {5.0, 8.0};
  const double cpus[] = {1.5, 3.0};
  for (int i = 0; i < tasks; ++i) {
    TimelineTask t;
    t.job = RandInt(rng, 0, jobs - 1);
    t.cls = TaskClass::kMap;
    t.index = i;
    t.node = RandInt(rng, 0, nodes - 1);
    const double start = starts[RandInt(rng, 0, 2)];
    t.interval = {start, start + durations[RandInt(rng, 0, 1)]};
    t.demand = {cpus[RandInt(rng, 0, 1)], 0.5, 0.0};
    tl.tasks.push_back(t);
  }
  tl.job_first_start.assign(jobs, 0.0);
  tl.job_end.assign(jobs, 20.0);
  tl.makespan = 20.0;
  return tl;
}

TEST(MvaGroupedTest, RandomTimelinesGroupedPipelineMatchesDense) {
  // End-to-end property over random timelines: grouped factors collapse
  // to G ≤ T classes whose solve agrees with the dense reference within
  // tolerance (and whose θ blocks expand to the dense matrix exactly).
  Rng rng(0x7135ABCDull);
  for (int trial = 0; trial < 30; ++trial) {
    const Timeline tl = RandomTimeline(rng);
    auto dense_f = ComputeOverlapFactors(tl);
    auto grouped_f = ComputeGroupedOverlapFactors(tl);
    ASSERT_TRUE(dense_f.ok());
    ASSERT_TRUE(grouped_f.ok());
    const size_t T = tl.tasks.size();
    ASSERT_LE(grouped_f->groups.size(), T);  // G ≤ T invariant

    // Dense per-task problem: one cpu/disk center pair per node.
    int max_node = 0;
    for (const auto& t : tl.tasks) max_node = std::max(max_node, t.node);
    std::vector<ServiceCenter> centers;
    for (int n = 0; n <= max_node; ++n) {
      centers.push_back({"cpu" + std::to_string(n), CenterType::kQueueing,
                         2});
      centers.push_back({"disk" + std::to_string(n), CenterType::kQueueing,
                         1});
    }
    OverlapMvaProblem dense;
    dense.centers = centers;
    for (const auto& t : tl.tasks) {
      OverlapTask task;
      task.demand.assign(centers.size(), 0.0);
      task.demand[static_cast<size_t>(t.node) * 2] = t.demand.cpu;
      task.demand[static_cast<size_t>(t.node) * 2 + 1] = t.demand.disk;
      dense.tasks.push_back(std::move(task));
    }
    dense.overlap = dense_f->theta;

    GroupedOverlapMvaProblem grouped;
    grouped.centers = centers;
    for (const OverlapGroup& g : grouped_f->groups) {
      OverlapTaskGroup group;
      group.count = g.count;
      group.demand.assign(centers.size(), 0.0);
      group.demand[static_cast<size_t>(g.node) * 2] = g.demand.cpu;
      group.demand[static_cast<size_t>(g.node) * 2 + 1] = g.demand.disk;
      grouped.groups.push_back(std::move(group));
    }
    grouped.overlap = grouped_f->theta;
    grouped.task_group = grouped_f->task_group;
    ASSERT_TRUE(grouped.Validate().ok());

    // The grouped problem's expansion is the dense problem, entry for
    // entry (bit-identical θ blocks).
    const OverlapMvaProblem expanded = grouped.Expand();
    ASSERT_EQ(expanded.tasks.size(), T);
    for (size_t i = 0; i < T; ++i) {
      EXPECT_EQ(expanded.tasks[i].demand, dense.tasks[i].demand);
      for (size_t j = 0; j < T; ++j) {
        if (i == j) continue;
        EXPECT_EQ(expanded.overlap[i][j], dense.overlap[i][j]);
      }
    }

    auto reference = SolveOverlapMva(dense);
    auto compressed = Production(grouped);
    ASSERT_EQ(reference.ok(), compressed.ok()) << "trial " << trial;
    if (!reference.ok()) continue;
    ExpectWithinRelTol(*reference, *compressed);
  }
}

TEST(MvaGroupedTest, InvalidProblemRejectedAtApiEntry) {
  GroupedOverlapMvaProblem p = StripedGroupedProblem(2, 2, 4, 0.5);
  p.overlap[0][1] = 2.0;
  EXPECT_FALSE(SolveGroupedOverlapMva(p).ok());
  SolveCache cache;
  EXPECT_FALSE(cache.SolveThrough(p, OverlapMvaOptions{}).ok());
}

}  // namespace
}  // namespace mrperf
