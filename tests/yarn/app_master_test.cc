#include "yarn/app_master.h"

#include <gtest/gtest.h>

#include "hadoop/config.h"

namespace mrperf {
namespace {

AmPlan MakePlan(int maps, int reduces, int nodes = 4) {
  AmPlan plan;
  plan.num_maps = maps;
  plan.num_reduces = reduces;
  plan.map_capability = Resource{1 * kGiB, 1};
  plan.reduce_capability = Resource{1 * kGiB, 1};
  plan.map_preferred_nodes.resize(maps);
  for (int i = 0; i < maps; ++i) plan.map_preferred_nodes[i] = i % nodes;
  return plan;
}

Container GrantFor(const ResourceRequest& req, int node, int64_t id) {
  Container c;
  c.id = id;
  c.node = node;
  c.capability = req.capability;
  c.priority = req.priority;
  c.requested_type = req.type;
  return c;
}

TEST(AppMasterTest, InitialRequestsAreMapsOnly) {
  AppMaster am(1, MakePlan(4, 2), HadoopConfig());
  auto reqs = am.BuildRequests();
  ASSERT_EQ(reqs.size(), 4u);  // reduces withheld by slow start
  for (const auto& r : reqs) {
    EXPECT_EQ(r.type, TaskType::kMap);
    EXPECT_EQ(r.priority, 20);
    EXPECT_EQ(r.num_containers, 1);
  }
}

TEST(AppMasterTest, MapRequestsCarryLocality) {
  AppMaster am(1, MakePlan(4, 0), HadoopConfig());
  auto reqs = am.BuildRequests();
  ASSERT_EQ(reqs.size(), 4u);
  EXPECT_EQ(reqs[0].node, 0);
  EXPECT_EQ(reqs[1].node, 1);
  EXPECT_EQ(reqs[2].node, 2);
  EXPECT_EQ(reqs[3].node, 3);
}

TEST(AppMasterTest, RequestsNotRepeated) {
  // §3.3: "The AM should request for containers again if and only if its
  // original estimate changed".
  AppMaster am(1, MakePlan(4, 2), HadoopConfig());
  EXPECT_EQ(am.BuildRequests().size(), 4u);
  EXPECT_EQ(am.BuildRequests().size(), 0u);
}

TEST(AppMasterTest, AssignPrefersDataLocalTask) {
  AppMaster am(1, MakePlan(4, 0), HadoopConfig());
  auto reqs = am.BuildRequests();
  // A container on node2 should bind to the task preferring node2.
  auto idx = am.AssignContainer(GrantFor(reqs[0], /*node=*/2, 100));
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 2);
  EXPECT_EQ(am.tasks()[2].assigned_node, 2);
  EXPECT_EQ(am.tasks()[2].state, TaskLifecycleState::kAssigned);
}

TEST(AppMasterTest, AssignFallsBackToAnyScheduledTask) {
  AppMaster am(1, MakePlan(2, 0), HadoopConfig());
  auto reqs = am.BuildRequests();
  // Node 7 is nobody's preference; first scheduled map wins.
  auto idx = am.AssignContainer(GrantFor(reqs[0], 7, 100));
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0);
}

TEST(AppMasterTest, AssignWithoutDemandFails) {
  AppMaster am(1, MakePlan(1, 0), HadoopConfig());
  auto reqs = am.BuildRequests();
  ASSERT_TRUE(am.AssignContainer(GrantFor(reqs[0], 0, 1)).ok());
  auto extra = am.AssignContainer(GrantFor(reqs[0], 0, 2));
  EXPECT_FALSE(extra.ok());
}

TEST(AppMasterTest, SlowStartGatesReduces) {
  // 20 maps, 5% slow start -> reduces appear after the first completion.
  HadoopConfig cfg;
  AppMaster am(1, MakePlan(20, 4), cfg);
  auto reqs = am.BuildRequests();
  ASSERT_EQ(reqs.size(), 20u);
  EXPECT_FALSE(am.SlowStartSatisfied());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(am.AssignContainer(GrantFor(reqs[i], i % 4, i)).ok());
  }
  EXPECT_TRUE(am.BuildRequests().empty());  // still no reduces: 0% complete
  ASSERT_TRUE(am.CompleteTask(0).ok());
  EXPECT_TRUE(am.SlowStartSatisfied());  // 5% of 20 == 1 map
  auto reduce_reqs = am.BuildRequests();
  ASSERT_FALSE(reduce_reqs.empty());
  for (const auto& r : reduce_reqs) {
    EXPECT_EQ(r.type, TaskType::kReduce);
    EXPECT_EQ(r.priority, 10);
    EXPECT_EQ(r.node, kAnyNode);  // map output locality not considered
  }
}

TEST(AppMasterTest, ReducesRampWithMapProgress) {
  HadoopConfig cfg;
  AppMaster am(1, MakePlan(10, 10), cfg);
  auto map_reqs = am.BuildRequests();
  // Assign only half the maps; complete 3.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(am.AssignContainer(GrantFor(map_reqs[i], 0, i)).ok());
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(am.CompleteTask(i).ok());
  // 30% progress with unassigned maps -> ceil(0.3 * 10) = 3 reduces.
  auto reqs = am.BuildRequests();
  int reduces = 0;
  for (const auto& r : reqs) {
    if (r.type == TaskType::kReduce) ++reduces;
  }
  EXPECT_EQ(reduces, 3);
}

TEST(AppMasterTest, AllReducesWhenAllMapsAssigned) {
  HadoopConfig cfg;
  AppMaster am(1, MakePlan(4, 6), cfg);
  auto reqs = am.BuildRequests();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(am.AssignContainer(GrantFor(reqs[i], 0, i)).ok());
  }
  ASSERT_TRUE(am.CompleteTask(0).ok());
  EXPECT_TRUE(am.AllMapsAssigned());
  auto reduce_reqs = am.BuildRequests();
  EXPECT_EQ(reduce_reqs.size(), 6u);  // §4.2.2: "schedule all reduce tasks"
}

TEST(AppMasterTest, SlowStartDisabledWaitsForAllMaps) {
  HadoopConfig cfg;
  cfg.slowstart_enabled = false;
  AppMaster am(1, MakePlan(4, 2), cfg);
  auto reqs = am.BuildRequests();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(am.AssignContainer(GrantFor(reqs[i], 0, i)).ok());
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(am.CompleteTask(i).ok());
  EXPECT_TRUE(am.SlowStartSatisfied());  // all maps assigned
  EXPECT_EQ(am.BuildRequests().size(), 2u);
}

TEST(AppMasterTest, CountersAndDone) {
  AppMaster am(1, MakePlan(2, 1), HadoopConfig());
  EXPECT_DOUBLE_EQ(am.MapProgress(), 0.0);
  auto reqs = am.BuildRequests();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(am.AssignContainer(GrantFor(reqs[i], 0, i)).ok());
  }
  ASSERT_TRUE(am.CompleteTask(0).ok());
  EXPECT_EQ(am.CompletedMaps(), 1);
  EXPECT_DOUBLE_EQ(am.MapProgress(), 0.5);
  EXPECT_FALSE(am.Done());
  ASSERT_TRUE(am.CompleteTask(1).ok());
  auto rr = am.BuildRequests();
  ASSERT_EQ(rr.size(), 1u);
  ASSERT_TRUE(am.AssignContainer(GrantFor(rr[0], 1, 7)).ok());
  ASSERT_TRUE(am.CompleteTask(2).ok());
  EXPECT_TRUE(am.Done());
  EXPECT_EQ(am.CompletedReduces(), 1);
}

TEST(AppMasterTest, CompleteRejectsBadTransitions) {
  AppMaster am(1, MakePlan(1, 0), HadoopConfig());
  EXPECT_FALSE(am.CompleteTask(0).ok());   // still pending
  EXPECT_FALSE(am.CompleteTask(5).ok());   // out of range
  EXPECT_FALSE(am.CompleteTask(-1).ok());
}

TEST(AppMasterTest, MapOnlyJobProgress) {
  AppMaster am(1, MakePlan(0, 0), HadoopConfig());
  EXPECT_DOUBLE_EQ(am.MapProgress(), 1.0);
  EXPECT_TRUE(am.Done());
}

}  // namespace
}  // namespace mrperf
