#include "yarn/capacity_scheduler.h"

#include <gtest/gtest.h>

#include "hadoop/config.h"

namespace mrperf {
namespace {

std::vector<NodeState> MakeNodes(int n, int64_t capacity = 8 * kGiB) {
  std::vector<NodeState> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.emplace_back(i, Resource{capacity, 32});
  }
  return nodes;
}

ResourceRequest Req(int count, int priority, TaskType type,
                    int node = kAnyNode) {
  ResourceRequest r;
  r.num_containers = count;
  r.priority = priority;
  r.capability = Resource{1 * kGiB, 1};
  r.node = node;
  r.type = type;
  return r;
}

TEST(CapacitySchedulerTest, RegistrationLifecycle) {
  CapacityScheduler sched;
  EXPECT_TRUE(sched.RegisterApplication(1).ok());
  EXPECT_TRUE(sched.RegisterApplication(2).ok());
  EXPECT_FALSE(sched.RegisterApplication(1).ok());  // duplicate
  EXPECT_EQ(sched.ApplicationOrder(), (std::vector<int64_t>{1, 2}));
  EXPECT_TRUE(sched.UnregisterApplication(1).ok());
  EXPECT_FALSE(sched.UnregisterApplication(1).ok());
  EXPECT_EQ(sched.ApplicationOrder(), (std::vector<int64_t>{2}));
}

TEST(CapacitySchedulerTest, SubmitRequiresRegistration) {
  CapacityScheduler sched;
  EXPECT_FALSE(sched.SubmitRequests(9, {Req(1, 20, TaskType::kMap)}).ok());
}

TEST(CapacitySchedulerTest, GrantsUpToCapacity) {
  CapacityScheduler sched;
  auto nodes = MakeNodes(2, 2 * kGiB);  // 2 containers per node
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(sched.SubmitRequests(1, {Req(10, 20, TaskType::kMap)}).ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  EXPECT_EQ(granted->size(), 4u);
  EXPECT_EQ(sched.PendingContainers(), 6);
  // Nodes are saturated now.
  auto more = sched.Assign(nodes);
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(more->empty());
}

TEST(CapacitySchedulerTest, FifoAcrossApplications) {
  // Paper §4.2.2 factor 1: "priority will be given to the first
  // application requesting the resources".
  CapacityScheduler sched;
  auto nodes = MakeNodes(1, 3 * kGiB);
  ASSERT_TRUE(sched.RegisterApplication(10).ok());
  ASSERT_TRUE(sched.RegisterApplication(20).ok());
  ASSERT_TRUE(sched.SubmitRequests(10, {Req(2, 20, TaskType::kMap)}).ok());
  ASSERT_TRUE(sched.SubmitRequests(20, {Req(2, 20, TaskType::kMap)}).ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->size(), 3u);
  EXPECT_EQ((*granted)[0].app_id, 10);
  EXPECT_EQ((*granted)[1].app_id, 10);
  EXPECT_EQ((*granted)[2].app_id, 20);
}

TEST(CapacitySchedulerTest, PriorityWithinApplication) {
  // §3.3: maps (priority 20) are served before reduces (priority 10),
  // regardless of submission order within the app.
  CapacityScheduler sched;
  auto nodes = MakeNodes(1, 3 * kGiB);
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(sched.SubmitRequests(1, {Req(2, 10, TaskType::kReduce),
                                       Req(2, 20, TaskType::kMap)})
                  .ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->size(), 3u);
  EXPECT_EQ((*granted)[0].requested_type, TaskType::kMap);
  EXPECT_EQ((*granted)[1].requested_type, TaskType::kMap);
  EXPECT_EQ((*granted)[2].requested_type, TaskType::kReduce);
}

TEST(CapacitySchedulerTest, NoCrossApplicationPriority) {
  // "There is no cross-application implication of priorities": app 1's
  // low-priority demand still precedes app 2's high-priority demand.
  CapacityScheduler sched;
  auto nodes = MakeNodes(1, 2 * kGiB);
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(sched.RegisterApplication(2).ok());
  ASSERT_TRUE(sched.SubmitRequests(1, {Req(2, 10, TaskType::kReduce)}).ok());
  ASSERT_TRUE(sched.SubmitRequests(2, {Req(2, 20, TaskType::kMap)}).ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->size(), 2u);
  EXPECT_EQ((*granted)[0].app_id, 1);
  EXPECT_EQ((*granted)[1].app_id, 1);
}

TEST(CapacitySchedulerTest, LocalityPreferred) {
  CapacityScheduler sched;
  auto nodes = MakeNodes(3);
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(sched.SubmitRequests(1, {Req(1, 20, TaskType::kMap, 2)}).ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->size(), 1u);
  EXPECT_EQ((*granted)[0].node, 2);
}

TEST(CapacitySchedulerTest, LocalityFallsBackWhenHostFull) {
  CapacityScheduler sched;
  auto nodes = MakeNodes(2, 1 * kGiB);
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  // Fill node 0 first.
  ASSERT_TRUE(sched.SubmitRequests(1, {Req(1, 20, TaskType::kMap, 0)}).ok());
  ASSERT_TRUE(sched.Assign(nodes).ok());
  // A second node-0 request must fall back to node 1.
  ASSERT_TRUE(sched.SubmitRequests(1, {Req(1, 20, TaskType::kMap, 0)}).ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->size(), 1u);
  EXPECT_EQ((*granted)[0].node, 1);
}

TEST(CapacitySchedulerTest, AnyHostPicksLowestOccupancy) {
  CapacityScheduler sched;
  auto nodes = MakeNodes(2);
  ASSERT_TRUE(nodes[0].Allocate(Resource{4 * kGiB, 1}).ok());  // preload
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(sched.SubmitRequests(1, {Req(1, 10, TaskType::kReduce)}).ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->size(), 1u);
  EXPECT_EQ((*granted)[0].node, 1);
}

TEST(CapacitySchedulerTest, UnknownLocalityTreatedAsAny) {
  // Ids outside the node vector, on either side, mean any node.
  CapacityScheduler sched;
  auto nodes = MakeNodes(1);
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(sched.SubmitRequests(1, {Req(1, 20, TaskType::kMap, 1),
                                       Req(1, 20, TaskType::kMap, -7)})
                  .ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->size(), 2u);
  EXPECT_EQ((*granted)[0].node, 0);
  EXPECT_EQ((*granted)[1].node, 0);
}

TEST(CapacitySchedulerTest, InvalidRequestsRejected) {
  CapacityScheduler sched;
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ResourceRequest bad = Req(-1, 20, TaskType::kMap);
  EXPECT_FALSE(sched.SubmitRequests(1, {bad}).ok());
  bad = Req(1, 20, TaskType::kMap);
  bad.capability.memory_bytes = -5;
  EXPECT_FALSE(sched.SubmitRequests(1, {bad}).ok());
}

TEST(CapacitySchedulerTest, ContainerIdsUniqueAndIncreasing) {
  CapacityScheduler sched;
  auto nodes = MakeNodes(2);
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(sched.SubmitRequests(1, {Req(4, 20, TaskType::kMap)}).ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->size(), 4u);
  for (size_t i = 1; i < granted->size(); ++i) {
    EXPECT_GT((*granted)[i].id, (*granted)[i - 1].id);
  }
}

TEST(CapacitySchedulerTest, Table1RunningExample) {
  // Table 1 of the paper: n=3 nodes, 2 maps on node 1, 2 maps on node 2,
  // 1 reduce anywhere; maps priority 20, reduce priority 10.
  CapacityScheduler sched;
  auto nodes = MakeNodes(3);
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(sched.SubmitRequests(1, {Req(2, 20, TaskType::kMap, 1),
                                       Req(2, 20, TaskType::kMap, 2),
                                       Req(1, 10, TaskType::kReduce)})
                  .ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->size(), 5u);
  // First four grants are the maps, last is the reduce.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*granted)[i].requested_type, TaskType::kMap);
    EXPECT_EQ((*granted)[i].priority, 20);
  }
  EXPECT_EQ((*granted)[4].requested_type, TaskType::kReduce);
  EXPECT_EQ((*granted)[4].priority, 10);
  // Locality honoured.
  EXPECT_EQ((*granted)[0].node, 1);
  EXPECT_EQ((*granted)[1].node, 1);
  EXPECT_EQ((*granted)[2].node, 2);
  EXPECT_EQ((*granted)[3].node, 2);
}

}  // namespace
}  // namespace mrperf
