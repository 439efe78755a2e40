#include "yarn/tetris_scheduler.h"

#include <gtest/gtest.h>

#include "hadoop/config.h"
#include "yarn/capacity_scheduler.h"

namespace mrperf {
namespace {

std::vector<NodeState> MakeNodes(int n, int64_t capacity = 8 * kGiB,
                                 int vcores = 8) {
  std::vector<NodeState> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.emplace_back(i, Resource{capacity, vcores});
  }
  return nodes;
}

ResourceRequest Req(int count, Resource capability,
                    TaskType type = TaskType::kMap, int node = kAnyNode) {
  ResourceRequest r;
  r.num_containers = count;
  r.priority = 20;
  r.capability = capability;
  r.node = node;
  r.type = type;
  return r;
}

TEST(TetrisTest, RegistrationLifecycle) {
  TetrisScheduler sched;
  EXPECT_TRUE(sched.RegisterApplication(1).ok());
  EXPECT_FALSE(sched.RegisterApplication(1).ok());
  EXPECT_TRUE(sched.UnregisterApplication(1).ok());
  EXPECT_FALSE(sched.UnregisterApplication(1).ok());
  EXPECT_FALSE(sched.SubmitRequests(1, {}).ok());
}

TEST(TetrisTest, GrantsWithinCapacity) {
  TetrisScheduler sched;
  auto nodes = MakeNodes(2, 2 * kGiB, 2);
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(
      sched.SubmitRequests(1, {Req(10, Resource{1 * kGiB, 1})}).ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  EXPECT_EQ(granted->size(), 4u);
  EXPECT_EQ(sched.PendingContainers(), 6);
}

TEST(TetrisTest, PacksComplementaryDemands) {
  // A memory-heavy and a core-heavy task fit together on one node only if
  // the packer pairs them; two same-shape tasks would not fit.
  TetrisScheduler sched;
  auto nodes = MakeNodes(1, 8 * kGiB, 8);
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(sched.SubmitRequests(1, {Req(1, Resource{6 * kGiB, 2}),
                                       Req(1, Resource{2 * kGiB, 6})})
                  .ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  EXPECT_EQ(granted->size(), 2u);  // both placed on the single node
  EXPECT_EQ(sched.PendingContainers(), 0);
}

TEST(TetrisTest, SrtfPrefersShortJob) {
  // Two apps, capacity for one container: the app with less remaining
  // work should win the slot.
  TetrisScheduler sched;
  auto nodes = MakeNodes(1, 1 * kGiB, 1);
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(sched.RegisterApplication(2).ok());
  ASSERT_TRUE(sched.SetRemainingWorkHint(1, 1000.0).ok());
  ASSERT_TRUE(sched.SetRemainingWorkHint(2, 10.0).ok());
  ASSERT_TRUE(
      sched.SubmitRequests(1, {Req(1, Resource{1 * kGiB, 1})}).ok());
  ASSERT_TRUE(
      sched.SubmitRequests(2, {Req(1, Resource{1 * kGiB, 1})}).ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->size(), 1u);
  EXPECT_EQ((*granted)[0].app_id, 2);
}

TEST(TetrisTest, LocalityBonusBreaksTies) {
  TetrisScheduler sched;
  auto nodes = MakeNodes(3);
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  const ResourceRequest on_node2 =
      Req(1, Resource{1 * kGiB, 1}, TaskType::kMap, 2);
  ASSERT_TRUE(sched.SubmitRequests(1, {on_node2}).ok());
  auto granted = sched.Assign(nodes);
  ASSERT_TRUE(granted.ok());
  ASSERT_EQ(granted->size(), 1u);
  EXPECT_EQ((*granted)[0].node, 2);
}

TEST(TetrisTest, UnregisterDropsQueuedDemand) {
  TetrisScheduler sched;
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  ASSERT_TRUE(
      sched.SubmitRequests(1, {Req(5, Resource{1 * kGiB, 1})}).ok());
  EXPECT_EQ(sched.PendingContainers(), 5);
  ASSERT_TRUE(sched.UnregisterApplication(1).ok());
  EXPECT_EQ(sched.PendingContainers(), 0);
}

TEST(TetrisTest, HintValidation) {
  TetrisScheduler sched;
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  EXPECT_FALSE(sched.SetRemainingWorkHint(1, 0.0).ok());
  EXPECT_FALSE(sched.SetRemainingWorkHint(9, 10.0).ok());
  EXPECT_TRUE(sched.SetRemainingWorkHint(1, 10.0).ok());
}

TEST(TetrisTest, InvalidRequestsRejected) {
  TetrisScheduler sched;
  ASSERT_TRUE(sched.RegisterApplication(1).ok());
  EXPECT_FALSE(
      sched.SubmitRequests(1, {Req(-1, Resource{1 * kGiB, 1})}).ok());
  ResourceRequest bad = Req(1, Resource{-1, 1});
  EXPECT_FALSE(sched.SubmitRequests(1, {bad}).ok());
}

TEST(TetrisTest, ReducesFragmentationVsFifo) {
  // Mixed container sizes on small nodes: packing should place at least
  // as many containers as FIFO order does.
  auto run = [](SchedulerInterface& sched) {
    auto nodes = MakeNodes(2, 6 * kGiB, 6);
    EXPECT_TRUE(sched.RegisterApplication(1).ok());
    EXPECT_TRUE(sched.RegisterApplication(2).ok());
    EXPECT_TRUE(sched
                    .SubmitRequests(1, {Req(2, Resource{4 * kGiB, 2})})
                    .ok());
    EXPECT_TRUE(sched
                    .SubmitRequests(2, {Req(4, Resource{2 * kGiB, 2})})
                    .ok());
    auto granted = sched.Assign(nodes);
    EXPECT_TRUE(granted.ok());
    return granted->size();
  };
  CapacityScheduler fifo;
  TetrisScheduler tetris;
  EXPECT_GE(run(tetris), run(fifo));
}

}  // namespace
}  // namespace mrperf
