#include "sim/ps_resource.h"

#include <vector>

#include <gtest/gtest.h>

namespace mrperf {
namespace {

TEST(PsResourceTest, SingleJobRunsAtFullSpeed) {
  EventQueue q;
  PsResource disk(&q, 1);
  double elapsed = -1.0;
  ASSERT_TRUE(disk.Submit(5.0, [&](double e) { elapsed = e; }).ok());
  ASSERT_TRUE(q.Run().ok());
  EXPECT_NEAR(elapsed, 5.0, 1e-9);
  EXPECT_NEAR(q.Now(), 5.0, 1e-9);
}

TEST(PsResourceTest, TwoJobsShareOneServer) {
  // Two equal jobs on one PS server each take twice their demand.
  EventQueue q;
  PsResource disk(&q, 1);
  std::vector<double> elapsed;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(disk.Submit(3.0, [&](double e) { elapsed.push_back(e); }).ok());
  }
  ASSERT_TRUE(q.Run().ok());
  ASSERT_EQ(elapsed.size(), 2u);
  EXPECT_NEAR(elapsed[0], 6.0, 1e-9);
  EXPECT_NEAR(elapsed[1], 6.0, 1e-9);
}

TEST(PsResourceTest, MultiServerNoSlowdownBelowCapacity) {
  EventQueue q;
  PsResource cpu(&q, 4);
  std::vector<double> elapsed;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cpu.Submit(2.0, [&](double e) { elapsed.push_back(e); }).ok());
  }
  ASSERT_TRUE(q.Run().ok());
  for (double e : elapsed) EXPECT_NEAR(e, 2.0, 1e-9);
}

TEST(PsResourceTest, OverloadedMultiServerSlowsProportionally) {
  EventQueue q;
  PsResource cpu(&q, 2);
  std::vector<double> elapsed;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cpu.Submit(2.0, [&](double e) { elapsed.push_back(e); }).ok());
  }
  ASSERT_TRUE(q.Run().ok());
  // 4 jobs on 2 servers: rate 1/2 each -> 4 seconds.
  for (double e : elapsed) EXPECT_NEAR(e, 4.0, 1e-9);
}

TEST(PsResourceTest, StaggeredArrivalSpeedsUpAfterDeparture) {
  EventQueue q;
  PsResource disk(&q, 1);
  double first = -1, second = -1;
  ASSERT_TRUE(disk.Submit(2.0, [&](double e) { first = e; }).ok());
  ASSERT_TRUE(q.ScheduleAt(1.0,
                           [&] {
                             ASSERT_TRUE(disk.Submit(0.5, [&](double e) {
                                               second = e;
                                             }).ok());
                           })
                  .ok());
  ASSERT_TRUE(q.Run().ok());
  // Job A: 1s alone (1 unit done), then shares; remaining 1 unit at rate
  // 1/2 until B finishes. B needs 0.5 at rate 1/2 -> 1s (done t=2, A has
  // 0.5 left, alone again, finishes t=2.5).
  EXPECT_NEAR(first, 2.5, 1e-9);
  EXPECT_NEAR(second, 1.0, 1e-9);
}

TEST(PsResourceTest, ZeroDemandCompletesImmediately) {
  EventQueue q;
  PsResource disk(&q, 1);
  double elapsed = -1.0;
  ASSERT_TRUE(disk.Submit(0.0, [&](double e) { elapsed = e; }).ok());
  ASSERT_TRUE(q.Run().ok());
  EXPECT_NEAR(elapsed, 0.0, 1e-9);
}

TEST(PsResourceTest, NegativeDemandRejected) {
  EventQueue q;
  PsResource disk(&q, 1);
  EXPECT_FALSE(disk.Submit(-1.0, [](double) {}).ok());
  EXPECT_FALSE(disk.Submit(1.0, nullptr).ok());
}

TEST(PsResourceTest, BusyIntegralTracksUtilization) {
  EventQueue q;
  PsResource disk(&q, 1);
  ASSERT_TRUE(disk.Submit(3.0, [](double) {}).ok());
  ASSERT_TRUE(disk.Submit(3.0, [](double) {}).ok());
  ASSERT_TRUE(q.Run().ok());
  // One server busy for 6 seconds.
  EXPECT_NEAR(disk.BusyIntegral(), 6.0, 1e-9);
}

TEST(PsResourceTest, CompletionCallbackCanResubmit) {
  // Phase chaining: the completion of one phase submits the next.
  EventQueue q;
  PsResource disk(&q, 1);
  double done_at = -1.0;
  ASSERT_TRUE(disk.Submit(1.0,
                          [&](double) {
                            ASSERT_TRUE(disk.Submit(2.0, [&](double) {
                                              done_at = q.Now();
                                            }).ok());
                          })
                  .ok());
  ASSERT_TRUE(q.Run().ok());
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(PsResourceTest, ManyJobsConservesWork) {
  // Total busy time must equal total demand when the server never idles.
  EventQueue q;
  PsResource disk(&q, 1);
  double total = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double d = 0.5 + 0.1 * i;
    total += d;
    ASSERT_TRUE(disk.Submit(d, [](double) {}).ok());
  }
  ASSERT_TRUE(q.Run().ok());
  EXPECT_NEAR(q.Now(), total, 1e-6);
}

}  // namespace
}  // namespace mrperf
