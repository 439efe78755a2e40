#include "sim/cluster_sim.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "workload/wordcount.h"

namespace mrperf {
namespace {

SimJobSpec WordCountJob(int64_t input_bytes, int reducers = 2) {
  SimJobSpec spec;
  spec.profile = WordCountProfile();
  spec.config = PaperHadoopConfig(128 * kMiB, reducers);
  spec.input_bytes = input_bytes;
  return spec;
}

SimOptions FastSim(uint64_t seed = 7) {
  SimOptions opts;
  opts.seed = seed;
  opts.task_cv = 0.3;
  return opts;
}

TEST(ClusterSimTest, SingleJobCompletes) {
  ClusterSimulator sim(PaperCluster(4), FastSim());
  ASSERT_TRUE(sim.SubmitJob(WordCountJob(1 * kGiB)).ok());
  auto r = sim.Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->job_response_times.size(), 1u);
  EXPECT_GT(r->job_response_times[0], 0.0);
  // 8 maps + 2 reduces.
  EXPECT_EQ(r->tasks.size(), 10u);
}

TEST(ClusterSimTest, DeterministicForSameSeed) {
  auto run = [](uint64_t seed) {
    ClusterSimulator sim(PaperCluster(4), FastSim(seed));
    EXPECT_TRUE(sim.SubmitJob(WordCountJob(1 * kGiB)).ok());
    auto r = sim.Run();
    EXPECT_TRUE(r.ok());
    return r->job_response_times[0];
  };
  EXPECT_DOUBLE_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(ClusterSimTest, TaskRecordsConsistent) {
  ClusterSimulator sim(PaperCluster(4), FastSim());
  ASSERT_TRUE(sim.SubmitJob(WordCountJob(1 * kGiB)).ok());
  auto r = sim.Run();
  ASSERT_TRUE(r.ok());
  int maps = 0, reduces = 0;
  for (const auto& t : r->tasks) {
    EXPECT_GE(t.start, 0.0);
    EXPECT_GT(t.end, t.start);
    EXPECT_GE(t.node, 0);
    EXPECT_LT(t.node, 4);
    // Residence (queueing included) is at least the pure demand.
    EXPECT_GE(t.cpu_residence, t.cpu_demand - 1e-6);
    EXPECT_GE(t.disk_residence, t.disk_demand - 1e-6);
    EXPECT_GE(t.network_residence, t.network_demand - 1e-6);
    if (t.type == TaskType::kMap) {
      ++maps;
      EXPECT_DOUBLE_EQ(t.network_demand, 0.0);  // node-local maps
    } else {
      ++reduces;
      EXPECT_GT(t.shuffle_end, t.start);
      EXPECT_LE(t.shuffle_end, t.end);
    }
  }
  EXPECT_EQ(maps, 8);
  EXPECT_EQ(reduces, 2);
}

TEST(ClusterSimTest, ReduceWaitsForAllMaps) {
  // A reduce's shuffle cannot end before the last map of its job ends.
  ClusterSimulator sim(PaperCluster(4), FastSim());
  ASSERT_TRUE(sim.SubmitJob(WordCountJob(1 * kGiB)).ok());
  auto r = sim.Run();
  ASSERT_TRUE(r.ok());
  double last_map_end = 0.0;
  for (const auto& t : r->tasks) {
    if (t.type == TaskType::kMap) {
      last_map_end = std::max(last_map_end, t.end);
    }
  }
  for (const auto& t : r->tasks) {
    if (t.type == TaskType::kReduce) {
      EXPECT_GE(t.shuffle_end, last_map_end - 1e-6);
    }
  }
}

TEST(ClusterSimTest, SlowStartOverlapsShuffleWithMaps) {
  // With slow start, some reduce must start before the last map finishes.
  SimOptions opts = FastSim();
  opts.task_cv = 0.5;  // spread the map completions
  ClusterSimulator sim(PaperCluster(4), opts);
  ASSERT_TRUE(sim.SubmitJob(WordCountJob(5 * kGiB)).ok());
  auto r = sim.Run();
  ASSERT_TRUE(r.ok());
  double last_map_end = 0.0, first_reduce_start = 1e18;
  for (const auto& t : r->tasks) {
    if (t.type == TaskType::kMap) {
      last_map_end = std::max(last_map_end, t.end);
    } else {
      first_reduce_start = std::min(first_reduce_start, t.start);
    }
  }
  EXPECT_LT(first_reduce_start, last_map_end);
}

TEST(ClusterSimTest, MoreInputTakesLonger) {
  auto response = [](int64_t bytes) {
    ClusterSimulator sim(PaperCluster(4), FastSim());
    EXPECT_TRUE(sim.SubmitJob(WordCountJob(bytes)).ok());
    auto r = sim.Run();
    EXPECT_TRUE(r.ok());
    return r->job_response_times[0];
  };
  EXPECT_LT(response(1 * kGiB), response(5 * kGiB));
}

TEST(ClusterSimTest, MoreNodesNotSlower) {
  auto response = [](int nodes) {
    ClusterSimulator sim(PaperCluster(nodes), FastSim());
    EXPECT_TRUE(sim.SubmitJob(WordCountJob(5 * kGiB)).ok());
    auto r = sim.Run();
    EXPECT_TRUE(r.ok());
    return r->job_response_times[0];
  };
  EXPECT_GE(response(2) * 1.02, response(8));
}

TEST(ClusterSimTest, ConcurrentJobsAllComplete) {
  ClusterSimulator sim(PaperCluster(4), FastSim());
  for (int j = 0; j < 3; ++j) {
    ASSERT_TRUE(sim.SubmitJob(WordCountJob(1 * kGiB)).ok());
  }
  auto r = sim.Run();
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->job_response_times.size(), 3u);
  EXPECT_EQ(r->tasks.size(), 30u);
  for (double t : r->job_response_times) EXPECT_GT(t, 0.0);
}

TEST(ClusterSimTest, ConcurrencySlowsJobsDown) {
  auto mean_response = [](int jobs) {
    ClusterSimulator sim(PaperCluster(4), FastSim());
    for (int j = 0; j < jobs; ++j) {
      EXPECT_TRUE(sim.SubmitJob(WordCountJob(1 * kGiB)).ok());
    }
    auto r = sim.Run();
    EXPECT_TRUE(r.ok());
    return r->MeanJobResponse();
  };
  EXPECT_LT(mean_response(1), mean_response(4));
}

TEST(ClusterSimTest, StaggeredSubmissionRespected) {
  ClusterSimulator sim(PaperCluster(4), FastSim());
  SimJobSpec early = WordCountJob(1 * kGiB);
  SimJobSpec late = WordCountJob(1 * kGiB);
  late.submit_time = 1000.0;
  ASSERT_TRUE(sim.SubmitJob(early).ok());
  ASSERT_TRUE(sim.SubmitJob(late).ok());
  auto r = sim.Run();
  ASSERT_TRUE(r.ok());
  // The late job runs on an idle cluster; responses should be similar and
  // the makespan extends past its submission.
  EXPECT_GT(r->makespan, 1000.0);
  EXPECT_NEAR(r->job_response_times[1], r->job_response_times[0],
              0.6 * r->job_response_times[0]);
}

TEST(ClusterSimTest, MapOnlyJob) {
  ClusterSimulator sim(PaperCluster(2), FastSim());
  ASSERT_TRUE(sim.SubmitJob(WordCountJob(512 * kMiB, /*reducers=*/0)).ok());
  auto r = sim.Run();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->tasks.size(), 4u);
  for (const auto& t : r->tasks) EXPECT_EQ(t.type, TaskType::kMap);
}

TEST(ClusterSimTest, UtilizationsInRange) {
  ClusterSimulator sim(PaperCluster(4), FastSim());
  ASSERT_TRUE(sim.SubmitJob(WordCountJob(5 * kGiB)).ok());
  auto r = sim.Run();
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->cpu_utilization, 0.0);
  EXPECT_LE(r->cpu_utilization, 1.0);
  EXPECT_GT(r->disk_utilization, 0.0);
  EXPECT_LE(r->disk_utilization, 1.0);
  EXPECT_GE(r->network_utilization, 0.0);
  EXPECT_LE(r->network_utilization, 1.0);
}

TEST(ClusterSimTest, HeterogeneousGroupsMatchUniformWhenShapesAgree) {
  // A node_groups spec describing PaperCluster(4)'s uniform nodes must
  // reproduce the uniform trace bit-for-bit (same NodeStates, same PS
  // station concurrencies, same event order under one seed).
  auto run = [](const ClusterConfig& cluster) {
    ClusterSimulator sim(cluster, FastSim(21));
    EXPECT_TRUE(sim.SubmitJob(WordCountJob(1 * kGiB)).ok());
    auto r = sim.Run();
    EXPECT_TRUE(r.ok());
    return *r;
  };
  const ClusterConfig uniform = PaperCluster(4);
  ClusterConfig grouped = uniform;
  grouped.node_groups = {ClusterNodeGroup{
      4, Resource{uniform.node_capacity_bytes, uniform.node.cpu_cores}}};
  const SimResult a = run(uniform);
  const SimResult b = run(grouped);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.MeanJobResponse(), b.MeanJobResponse());
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
}

TEST(ClusterSimTest, MixedCapacityClusterPlacesMoreWorkOnBigNodes) {
  // 1 big node (4x memory, 3x vcores) + 2 small nodes: every task still
  // completes, and the big node runs at least as many containers as
  // either small one (the schedulers fill by occupancy / packing score
  // over the advertised capacities).
  ClusterConfig cluster = PaperCluster(3);
  cluster.node_groups = {ClusterNodeGroup{1, Resource{64 * kGiB, 12}},
                         ClusterNodeGroup{2, Resource{16 * kGiB, 4}}};
  ClusterSimulator sim(cluster, FastSim(5));
  ASSERT_TRUE(sim.SubmitJob(WordCountJob(2 * kGiB, 4)).ok());
  auto r = sim.Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->job_response_times.size(), 1u);
  EXPECT_EQ(r->tasks.size(), 20u);  // 16 maps + 4 reduces
  int per_node[3] = {0, 0, 0};
  for (const auto& t : r->tasks) {
    ASSERT_GE(t.node, 0);
    ASSERT_LT(t.node, 3);
    ++per_node[t.node];
  }
  EXPECT_GE(per_node[0], per_node[1]);
  EXPECT_GE(per_node[0], per_node[2]);
}

TEST(ClusterSimTest, InvalidSubmissionsRejected) {
  ClusterSimulator sim(PaperCluster(2), FastSim());
  SimJobSpec spec = WordCountJob(1 * kGiB);
  spec.input_bytes = 0;
  EXPECT_FALSE(sim.SubmitJob(spec).ok());
  spec = WordCountJob(1 * kGiB);
  spec.submit_time = -1.0;
  EXPECT_FALSE(sim.SubmitJob(spec).ok());
  // 2 GiB containers fit no 1 GiB node, uniform or grouped; accepted,
  // such a job would wait for its AM container until max_sim_time.
  ClusterConfig small = PaperCluster(4);
  small.node_capacity_bytes = 1 * kGiB;
  ClusterSimulator uniform(small, FastSim());
  EXPECT_TRUE(uniform.SubmitJob(WordCountJob(1 * kGiB)).IsInvalidArgument());
  small.node_groups = {ClusterNodeGroup{4, Resource{1 * kGiB, 4}}};
  ClusterSimulator grouped(small, FastSim());
  EXPECT_TRUE(grouped.SubmitJob(WordCountJob(1 * kGiB)).IsInvalidArgument());
}

TEST(ClusterSimTest, RunWithoutJobsFails) {
  ClusterSimulator sim(PaperCluster(2), FastSim());
  EXPECT_FALSE(sim.Run().ok());
}

TEST(ClusterSimTest, TetrisSchedulerCompletesWorkload) {
  SimOptions opts = FastSim();
  opts.scheduler = SchedulerKind::kTetrisPacking;
  ClusterSimulator sim(PaperCluster(4), opts);
  for (int j = 0; j < 2; ++j) {
    ASSERT_TRUE(sim.SubmitJob(WordCountJob(1 * kGiB)).ok());
  }
  auto r = sim.Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tasks.size(), 20u);
  for (double t : r->job_response_times) EXPECT_GT(t, 0.0);
}

TEST(ClusterSimTest, TetrisAndFifoBothCorrectJustDifferent) {
  auto run = [](SchedulerKind kind) {
    SimOptions opts = FastSim();
    opts.scheduler = kind;
    ClusterSimulator sim(PaperCluster(2), opts);
    EXPECT_TRUE(sim.SubmitJob(WordCountJob(1 * kGiB)).ok());
    EXPECT_TRUE(sim.SubmitJob(WordCountJob(1 * kGiB)).ok());
    auto r = sim.Run();
    EXPECT_TRUE(r.ok());
    return r->MeanJobResponse();
  };
  // Both policies complete the same work; responses are in the same
  // ballpark (policy changes placement/order, not the work itself).
  const double fifo = run(SchedulerKind::kCapacityFifo);
  const double tetris = run(SchedulerKind::kTetrisPacking);
  EXPECT_GT(fifo, 0.0);
  EXPECT_GT(tetris, 0.0);
  EXPECT_NEAR(tetris / fifo, 1.0, 0.5);
}

TEST(ClusterSimTest, HigherCvInflatesResponse) {
  auto response = [](double cv) {
    SimOptions opts = FastSim();
    opts.task_cv = cv;
    ClusterSimulator sim(PaperCluster(4), opts);
    EXPECT_TRUE(sim.SubmitJob(WordCountJob(5 * kGiB)).ok());
    auto r = sim.Run();
    EXPECT_TRUE(r.ok());
    return r->job_response_times[0];
  };
  // The job ends at the max of its task durations; more variance -> later.
  EXPECT_LT(response(0.05), response(1.2));
}

}  // namespace
}  // namespace mrperf
