/// Exact-bits goldens for the discrete-event cluster simulator: every
/// job response and the executed-event count of ClusterSimulator runs
/// under the calibrated experiment options (DefaultExperimentOptions),
/// at the seeds of repetitions 0 and 1 (base seed 1234, step 7919), for
/// both RM schedulers.
///
/// Three shapes cover the placement paths: one small job on the paper
/// cluster; four 5 GiB jobs at 64 MB blocks, whose maps queue so both
/// the data-local grant and the any-node fallback run; and a two-tier
/// mixed-capacity cluster with two jobs. Every value is compared with
/// EXPECT_EQ, so any change to event order, placement, random draws or
/// floating-point order in the simulator, the AM or a scheduler fails
/// here. A deliberate behavioural change refreshes these tables.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/experiment.h"
#include "sim/cluster_sim.h"
#include "workload/wordcount.h"

namespace mrperf {
namespace {

struct Shape {
  ClusterConfig cluster;
  int jobs;
  int64_t input_bytes;
  int64_t block_bytes;
};

/// Executed events of one run; shape indexes Shapes(), rep sets the seed
/// (1234 + rep * 7919).
struct PinnedEvents {
  int shape;
  int rep;
  int64_t events_executed;
};

/// Response time of job `job` (submission order) in one run.
struct PinnedResponse {
  int shape;
  int rep;
  int job;
  double seconds;
};

std::vector<Shape> Shapes() {
  ClusterConfig mixed = PaperCluster(4);
  mixed.node_groups = {ClusterNodeGroup{2, Resource{64 * kGiB, 12}},
                       ClusterNodeGroup{2, Resource{16 * kGiB, 4}}};
  mixed.num_nodes = mixed.TotalNodes();
  return {
      {PaperCluster(4), 1, 1 * kGiB, 128 * kMiB},
      {PaperCluster(4), 4, 5 * kGiB, 64 * kMiB},
      {mixed, 2, 1 * kGiB, 128 * kMiB},
  };
}

Result<SimResult> Simulate(const Shape& shape, SchedulerKind kind, int rep) {
  SimOptions options = DefaultExperimentOptions().sim;
  options.seed = 1234 + static_cast<uint64_t>(rep) * 7919;
  options.scheduler = kind;
  ClusterSimulator sim(shape.cluster, options);
  for (int j = 0; j < shape.jobs; ++j) {
    SimJobSpec spec;
    spec.profile = WordCountProfile();
    spec.config = PaperHadoopConfig(shape.block_bytes, 2);
    spec.input_bytes = shape.input_bytes;
    MRPERF_RETURN_NOT_OK(sim.SubmitJob(spec));
  }
  return sim.Run();
}

/// Runs every (shape, rep) of `events` once and checks its event count
/// and the responses pinned for it; each run's responses must all be
/// pinned.
void ExpectPinned(SchedulerKind kind, const std::vector<PinnedEvents>& events,
                  const std::vector<PinnedResponse>& responses) {
  const std::vector<Shape> shapes = Shapes();
  ASSERT_EQ(events.size(), 2 * shapes.size());
  for (const PinnedEvents& e : events) {
    SCOPED_TRACE(testing::Message() << "shape/rep " << e.shape << "/" << e.rep);
    Result<SimResult> r = Simulate(shapes[e.shape], kind, e.rep);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->events_executed, e.events_executed);
    ASSERT_EQ(r->job_response_times.size(),
              static_cast<size_t>(shapes[e.shape].jobs));
    int checked = 0;
    for (const PinnedResponse& p : responses) {
      if (p.shape != e.shape || p.rep != e.rep) continue;
      EXPECT_EQ(r->job_response_times[p.job], p.seconds) << "job " << p.job;
      ++checked;
    }
    EXPECT_EQ(checked, shapes[e.shape].jobs);
  }
}

TEST(SimGoldenTest, CapacityFifoRunsArePinned) {
  const std::vector<PinnedEvents> events = {
      // One 1 GiB job on four nodes.
      {0, 0, 335},
      {0, 1, 451},
      // Four 5 GiB jobs at 64 MB blocks.
      {1, 0, 6654},
      {1, 1, 6963},
      // Two 1 GiB jobs on 2x65536MBx12c+2x16384MBx4c.
      {2, 0, 552},
      {2, 1, 625},
  };
  const std::vector<PinnedResponse> responses = {
      // One 1 GiB job on four nodes.
      {0, 0, 0, 85.72964815229787},
      {0, 1, 0, 151.14564252303063},
      // Four 5 GiB jobs at 64 MB blocks.
      {1, 0, 0, 270.27961615255469},
      {1, 0, 1, 251.98511578391916},
      {1, 0, 2, 191.93760816893862},
      {1, 0, 3, 223.16170828335675},
      {1, 1, 0, 276.19134799816379},
      {1, 1, 1, 375.29842424616544},
      {1, 1, 2, 218.63468742792131},
      {1, 1, 3, 328.85723711704946},
      // Two 1 GiB jobs on 2x65536MBx12c+2x16384MBx4c.
      {2, 0, 0, 101.77227588475508},
      {2, 0, 1, 61.468546169573898},
      {2, 1, 0, 121.2816070582473},
      {2, 1, 1, 139.14310550108229},
  };
  ExpectPinned(SchedulerKind::kCapacityFifo, events, responses);
}

TEST(SimGoldenTest, TetrisRunsArePinned) {
  const std::vector<PinnedEvents> events = {
      // One 1 GiB job on four nodes.
      {0, 0, 318},
      {0, 1, 454},
      // Four 5 GiB jobs at 64 MB blocks.
      {1, 0, 6895},
      {1, 1, 6969},
      // Two 1 GiB jobs on 2x65536MBx12c+2x16384MBx4c.
      {2, 0, 541},
      {2, 1, 631},
  };
  const std::vector<PinnedResponse> responses = {
      // One 1 GiB job on four nodes.
      {0, 0, 0, 85.379905608528915},
      {0, 1, 0, 151.14564252303063},
      // Four 5 GiB jobs at 64 MB blocks.
      {1, 0, 0, 207.10049731169408},
      {1, 0, 1, 362.21640504816367},
      {1, 0, 2, 216.23092804850205},
      {1, 0, 3, 232.54708306277882},
      {1, 1, 0, 291.45240150086096},
      {1, 1, 1, 400.64242342206188},
      {1, 1, 2, 212.13615758353421},
      {1, 1, 3, 379.38919047619623},
      // Two 1 GiB jobs on 2x65536MBx12c+2x16384MBx4c.
      {2, 0, 0, 85.348180871467605},
      {2, 0, 1, 93.127431314913423},
      {2, 1, 0, 116.80167559530037},
      {2, 1, 1, 135.73107086316941},
  };
  ExpectPinned(SchedulerKind::kTetrisPacking, events, responses);
}

}  // namespace
}  // namespace mrperf
