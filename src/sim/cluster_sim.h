/// \file cluster_sim.h
/// \brief Discrete-event Hadoop 2.x cluster simulator.
///
/// This stands in for the physical 4–8 node Hadoop 2.x cluster the paper
/// validates against: a YARN ResourceManager with the capacity
/// scheduler, per-job ApplicationMasters with the RMContainerAllocator
/// behaviour (map priority over reduce, slow start, locality), NodeManagers
/// with container accounting, and per-node processor-sharing CPU / disk /
/// NIC stations that create genuine queueing and synchronization delays.
/// Task phase demands come from the same Herodotou decomposition the
/// analytic model initializes from; per-task variability is injected with a
/// configurable multiplicative noise.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "hadoop/config.h"
#include "hadoop/herodotou_model.h"
#include "hadoop/job_profile.h"
#include "sim/event_queue.h"
#include "sim/ps_resource.h"
#include "yarn/app_master.h"
#include "yarn/capacity_scheduler.h"
#include "yarn/node.h"
#include "yarn/scheduler.h"
#include "yarn/tetris_scheduler.h"

namespace mrperf {

/// \brief RM scheduler policy used by the simulated ResourceManager.
enum class SchedulerKind {
  /// Capacity scheduler, single root queue, FIFO (the paper's assumption).
  kCapacityFifo,
  /// Tetris multi-resource packing + SRTF (§2.1 related-work baseline).
  kTetrisPacking,
};

/// \brief Simulator tuning knobs.
struct SimOptions {
  /// AM↔RM heartbeat period, seconds (container allocation granularity).
  double heartbeat_sec = 0.5;
  /// Coefficient of variation of the per-task duration multiplier
  /// (log-normal); models stragglers, GC pauses, data skew and disk
  /// variance. Hadoop task durations are near-exponentially variable under
  /// load, hence the default of 1; the paper-experiment driver calibrates
  /// it to 1.3 (DefaultExperimentOptions in experiments/experiment.h).
  double task_cv = 1.0;
  /// Delay between container grant and task start (localization, JVM).
  double container_launch_sec = 1.0;
  /// Time to start a job's ApplicationMaster container.
  double am_startup_sec = 2.0;
  /// RNG seed; identical seeds reproduce identical traces.
  uint64_t seed = 42;
  /// Safety cap on simulated seconds.
  double max_sim_time = 1e7;
  /// ResourceManager scheduling policy.
  SchedulerKind scheduler = SchedulerKind::kCapacityFifo;
};

/// \brief One job to simulate.
struct SimJobSpec {
  JobProfile profile;
  HadoopConfig config;
  int64_t input_bytes = 0;
  double submit_time = 0.0;
};

/// \brief Per-task measurements (the simulator's "job history log").
struct TaskRecord {
  int job = -1;
  int task_index = -1;   ///< index within the job (maps then reduces)
  TaskType type = TaskType::kMap;
  int node = -1;
  double start = 0.0;    ///< container start (after launch delay)
  double end = 0.0;
  /// Residence time per resource class, queueing included.
  double cpu_residence = 0.0;
  double disk_residence = 0.0;
  double network_residence = 0.0;
  /// Pure service demands placed on each resource class.
  double cpu_demand = 0.0;
  double disk_demand = 0.0;
  double network_demand = 0.0;
  /// For reduce tasks: time the shuffle-sort subtask ended (= merge
  /// subtask start). 0 for maps.
  double shuffle_end = 0.0;

  double ResponseTime() const { return end - start; }
};

/// \brief Whole-run results.
struct SimResult {
  /// Response time of each job: last task end − submit time.
  std::vector<double> job_response_times;
  std::vector<double> job_submit_times;
  std::vector<TaskRecord> tasks;
  double makespan = 0.0;
  /// Mean utilization of each resource class across nodes over the run.
  double cpu_utilization = 0.0;
  double disk_utilization = 0.0;
  double network_utilization = 0.0;
  int64_t events_executed = 0;

  double MeanJobResponse() const;
};

/// \brief The simulator. Construct, submit jobs, Run().
class ClusterSimulator {
 public:
  ClusterSimulator(ClusterConfig cluster, SimOptions options);
  ~ClusterSimulator();

  ClusterSimulator(const ClusterSimulator&) = delete;
  ClusterSimulator& operator=(const ClusterSimulator&) = delete;

  /// Queues a job for submission at `spec.submit_time`.
  Status SubmitJob(SimJobSpec spec);

  /// Runs the simulation to completion of all submitted jobs.
  Result<SimResult> Run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mrperf
