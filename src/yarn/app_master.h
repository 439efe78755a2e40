/// \file app_master.h
/// \brief MapReduce ApplicationMaster container-allocation logic
/// (paper §3.3–3.4; org.apache.hadoop.mapreduce.v2.app.rm.
/// RMContainerAllocator behaviour).
///
/// Tracks per-task lifecycle (pending → scheduled → assigned → completed),
/// emits ResourceRequests with map priority 20 / reduce priority 10 and
/// node-locality hints for maps, applies the reduce slow-start rule (wait
/// for 5% of maps by default, then ramp with map progress), and performs
/// the AM's second-level scheduling: matching granted containers to tasks,
/// preferring data-local assignments.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "hadoop/config.h"
#include "yarn/resources.h"

namespace mrperf {

/// \brief One logical task tracked by the AM.
struct AmTask {
  int index = -1;
  TaskType type = TaskType::kMap;
  TaskLifecycleState state = TaskLifecycleState::kPending;
  /// Preferred node for data-local execution (maps only), or kAnyNode.
  int preferred_node = kAnyNode;
  /// Node the task actually runs on once assigned.
  int assigned_node = -1;
  int64_t container_id = -1;
};

/// \brief Static resource plan of a MapReduce application (§3.3: static
/// requirements — m from input splits, r user-defined).
struct AmPlan {
  int num_maps = 0;
  int num_reduces = 0;
  Resource map_capability;
  Resource reduce_capability;
  /// preferred_nodes[i]: node holding the i-th split's data, or kAnyNode.
  std::vector<int> map_preferred_nodes;
};

/// \brief AM allocator state machine.
class AppMaster {
 public:
  /// \param app_id application id (FIFO position is decided by the RM)
  /// \param plan static task plan
  /// \param config Hadoop config (priorities, slow start)
  AppMaster(int64_t app_id, AmPlan plan, const HadoopConfig& config);

  int64_t app_id() const { return app_id_; }

  /// Builds the next heartbeat's ResourceRequests. Map requests are
  /// emitted immediately; reduce requests are withheld until the
  /// slow-start threshold of completed maps is reached, then released in
  /// proportion to map completion (paper §4.2.2, resource-management
  /// factor 2). Tasks whose requests are emitted move
  /// pending → scheduled.
  std::vector<ResourceRequest> BuildRequests();

  /// Accepts a granted container and binds it to a task of the matching
  /// type (second-level scheduling): data-local tasks first, then any
  /// pending-scheduled task. Returns the task index, or an error when no
  /// scheduled task of that type remains (the container should be
  /// released).
  Result<int> AssignContainer(const Container& container);

  /// Marks a task completed and frees its container binding.
  Status CompleteTask(int task_index);

  /// Lifecycle counters.
  int CompletedMaps() const;
  int CompletedReduces() const;
  int ScheduledOrAssigned(TaskType type) const;
  bool AllMapsAssigned() const;
  bool Done() const;

  /// Fraction of maps completed, in [0,1]; 1 when the job has no maps.
  double MapProgress() const;

  /// True when reduce requests may be emitted under slow start.
  bool SlowStartSatisfied() const;

  const std::vector<AmTask>& tasks() const { return tasks_; }

 private:
  int64_t app_id_;
  AmPlan plan_;
  int map_priority_;
  int reduce_priority_;
  double slowstart_fraction_;
  bool slowstart_enabled_;
  std::vector<AmTask> tasks_;  // maps first, then reduces
};

}  // namespace mrperf
