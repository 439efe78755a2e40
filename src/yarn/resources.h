/// \file resources.h
/// \brief YARN resource vectors, containers and the task lifecycle.
///
/// Models the primitives of §3.2–3.4 of the paper: a `Resource` is the
/// "logical bundle of resources bound to a particular node", a `Container`
/// is one granted bundle, and `TaskLifecycleState` tracks the
/// pending → scheduled → assigned → completed transitions of Figures 2–3.

#pragma once

#include <cstdint>

#include "common/status.h"

namespace mrperf {

/// \brief A YARN resource vector (memory dominant-resource + vcores).
struct Resource {
  int64_t memory_bytes = 0;
  int vcores = 0;

  /// Componentwise a <= b.
  bool FitsIn(const Resource& other) const {
    return memory_bytes <= other.memory_bytes && vcores <= other.vcores;
  }

  Resource operator+(const Resource& o) const {
    return Resource{memory_bytes + o.memory_bytes, vcores + o.vcores};
  }
  Resource operator-(const Resource& o) const {
    return Resource{memory_bytes - o.memory_bytes, vcores - o.vcores};
  }
  Resource& operator+=(const Resource& o) {
    memory_bytes += o.memory_bytes;
    vcores += o.vcores;
    return *this;
  }
  Resource& operator-=(const Resource& o) {
    memory_bytes -= o.memory_bytes;
    vcores -= o.vcores;
    return *this;
  }
  bool operator==(const Resource& o) const {
    return memory_bytes == o.memory_bytes && vcores == o.vcores;
  }

  bool IsNonNegative() const { return memory_bytes >= 0 && vcores >= 0; }
};

/// \brief Node id a request may name to accept a container on any node
/// (§4.2.2: reduce requests ask for a container on any host). Node ids
/// are the cluster's node indices, 0 to N−1.
constexpr int kAnyNode = -1;

/// \brief Type of work a container is requested for.
enum class TaskType { kMap, kReduce, kAppMaster };

const char* TaskTypeToString(TaskType type);

/// \brief Task lifecycle of the MapReduce AM (paper §3.4 vocabulary).
enum class TaskLifecycleState {
  kPending,    ///< request not yet sent to the RM
  kScheduled,  ///< request sent to the RM but not yet assigned
  kAssigned,   ///< assigned to a container, executing
  kCompleted,  ///< container finished execution
};

const char* TaskLifecycleStateToString(TaskLifecycleState state);

/// \brief Valid lifecycle transitions; errors on anything else.
Status AdvanceLifecycle(TaskLifecycleState from, TaskLifecycleState to);

/// \brief One ResourceRequest row (paper Table 1).
struct ResourceRequest {
  int num_containers = 0;
  /// Higher value served first; MapReduce AM uses 20 for maps, 10 for
  /// reduces (§3.3). There is no cross-application priority implication.
  int priority = 0;
  Resource capability;
  /// Requested node id (the node holding a map's split), or kAnyNode.
  int node = kAnyNode;
  TaskType type = TaskType::kMap;
};

/// \brief A granted container.
struct Container {
  int64_t id = -1;
  int node = -1;
  int64_t app_id = -1;  ///< application the grant belongs to
  Resource capability;
  int priority = 0;
  TaskType requested_type = TaskType::kMap;
};

}  // namespace mrperf
