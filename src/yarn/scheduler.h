/// \file scheduler.h
/// \brief Abstract RM scheduler interface.
///
/// Two implementations ship with the library: the capacity scheduler with
/// a single root queue (the paper's assumption, `capacity_scheduler.h`)
/// and the Tetris multi-resource packing scheduler discussed in the
/// paper's related work (§2.1, `tetris_scheduler.h`). The cluster
/// simulator drives either through this interface.

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "yarn/node.h"
#include "yarn/resources.h"

namespace mrperf {

/// \brief ResourceManager-side scheduler contract.
class SchedulerInterface {
 public:
  virtual ~SchedulerInterface() = default;

  /// Registers an application (FIFO position = registration order where
  /// the policy uses one).
  virtual Status RegisterApplication(int64_t app_id) = 0;

  /// Removes an application and its outstanding demand.
  virtual Status UnregisterApplication(int64_t app_id) = 0;

  /// Adds resource requests from an application heartbeat.
  virtual Status SubmitRequests(
      int64_t app_id, const std::vector<ResourceRequest>& requests) = 0;

  /// Attempts to place outstanding demand on `nodes`, indexed by node id
  /// (`nodes[i].id() == i`); grants update the node accounting in place.
  virtual Result<std::vector<Container>> Assign(
      std::vector<NodeState>& nodes) = 0;

  /// Outstanding queued containers.
  virtual int64_t PendingContainers() const = 0;

  /// Optional hint: estimated remaining work (seconds) of an application,
  /// used by shortest-remaining-time-first policies (Tetris). Default
  /// implementations ignore it.
  virtual Status SetRemainingWorkHint(int64_t app_id, double seconds) {
    (void)app_id;
    (void)seconds;
    return Status::OK();
  }
};

/// \brief The node a request names, or nullptr when `node` is kAnyNode or
/// any other id outside `nodes` (such a request may run on any node).
/// `nodes` is indexed by id, as `SchedulerInterface::Assign` receives it.
inline NodeState* RequestedNode(std::vector<NodeState>& nodes, int node) {
  if (node < 0 || node >= static_cast<int>(nodes.size())) return nullptr;
  return &nodes[static_cast<size_t>(node)];
}

}  // namespace mrperf
