/// \file capacity_scheduler.h
/// \brief Capacity scheduler with a single root queue (paper assumption 1,
/// §4.2.2): FIFO across applications, priority order within an application,
/// locality-preferring placement across nodes.

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "yarn/node.h"
#include "yarn/resources.h"
#include "yarn/scheduler.h"

namespace mrperf {

/// \brief Outstanding demand of one application, bucketed by priority.
struct AppDemand {
  int64_t app_id = -1;
  /// priority -> outstanding requests at that priority (scheduled state).
  std::map<int, std::vector<ResourceRequest>, std::greater<int>> by_priority;

  int64_t TotalContainers() const;
};

/// \brief The RM-side scheduler.
///
/// Applications register in submission order; `Assign` hands out containers
/// for the node set, serving applications FIFO and, within an application,
/// higher priorities first (maps before reduces, §3.3). Placement prefers
/// the requested node, then falls back to (or, for kAnyNode requests,
/// goes straight to) the node with the lowest occupancy rate.
class CapacityScheduler : public SchedulerInterface {
 public:
  /// Registers an application; FIFO position is registration order.
  /// Errors when the id is already registered.
  Status RegisterApplication(int64_t app_id) override;

  /// Removes an application and its outstanding demand.
  Status UnregisterApplication(int64_t app_id) override;

  /// Adds resource requests (the AM heartbeat payload, §3.3).
  Status SubmitRequests(
      int64_t app_id,
      const std::vector<ResourceRequest>& requests) override;

  /// Attempts to satisfy outstanding demand against `nodes`, indexed by
  /// node id. Returns the containers granted this round (possibly empty);
  /// grants update node accounting in place. A request naming an id
  /// outside `nodes` is treated as kAnyNode.
  Result<std::vector<Container>> Assign(std::vector<NodeState>& nodes) override;

  /// Total queued containers across applications.
  int64_t PendingContainers() const override;

  /// FIFO order of registered applications (for introspection/tests).
  std::vector<int64_t> ApplicationOrder() const;

 private:
  std::deque<AppDemand> apps_;
  int64_t next_container_id_ = 0;
};

}  // namespace mrperf
