#include "yarn/capacity_scheduler.h"

#include <algorithm>

namespace mrperf {

int64_t AppDemand::TotalContainers() const {
  int64_t total = 0;
  for (const auto& [prio, reqs] : by_priority) {
    for (const auto& r : reqs) total += r.num_containers;
  }
  return total;
}

Status CapacityScheduler::RegisterApplication(int64_t app_id) {
  for (const auto& app : apps_) {
    if (app.app_id == app_id) {
      return Status::AlreadyExists("application already registered: " +
                                   std::to_string(app_id));
    }
  }
  AppDemand demand;
  demand.app_id = app_id;
  apps_.push_back(std::move(demand));
  return Status::OK();
}

Status CapacityScheduler::UnregisterApplication(int64_t app_id) {
  for (auto it = apps_.begin(); it != apps_.end(); ++it) {
    if (it->app_id == app_id) {
      apps_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("application not registered: " +
                          std::to_string(app_id));
}

Status CapacityScheduler::SubmitRequests(
    int64_t app_id, const std::vector<ResourceRequest>& requests) {
  for (auto& app : apps_) {
    if (app.app_id != app_id) continue;
    for (const auto& req : requests) {
      if (req.num_containers < 0) {
        return Status::InvalidArgument("num_containers must be >= 0");
      }
      if (!req.capability.IsNonNegative()) {
        return Status::InvalidArgument("capability must be non-negative");
      }
      app.by_priority[req.priority].push_back(req);
    }
    return Status::OK();
  }
  return Status::NotFound("application not registered: " +
                          std::to_string(app_id));
}

Result<std::vector<Container>> CapacityScheduler::Assign(
    std::vector<NodeState>& nodes) {
  std::vector<Container> granted;
  // FIFO across applications: the head application drains its demand first
  // (single root queue, priority to the first application requesting
  // resources — paper §4.2.2 assumption 1).
  for (auto& app : apps_) {
    // Within the application, higher priority first (maps before reduces).
    for (auto& [prio, reqs] : app.by_priority) {
      for (auto& req : reqs) {
        while (req.num_containers > 0) {
          NodeState* target = RequestedNode(nodes, req.node);
          if (target == nullptr || !target->CanFit(req.capability)) {
            // Fall back to (or directly use, for kAnyNode requests) the
            // node with the lowest occupancy rate that fits.
            target = nullptr;
            double best = 2.0;
            for (auto& node : nodes) {
              if (!node.CanFit(req.capability)) continue;
              const double occ = node.OccupancyRate();
              if (occ < best) {
                best = occ;
                target = &node;
              }
            }
          }
          if (target == nullptr) break;  // No node fits; try next request.
          MRPERF_RETURN_NOT_OK(target->Allocate(req.capability));
          Container c;
          c.id = next_container_id_++;
          c.node = target->id();
          c.app_id = app.app_id;
          c.capability = req.capability;
          c.priority = prio;
          c.requested_type = req.type;
          granted.push_back(c);
          --req.num_containers;
        }
      }
    }
  }
  return granted;
}

int64_t CapacityScheduler::PendingContainers() const {
  int64_t total = 0;
  for (const auto& app : apps_) total += app.TotalContainers();
  return total;
}

std::vector<int64_t> CapacityScheduler::ApplicationOrder() const {
  std::vector<int64_t> out;
  out.reserve(apps_.size());
  for (const auto& app : apps_) out.push_back(app.app_id);
  return out;
}

}  // namespace mrperf
