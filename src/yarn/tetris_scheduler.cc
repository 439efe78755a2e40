#include "yarn/tetris_scheduler.h"

#include <algorithm>
#include <cmath>

namespace mrperf {

TetrisScheduler::TetrisScheduler(TetrisOptions options)
    : options_(options) {}

Status TetrisScheduler::RegisterApplication(int64_t app_id) {
  auto [it, inserted] = apps_.try_emplace(app_id);
  if (!inserted && it->second.registered) {
    return Status::AlreadyExists("application already registered: " +
                                 std::to_string(app_id));
  }
  it->second.registered = true;
  return Status::OK();
}

Status TetrisScheduler::UnregisterApplication(int64_t app_id) {
  auto it = apps_.find(app_id);
  if (it == apps_.end() || !it->second.registered) {
    return Status::NotFound("application not registered: " +
                            std::to_string(app_id));
  }
  apps_.erase(it);
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [app_id](const PendingRequest& p) {
                                return p.app_id == app_id;
                              }),
               queue_.end());
  return Status::OK();
}

Status TetrisScheduler::SubmitRequests(
    int64_t app_id, const std::vector<ResourceRequest>& requests) {
  auto it = apps_.find(app_id);
  if (it == apps_.end() || !it->second.registered) {
    return Status::NotFound("application not registered: " +
                            std::to_string(app_id));
  }
  for (const auto& req : requests) {
    if (req.num_containers < 0) {
      return Status::InvalidArgument("num_containers must be >= 0");
    }
    if (!req.capability.IsNonNegative()) {
      return Status::InvalidArgument("capability must be non-negative");
    }
    if (req.num_containers > 0) {
      queue_.push_back(PendingRequest{app_id, req});
    }
  }
  return Status::OK();
}

Status TetrisScheduler::SetRemainingWorkHint(int64_t app_id,
                                             double seconds) {
  auto it = apps_.find(app_id);
  if (it == apps_.end() || !it->second.registered) {
    return Status::NotFound("application not registered: " +
                            std::to_string(app_id));
  }
  if (seconds <= 0) {
    return Status::InvalidArgument("remaining work must be positive");
  }
  it->second.remaining_work = seconds;
  return Status::OK();
}

double TetrisScheduler::Alignment(const Resource& capability,
                                  const NodeState& node) {
  // Normalized dot product of the demand vector with the node's free
  // vector; rewards placements that consume resources proportionally to
  // what the node has left (Tetris' packing heuristic).
  const Resource free = node.Free();
  const Resource cap = node.capacity();
  if (cap.memory_bytes <= 0 || cap.vcores <= 0) return 0.0;
  const double dm = static_cast<double>(capability.memory_bytes) /
                    cap.memory_bytes;
  const double dv = static_cast<double>(capability.vcores) / cap.vcores;
  const double fm = static_cast<double>(free.memory_bytes) /
                    cap.memory_bytes;
  const double fv = static_cast<double>(free.vcores) / cap.vcores;
  return dm * fm + dv * fv;
}

Result<std::vector<Container>> TetrisScheduler::Assign(
    std::vector<NodeState>& nodes) {
  std::vector<Container> granted;

  // Greedy packing loop: repeatedly place the globally best-scoring
  // (request, node) pair until nothing fits.
  while (true) {
    double best_score = -1.0;
    PendingRequest* best_req = nullptr;
    NodeState* best_node = nullptr;
    for (auto& pending : queue_) {
      if (pending.request.num_containers <= 0) continue;
      const auto app_it = apps_.find(pending.app_id);
      const double remaining =
          app_it != apps_.end() ? app_it->second.remaining_work : 1.0;
      const double srtf_bonus = options_.srtf_weight / remaining;

      // Score every node; the requested one gets the locality bonus.
      const NodeState* local = RequestedNode(nodes, pending.request.node);
      double req_best = -1.0;
      NodeState* req_node = nullptr;
      for (auto& node : nodes) {
        if (!node.CanFit(pending.request.capability)) continue;
        double score =
            Alignment(pending.request.capability, node) + srtf_bonus;
        if (&node == local) {
          // Locality bonus keeps data-local placements competitive.
          score *= 1.0 + options_.locality_tolerance;
        }
        if (score > req_best) {
          req_best = score;
          req_node = &node;
        }
      }
      if (req_node != nullptr && req_best > best_score) {
        best_score = req_best;
        best_req = &pending;
        best_node = req_node;
      }
    }
    if (best_req == nullptr) break;
    MRPERF_RETURN_NOT_OK(best_node->Allocate(best_req->request.capability));
    Container c;
    c.id = next_container_id_++;
    c.node = best_node->id();
    c.app_id = best_req->app_id;
    c.capability = best_req->request.capability;
    c.priority = best_req->request.priority;
    c.requested_type = best_req->request.type;
    granted.push_back(c);
    --best_req->request.num_containers;
  }
  // Compact exhausted requests.
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [](const PendingRequest& p) {
                                return p.request.num_containers <= 0;
                              }),
               queue_.end());
  return granted;
}

int64_t TetrisScheduler::PendingContainers() const {
  int64_t total = 0;
  for (const auto& p : queue_) total += p.request.num_containers;
  return total;
}

}  // namespace mrperf
