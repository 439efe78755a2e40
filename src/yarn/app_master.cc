#include "yarn/app_master.h"

#include <algorithm>
#include <cmath>

namespace mrperf {

AppMaster::AppMaster(int64_t app_id, AmPlan plan, const HadoopConfig& config)
    : app_id_(app_id),
      plan_(std::move(plan)),
      map_priority_(config.map_priority),
      reduce_priority_(config.reduce_priority),
      slowstart_fraction_(config.slowstart_completed_maps),
      slowstart_enabled_(config.slowstart_enabled) {
  tasks_.reserve(plan_.num_maps + plan_.num_reduces);
  for (int i = 0; i < plan_.num_maps; ++i) {
    AmTask t;
    t.index = i;
    t.type = TaskType::kMap;
    if (i < static_cast<int>(plan_.map_preferred_nodes.size())) {
      t.preferred_node = plan_.map_preferred_nodes[i];
    }
    tasks_.push_back(t);
  }
  for (int i = 0; i < plan_.num_reduces; ++i) {
    AmTask t;
    t.index = plan_.num_maps + i;
    t.type = TaskType::kReduce;
    tasks_.push_back(t);
  }
}

double AppMaster::MapProgress() const {
  if (plan_.num_maps == 0) return 1.0;
  return static_cast<double>(CompletedMaps()) / plan_.num_maps;
}

bool AppMaster::SlowStartSatisfied() const {
  if (!slowstart_enabled_) return AllMapsAssigned();
  return MapProgress() + 1e-12 >= slowstart_fraction_;
}

std::vector<ResourceRequest> AppMaster::BuildRequests() {
  std::vector<ResourceRequest> out;

  // Map requests: one per pending map, with a node-locality hint
  // (Table 1 aggregates them per host; we emit per-task requests, which is
  // equivalent demand).
  for (auto& t : tasks_) {
    if (t.type != TaskType::kMap ||
        t.state != TaskLifecycleState::kPending) {
      continue;
    }
    ResourceRequest req;
    req.num_containers = 1;
    req.priority = map_priority_;
    req.capability = plan_.map_capability;
    req.node = t.preferred_node;
    req.type = TaskType::kMap;
    out.push_back(req);
    t.state = TaskLifecycleState::kScheduled;
  }

  // Reduce requests: gated by slow start, then ramped with map progress
  // (§4.2.2: "if not [all maps assigned], schedule reduce tasks based on
  // the percentage of completed map tasks; otherwise schedule all").
  if (plan_.num_reduces > 0 && SlowStartSatisfied()) {
    int allowed;
    if (AllMapsAssigned()) {
      allowed = plan_.num_reduces;
    } else {
      allowed = static_cast<int>(
          std::ceil(MapProgress() * plan_.num_reduces));
      allowed = std::min(allowed, plan_.num_reduces);
      allowed = std::max(allowed, 1);
    }
    int already =
        ScheduledOrAssigned(TaskType::kReduce) + CompletedReduces();
    for (auto& t : tasks_) {
      if (already >= allowed) break;
      if (t.type != TaskType::kReduce ||
          t.state != TaskLifecycleState::kPending) {
        continue;
      }
      ResourceRequest req;
      req.num_containers = 1;
      req.priority = reduce_priority_;
      req.capability = plan_.reduce_capability;
      req.node = kAnyNode;  // map output locality is not considered
      req.type = TaskType::kReduce;
      out.push_back(req);
      t.state = TaskLifecycleState::kScheduled;
      ++already;
    }
  }
  return out;
}

Result<int> AppMaster::AssignContainer(const Container& container) {
  // Second-level scheduling: prefer a task whose input is local to the
  // container's node, then any scheduled task of the matching type.
  AmTask* local_match = nullptr;
  AmTask* any_match = nullptr;
  for (auto& t : tasks_) {
    if (t.type != container.requested_type ||
        t.state != TaskLifecycleState::kScheduled) {
      continue;
    }
    if (t.preferred_node == container.node && local_match == nullptr) {
      local_match = &t;
    }
    if (any_match == nullptr) any_match = &t;
  }
  AmTask* chosen = local_match != nullptr ? local_match : any_match;
  if (chosen == nullptr) {
    return Status::NotFound(
        std::string("no scheduled ") +
        TaskTypeToString(container.requested_type) +
        " task awaits a container");
  }
  MRPERF_RETURN_NOT_OK(AdvanceLifecycle(chosen->state,
                                        TaskLifecycleState::kAssigned));
  chosen->state = TaskLifecycleState::kAssigned;
  chosen->assigned_node = container.node;
  chosen->container_id = container.id;
  return chosen->index;
}

Status AppMaster::CompleteTask(int task_index) {
  if (task_index < 0 || task_index >= static_cast<int>(tasks_.size())) {
    return Status::InvalidArgument("task index out of range");
  }
  AmTask& t = tasks_[task_index];
  MRPERF_RETURN_NOT_OK(
      AdvanceLifecycle(t.state, TaskLifecycleState::kCompleted));
  t.state = TaskLifecycleState::kCompleted;
  t.container_id = -1;
  return Status::OK();
}

int AppMaster::CompletedMaps() const {
  int n = 0;
  for (const auto& t : tasks_) {
    if (t.type == TaskType::kMap &&
        t.state == TaskLifecycleState::kCompleted) {
      ++n;
    }
  }
  return n;
}

int AppMaster::CompletedReduces() const {
  int n = 0;
  for (const auto& t : tasks_) {
    if (t.type == TaskType::kReduce &&
        t.state == TaskLifecycleState::kCompleted) {
      ++n;
    }
  }
  return n;
}

int AppMaster::ScheduledOrAssigned(TaskType type) const {
  int n = 0;
  for (const auto& t : tasks_) {
    if (t.type == type && (t.state == TaskLifecycleState::kScheduled ||
                           t.state == TaskLifecycleState::kAssigned)) {
      ++n;
    }
  }
  return n;
}

bool AppMaster::AllMapsAssigned() const {
  for (const auto& t : tasks_) {
    if (t.type == TaskType::kMap &&
        (t.state == TaskLifecycleState::kPending ||
         t.state == TaskLifecycleState::kScheduled)) {
      return false;
    }
  }
  return true;
}

bool AppMaster::Done() const {
  for (const auto& t : tasks_) {
    if (t.state != TaskLifecycleState::kCompleted) return false;
  }
  return true;
}

}  // namespace mrperf
