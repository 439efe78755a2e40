/// \file tetris_scheduler.h
/// \brief Tetris-style multi-resource packing scheduler
/// (Grandl et al., SIGCOMM 2014 — discussed by the paper in §2.1).
///
/// Instead of FIFO-draining one application at a time, Tetris scores every
/// (pending request, node) pair by the *alignment* of the task's demand
/// vector with the node's remaining-capacity vector (the dot product of
/// normalized vectors), and combines it with a shortest-remaining-time
/// preference:
///
///   score = alignment(demand, free) + srtf_weight · (1 / remaining_work)
///
/// Placing the best-aligned task first reduces fragmentation; favouring
/// nearly-finished applications reduces average job completion time. The
/// paper notes Tetris "showed gains of over 30% in makespan and job
/// completion time" but ignores MapReduce's map→shuffle precedence — the
/// gap its own model fills. `bench_scheduler_comparison` reproduces the
/// comparison on this library's simulator.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "yarn/scheduler.h"

namespace mrperf {

/// \brief Tetris packing options.
struct TetrisOptions {
  /// Weight of the shortest-remaining-time term relative to alignment.
  double srtf_weight = 0.3;
  /// Honour request locality when the requested node ties within this
  /// score fraction of the best node.
  double locality_tolerance = 0.1;
};

/// \brief The packing scheduler.
class TetrisScheduler : public SchedulerInterface {
 public:
  explicit TetrisScheduler(TetrisOptions options = {});

  Status RegisterApplication(int64_t app_id) override;
  Status UnregisterApplication(int64_t app_id) override;
  Status SubmitRequests(
      int64_t app_id,
      const std::vector<ResourceRequest>& requests) override;
  Result<std::vector<Container>> Assign(std::vector<NodeState>& nodes) override;
  int64_t PendingContainers() const override;
  Status SetRemainingWorkHint(int64_t app_id, double seconds) override;

 private:
  struct PendingRequest {
    int64_t app_id;
    ResourceRequest request;  // num_containers tracks remaining count
  };
  struct AppState {
    bool registered = false;
    double remaining_work = 1.0;
  };

  /// Packing score of placing `capability` on `node`.
  static double Alignment(const Resource& capability, const NodeState& node);

  TetrisOptions options_;
  std::map<int64_t, AppState> apps_;
  std::vector<PendingRequest> queue_;
  int64_t next_container_id_ = 0;
};

}  // namespace mrperf
