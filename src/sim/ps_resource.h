/// \file ps_resource.h
/// \brief Processor-sharing resource for the cluster simulator.
///
/// Each shared resource of a node (CPU pool, disk, NIC) is modelled as a
/// processor-sharing station with `servers` identical servers: n concurrent
/// requests each progress at rate min(1, servers/n). This produces exactly
/// the queueing delays the analytic model tries to predict, without
/// assuming exponential service.

#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "common/status.h"
#include "sim/event_queue.h"

namespace mrperf {

/// \brief One processor-sharing station attached to an EventQueue.
class PsResource {
 public:
  using CompletionFn = std::function<void(double elapsed)>;

  /// \param queue the simulation clock/event queue (not owned)
  /// \param servers number of identical servers (>= 1)
  PsResource(EventQueue* queue, int servers);

  /// Submits a request needing `demand` seconds of dedicated service.
  /// `on_done(elapsed)` fires when it completes; `elapsed` is the wall
  /// (virtual) time spent including slowdown. Zero-demand requests
  /// complete immediately (on the next event).
  Status Submit(double demand, CompletionFn on_done);

  /// Cumulative busy integral (sum over time of min(active, servers)),
  /// for utilization accounting.
  double BusyIntegral() const;

 private:
  struct Job {
    double remaining;      // dedicated-service seconds left
    double enqueue_time;   // when the request arrived
    CompletionFn on_done;
  };

  /// Advances all remaining work to Now() and updates the busy integral.
  void Advance();
  /// Current per-job service rate.
  double RatePerJob() const;
  /// (Re)schedules the next completion event.
  void ScheduleNextCompletion();
  /// Fires completions due at the current instant.
  void OnCompletionEvent(uint64_t version);

  EventQueue* queue_;
  int servers_;
  int64_t next_id_ = 0;
  std::map<int64_t, Job> jobs_;
  double last_advance_ = 0.0;
  double busy_integral_ = 0.0;
  uint64_t version_ = 0;  // invalidates stale completion events
};

}  // namespace mrperf
