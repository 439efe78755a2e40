/// \file router.h
/// \brief The fleet router: one predictd-compatible endpoint fronting
/// N predictd replicas behind a consistent-hash ring.
///
/// Clients speak the ordinary newline-delimited JSON protocol to the
/// router exactly as they would to a single predictd — same framing,
/// same pipelining, same structured errors — and get byte-identical
/// responses, because the router forwards predict lines **verbatim**
/// to a replica chosen by hashing the request's CanonicalPredictKey
/// onto the ring (fleet/ring.h). Duplicate requests therefore land on
/// one replica, where in-flight coalescing and the response and solve
/// caches keep deduplicating fleet-wide; priority and deadline_ms ride
/// inside the forwarded line untouched, and each replica keeps two
/// upstream connections (one per priority class) so the replica's QoS
/// dispatch order stays visible end-to-end (fleet/upstream.h).
///
/// Three request kinds get router-level treatment:
///  - {"kind": "stats"}  — answered by the router itself with its own
///    stats JSON (fleet topology + routing counters), as is HTTP
///    `GET /stats`; `GET /metrics` renders predict_router_* families.
///  - {"kind": "sweep"}  — a router-only kind: the grid expands into
///    per-point predict lines (fleet/scatter.h), each placed on the
///    ring by its own canonical key exactly as the same predict sent
///    alone, and per-point results gather back into one response in
///    grid order, byte-identical to evaluating the same points
///    unsplit.
///  - unparseable lines — forwarded verbatim to a ring position
///    derived from the raw bytes, so even error responses are the
///    replica's own bytes, not a router re-implementation.
///
/// Failure semantics: a replica's transport failure re-dispatches its
/// unanswered requests down their ring preference order (retry-safe:
/// evaluations are deterministic and coalesced); when the whole
/// preference order is exhausted the client gets a structured
/// `unavailable` error, never a dropped request or a disconnect.
/// FleetMembership (static --replicas list + health probes) steers
/// dispatch away from dead replicas and lets recovered ones rejoin.
///
/// Threading: the router is this routing core plus the shared line
/// transport (serve/line_server.h), the same front end as predictd's.
/// All routing state (upstreams, sweep gathers) is confined to the
/// transport's **last** loop ("the upstream loop"), crossed into via
/// EventLoop::Post — so the routing core, like Connection, holds no
/// locks. router.cc performs no I/O syscalls at all (enforced by
/// tools/lint/check_source.py's blocking-io ban): sockets belong to
/// TcpListener, Connection and Upstream.
///
/// Shutdown is the line server's sequence with a routing drain as the
/// backend drain: wait for in-flight routed requests, then stop the
/// prober; the upstreams are released once the loops are joined.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "fleet/membership.h"
#include "fleet/ring.h"
#include "fleet/upstream.h"
#include "serve/connection.h"
#include "serve/event_loop.h"
#include "serve/json.h"
#include "serve/line_server.h"
#include "serve/request.h"

namespace mrperf {

/// \brief Router configuration: the listen settings of
/// LineServerOptions plus the fleet's.
struct FleetRouterOptions : LineServerOptions {
  /// Virtual nodes per replica on the ring.
  int virtual_nodes = HashRing::kDefaultVirtualNodes;
  /// Start the membership health prober (off in unit tests that drive
  /// health by hand).
  bool start_probing = true;
  /// The fleet, in --replicas order (part of the placement contract).
  std::vector<ReplicaAddress> replicas;
  MembershipOptions membership;
};

/// \brief One router process state (see file comment).
class FleetRouter {
 public:
  explicit FleetRouter(FleetRouterOptions options);
  /// DrainAndStop() if still running.
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// Binds, starts the loops, creates the upstreams and (optionally)
  /// the membership prober, and begins accepting.
  Status Start();

  /// Port actually bound (resolves port 0); valid after Start().
  int port() const { return front_.port(); }

  /// The membership view (tests drive ReportFailure/ReportSuccess).
  FleetMembership& membership() { return *membership_; }

  /// Router stats JSON: topology, health and routing counters. Also
  /// the payload of {"kind":"stats"} responses and HTTP GET /stats.
  std::string StatsJson() const;

  /// Graceful shutdown: stop accepting, wait for in-flight routed
  /// requests to answer, flush client connections, tear down (see file
  /// comment). Idempotent, blocks until the loops are joined.
  void DrainAndStop();

 private:
  /// One in-progress scatter-gathered sweep (upstream-loop-confined).
  struct Gather {
    std::optional<std::string> id;
    std::function<void(std::string)> done;
    std::vector<std::string> results;
    size_t remaining = 0;
    bool failed = false;
    ServeErrorCode error_code = ServeErrorCode::kInternal;
    std::string error_message;
  };

  /// The ConnectionContext callbacks the front end serves.
  ConnectionContext Handlers();

  /// ConnectionContext::submit_line: classifies the line and routes.
  /// Runs on the submitting connection's loop thread; pure parsing
  /// happens here, dispatch crosses to the upstream loop.
  void SubmitLine(const std::string& line, const std::string& peer,
                  ConnectionContext::ResponseCallback done);
  /// Admission + drain accounting around the client's callback; a
  /// nullopt return means the router is draining (already answered).
  std::optional<ConnectionContext::ResponseCallback> AdmitRequest(
      const std::optional<std::string>& id,
      ConnectionContext::ResponseCallback done);

  /// Expands and scatters one sweep request (frontend thread; the
  /// dispatches cross to the upstream loop).
  void SubmitSweep(const JsonValue& root, const std::string& line,
                   ConnectionContext::ResponseCallback done);

  /// Upstream-loop only: sends to the first live replica of the
  /// request's remaining preference order, or answers `unavailable`.
  void Dispatch(RoutedRequest request);
  /// Upstream-loop only: re-dispatches a failed connection's requests.
  void Reroute(std::vector<RoutedRequest> failed);

  Upstream* upstream(size_t replica, RequestPriority priority) {
    return upstreams_[replica * kRequestPriorityCount +
                      static_cast<size_t>(priority)]
        .get();
  }

  /// Prometheus text exposition of the predict_router_* families.
  std::string RenderMetrics() const;

  /// The backend drain: rejects new work, waits for in-flight routed
  /// requests, then stops the prober.
  void DrainRouting();

  FleetRouterOptions options_;
  std::unique_ptr<HashRing> ring_;
  std::unique_ptr<FleetMembership> membership_;
  LineServer front_;
  /// front_.last_loop(): where upstreams and sweep gathers live.
  EventLoop* upstream_loop_ = nullptr;
  /// Indexed replica * kRequestPriorityCount + priority.
  std::vector<std::unique_ptr<Upstream>> upstreams_;

  // Routing counters (stats + metrics; written from several threads).
  std::atomic<int64_t> requests_total_{0};
  std::atomic<int64_t> routed_total_{0};
  std::atomic<int64_t> rerouted_total_{0};
  std::atomic<int64_t> unavailable_total_{0};
  std::atomic<int64_t> sweeps_total_{0};
  std::atomic<int64_t> sweep_points_total_{0};
  std::atomic<int64_t> stats_requests_total_{0};
  std::atomic<int64_t> parse_forward_total_{0};

  /// Admission/drain gate: DrainRouting waits here for in-flight
  /// routed requests (client-visible responses) to hit zero.
  Mutex drain_mu_;
  CondVar drain_cv_;
  int64_t inflight_ GUARDED_BY(drain_mu_) = 0;
  bool draining_ GUARDED_BY(drain_mu_) = false;
};

}  // namespace mrperf
