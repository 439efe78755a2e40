/// \file line_server.h
/// \brief The transport front end shared by predictd's PredictServer
/// and the fleet router: newline-delimited JSON over a fixed budget of
/// epoll event-loop threads, pipelined per connection.
///
/// A daemon is a backend plus this front end. The backend supplies the
/// ConnectionContext callbacks (how a request line is answered, how an
/// oversized line is rejected, how /metrics and /stats render); the
/// front end owns everything between the listen port and them:
///  - the TcpListener and the event-loop threads. No thread per
///    connection, so ten thousand mostly-idle connections cost ten
///    thousand fds and buffers, not twenty thousand stacks;
///  - round-robin accept: loop 0 also owns the nonblocking listener
///    and hands each accepted socket to the next loop, where its
///    Connection stays confined (connection.h);
///  - the connection registry and its gauges (Stats());
///  - the GET /metrics scrape count;
///  - the shutdown sequence (DrainAndStop).
///
/// Start-up takes two steps, so a backend can place loop-confined state
/// on a loop before the first connection arrives: Open() binds, listens
/// and starts the loops; StartAccepting() arms the listener.
///
/// Shutdown: stop accepting connections, run the backend's drain (after
/// which every admitted request has its response posted to its
/// connection's loop), then half-close each connection's read side,
/// flush its remaining responses and close it. A client that never
/// reads its last responses is force-closed after a bounded wait; then
/// the loops stop. Requests arriving during the drain get the backend's
/// `shutting_down` rejections, still as ordered responses.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/connection.h"
#include "serve/event_loop.h"
#include "serve/listener.h"

namespace mrperf {

/// \brief Listen and framing settings; the base of PredictServerOptions
/// and FleetRouterOptions.
struct LineServerOptions {
  /// IPv4 listen address. The default binds loopback only: the daemons
  /// are internal services; fronting proxies own external exposure.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Maximum request-line length, newline included.
  size_t max_line_bytes = 1 << 16;
  /// Event-loop (transport) threads; the connection count they carry is
  /// independent of this budget. Clamped to >= 1. The router also runs
  /// its replica upstreams on the last loop.
  int event_loop_threads = 2;
  /// Serve HTTP GET /metrics and /stats on the listen port.
  bool enable_metrics = true;
};

/// \brief Transport gauges of one front end.
struct LineServerStats {
  int event_loop_threads = 0;
  /// Cross-thread tasks queued on the loops.
  int64_t event_loop_pending_tasks = 0;
  int64_t connections_current = 0;
  int64_t connections_total = 0;
  /// GET /metrics scrapes served.
  int64_t metrics_requests_total = 0;
};

/// \brief One listen port served by event loops (see file comment).
class LineServer {
 public:
  /// `handlers` supplies submit_line, reject_overlong, render_metrics
  /// and render_stats; its max_line_bytes and enable_http come from
  /// `options`. The callbacks must stay valid until DrainAndStop().
  LineServer(const LineServerOptions& options, ConnectionContext handlers);
  /// DrainAndStop() with no backend drain if still running.
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds, listens and starts the loops. Errors (bad host, port in
  /// use) are returned with nothing left running.
  Status Open();

  /// Arms the listener on loop 0; call after a successful Open(). On
  /// error nothing is left running.
  Status StartAccepting();

  /// Port actually bound (resolves port 0); valid after Open().
  int port() const { return listener_.port(); }

  /// The last loop, where a backend may confine its own state; valid
  /// from Open() until DrainAndStop() returns.
  EventLoop* last_loop() const { return loops_.back().get(); }

  LineServerStats Stats() const;

  /// Graceful shutdown; see file comment. `drain_backend` runs after
  /// accepting stopped and before the connections flush. Blocks until
  /// the loops are joined. Returns false, doing nothing, when an
  /// earlier call already stopped the server.
  bool DrainAndStop(const std::function<void()>& drain_backend);

 private:
  /// TcpListener accept callback: wraps one accepted socket in a
  /// Connection on a round-robin loop (or closes it when stopping).
  void HandleAccept(int fd, std::string peer);
  /// Stops whatever a failed Open()/StartAccepting() left running.
  void StopAfterFailedStart();
  /// The registered connections, for posting drain steps to them.
  std::vector<std::shared_ptr<Connection>> LiveConnections();

  const LineServerOptions options_;
  /// Shared per-connection context; outlives every connection.
  ConnectionContext context_;
  /// Started in Open(), stopped in DrainAndStop(), never shrunk while
  /// serving (Stats() reads it unlocked).
  std::vector<std::unique_ptr<EventLoop>> loops_;
  /// Opened in Open(); shut down on loop 0 in DrainAndStop step 1.
  TcpListener listener_;
  std::atomic<bool> stopping_{false};
  /// Round-robin cursor for assigning accepted sockets to loops.
  std::atomic<uint64_t> next_loop_{0};
  std::atomic<int64_t> metrics_requests_{0};
  Mutex stop_mu_;
  bool stopped_ GUARDED_BY(stop_mu_) = false;

  mutable Mutex conns_mu_;
  /// Signaled whenever a connection closes (DrainAndStop waits on it).
  CondVar conns_cv_;
  /// Live connections; the shared_ptr here is the owner's reference,
  /// released by the connection's closed callback.
  std::unordered_map<Connection*, std::shared_ptr<Connection>> conns_
      GUARDED_BY(conns_mu_);
  int64_t connections_total_ GUARDED_BY(conns_mu_) = 0;
};

}  // namespace mrperf
