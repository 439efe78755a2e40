/// \file server.h
/// \brief predictd's server: one PredictService behind the shared line
/// transport (serve/line_server.h).
///
/// The server is deliberately thin: every request line goes straight
/// to PredictService::SubmitLine (which owns QoS scheduling, batching,
/// coalescing, quotas and backpressure), and responses are written back
/// **in request order** per connection (HTTP/1.1-style pipelining) — a
/// client may therefore stream many request lines without waiting,
/// which is what lets duplicates coalesce and batches form. Malformed
/// lines produce structured error responses, never disconnects; only an
/// oversized line (no newline within max_line_bytes) terminates its
/// connection, after an error response.
///
/// Observability: with `enable_metrics`, HTTP `GET /metrics` (the
/// Prometheus text exposition) and `GET /stats` (the /stats JSON) are
/// served on the same listen port, off the same event loops — a first
/// read starting with "GET " switches that connection to one-shot HTTP.
/// The transport's gauges fold into the service's stats snapshot.
///
/// Shutdown (DrainAndStop, wired to SIGTERM by predictd) is the line
/// server's sequence with PredictService::Drain as the backend drain:
/// every admitted request is evaluated and answered before the
/// connections flush.

#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "serve/line_server.h"
#include "serve/service.h"

namespace mrperf {

/// \brief Server configuration: the listen settings of
/// LineServerOptions plus the service's own.
struct PredictServerOptions : LineServerOptions {
  /// User-provided, so `PredictServerOptions{}` runs a constructor: GCC
  /// 12 at -O3 misreports the base's std::string as maybe-uninitialized
  /// when an aggregate with a base class is brace-initialized.
  PredictServerOptions() {}

  /// Operator-assigned replica identity (the predictd --replica-id
  /// flag). Surfaced in /stats and as the predictd_replica_info label
  /// so a fleet's replicas are tellable apart; empty = standalone.
  std::string replica_id;
  PredictServiceOptions service;
};

/// \brief Listening server that fronts one PredictService.
class PredictServer {
 public:
  explicit PredictServer(PredictServerOptions options);
  /// DrainAndStop() if still running.
  ~PredictServer();

  PredictServer(const PredictServer&) = delete;
  PredictServer& operator=(const PredictServer&) = delete;

  /// Binds, listens, starts the event loops and begins accepting.
  /// Errors (bad host, port in use) are returned, not
  /// logged-and-ignored.
  Status Start();

  /// Port actually bound (resolves port 0); valid after Start().
  int port() const { return front_.port(); }

  /// The underlying service (stats snapshots, drain control, tests).
  PredictService& service() { return *service_; }

  /// Graceful shutdown; see file comment. Idempotent, blocks until the
  /// loops are joined.
  void DrainAndStop();

 private:
  /// The ConnectionContext callbacks the front end serves.
  ConnectionContext Handlers();

  PredictServerOptions options_;
  std::unique_ptr<PredictService> service_;
  LineServer front_;
};

}  // namespace mrperf
