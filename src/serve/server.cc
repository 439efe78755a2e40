#include "serve/server.h"

#include <utility>

#include "common/logging.h"
#include "serve/metrics.h"
#include "serve/stats.h"

namespace mrperf {

PredictServer::PredictServer(PredictServerOptions options)
    : options_(std::move(options)), front_(options_, Handlers()) {}

PredictServer::~PredictServer() { DrainAndStop(); }

ConnectionContext PredictServer::Handlers() {
  ConnectionContext handlers;
  handlers.submit_line = [this](const std::string& line,
                                const std::string& peer,
                                ConnectionContext::ResponseCallback done) {
    service_->SubmitLine(line, peer, std::move(done));
  };
  handlers.reject_overlong = [this](const std::string& message,
                                    ConnectionContext::ResponseCallback done) {
    service_->RejectRequestErrorTo(std::nullopt, ServeErrorCode::kParseError,
                                   message, std::move(done));
  };
  handlers.render_metrics = [this] {
    return FormatPrometheusMetrics(service_->Stats());
  };
  handlers.render_stats = [this] {
    return FormatServeStatsJson(service_->Stats());
  };
  return handlers;
}

Status PredictServer::Start() {
  PredictServiceOptions service_options = options_.service;
  // Called by PredictService::Stats outside service locks.
  service_options.transport_stats_hook = [this](ServeStatsSnapshot& snapshot) {
    const LineServerStats transport = front_.Stats();
    snapshot.replica_id = options_.replica_id;
    snapshot.event_loop_threads = transport.event_loop_threads;
    snapshot.event_loop_pending_tasks = transport.event_loop_pending_tasks;
    snapshot.connections_current = transport.connections_current;
    snapshot.connections_total = transport.connections_total;
    snapshot.metrics_requests_total = transport.metrics_requests_total;
  };
  service_ = std::make_unique<PredictService>(service_options);
  MRPERF_RETURN_NOT_OK(front_.Open());
  return front_.StartAccepting();
}

void PredictServer::DrainAndStop() {
  const auto drain_service = [this] {
    if (service_) service_->Drain();
  };
  if (!front_.DrainAndStop(drain_service)) return;
  MRPERF_LOG(Info) << "predict server on port " << port()
                   << " drained and stopped";
}

}  // namespace mrperf
