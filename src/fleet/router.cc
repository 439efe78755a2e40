#include "fleet/router.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "fleet/scatter.h"
#include "serve/metrics.h"

namespace mrperf {
namespace {

/// Bound on waiting for in-flight routed requests during DrainAndStop;
/// a wedged replica must not wedge router shutdown.
constexpr std::chrono::milliseconds kDrainInflightTimeout{10000};

}  // namespace

FleetRouter::FleetRouter(FleetRouterOptions options)
    : options_(std::move(options)), front_(options_, Handlers()) {}

FleetRouter::~FleetRouter() { DrainAndStop(); }

ConnectionContext FleetRouter::Handlers() {
  ConnectionContext handlers;
  handlers.submit_line = [this](const std::string& line,
                                const std::string& peer,
                                ConnectionContext::ResponseCallback done) {
    SubmitLine(line, peer, std::move(done));
  };
  handlers.reject_overlong = [](const std::string& message,
                                ConnectionContext::ResponseCallback done) {
    done(MakeErrorResponse(std::nullopt, ServeErrorCode::kParseError,
                           message));
  };
  handlers.render_metrics = [this] { return RenderMetrics(); };
  handlers.render_stats = [this] { return StatsJson(); };
  return handlers;
}

Status FleetRouter::Start() {
  if (options_.replicas.empty()) {
    return Status::InvalidArgument("fleet router needs at least one replica");
  }
  ring_ = std::make_unique<HashRing>(options_.replicas.size(),
                                     options_.virtual_nodes);
  membership_ = std::make_unique<FleetMembership>(options_.replicas,
                                                  options_.membership);
  MRPERF_RETURN_NOT_OK(front_.Open());
  upstream_loop_ = front_.last_loop();

  // Two upstream connections per replica, one per priority class, in
  // place before the first client can connect.
  upstreams_.resize(options_.replicas.size() * kRequestPriorityCount);
  for (size_t r = 0; r < options_.replicas.size(); ++r) {
    for (size_t p = 0; p < kRequestPriorityCount; ++p) {
      upstreams_[r * kRequestPriorityCount + p] = std::make_unique<Upstream>(
          upstream_loop_, r, options_.replicas[r], membership_.get(),
          [this](std::vector<RoutedRequest> failed) {
            Reroute(std::move(failed));
          });
    }
  }

  const Status accepting = front_.StartAccepting();
  if (!accepting.ok()) {
    upstreams_.clear();
    return accepting;
  }
  if (options_.start_probing) membership_->StartProbing();
  return Status::OK();
}

std::optional<ConnectionContext::ResponseCallback> FleetRouter::AdmitRequest(
    const std::optional<std::string>& id,
    ConnectionContext::ResponseCallback done) {
  {
    MutexLock lock(drain_mu_);
    if (!draining_) {
      ++inflight_;
      return [this, done = std::move(done)](std::string response) {
        done(std::move(response));
        MutexLock inner(drain_mu_);
        if (--inflight_ == 0) drain_cv_.NotifyAll();
      };
    }
  }
  done(MakeErrorResponse(id, ServeErrorCode::kShuttingDown,
                         "router is shutting down"));
  return std::nullopt;
}

void FleetRouter::SubmitLine(const std::string& line,
                             const std::string& /*peer*/,
                             ConnectionContext::ResponseCallback done) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);

  const Result<JsonValue> json = ParseJson(line);
  if (json.ok() && IsSweepRequest(json.ValueOrDie())) {
    SubmitSweep(json.ValueOrDie(), line, std::move(done));
    return;
  }

  const Result<ServeRequest> parsed = ParseServeRequest(line);
  std::optional<std::string> id;
  if (parsed.ok()) {
    id = parsed.ValueOrDie().id;
  } else if (json.ok() && json.ValueOrDie().is_object()) {
    // Best-effort id for router-side error envelopes on lines predictd
    // would reject anyway.
    const JsonValue* id_value = json.ValueOrDie().Find("id");
    if (id_value != nullptr && id_value->is_string()) {
      id = id_value->string_value();
    }
  }

  if (parsed.ok() && parsed.ValueOrDie().kind == ServeRequest::Kind::kStats) {
    // The router answers stats itself: its fleet view, not any single
    // replica's counters (clients probe replicas directly for those).
    stats_requests_total_.fetch_add(1, std::memory_order_relaxed);
    done(MakeStatsResponse(id, StatsJson()));
    return;
  }

  auto admitted = AdmitRequest(id, std::move(done));
  if (!admitted.has_value()) return;

  RoutedRequest request;
  request.line = line;
  request.id = id;
  request.done = std::move(*admitted);
  if (parsed.ok()) {
    request.priority = parsed.ValueOrDie().predict.priority;
    request.preference =
        ring_->PreferenceOrder(CanonicalPredictKey(parsed.ValueOrDie().predict));
  } else {
    // Forward invalid lines verbatim too: the replica's own error
    // response keeps fleet answers byte-identical to single-predictd.
    parse_forward_total_.fetch_add(1, std::memory_order_relaxed);
    request.priority = RequestPriority::kBulk;
    request.preference = ring_->PreferenceOrder(line);
  }
  upstream_loop_->Post(
      [this, request = std::move(request)]() mutable {
        Dispatch(std::move(request));
      });
}

void FleetRouter::SubmitSweep(const JsonValue& root, const std::string& /*line*/,
                              ConnectionContext::ResponseCallback done) {
  std::optional<std::string> id;
  const JsonValue* id_value = root.Find("id");
  if (id_value != nullptr && id_value->is_string()) {
    id = id_value->string_value();
  }

  Result<SweepExpansion> expanded = ExpandSweepRequest(root);
  if (!expanded.ok()) {
    done(MakeErrorResponse(id, RequestErrorCode(expanded.status()),
                           expanded.status().message()));
    return;
  }

  auto admitted = AdmitRequest(id, std::move(done));
  if (!admitted.has_value()) return;

  SweepExpansion expansion = std::move(expanded.ValueOrDie());
  sweeps_total_.fetch_add(1, std::memory_order_relaxed);
  sweep_points_total_.fetch_add(
      static_cast<int64_t>(expansion.point_lines.size()),
      std::memory_order_relaxed);

  upstream_loop_->Post([this, expansion = std::move(expansion),
                        wrapped = std::move(*admitted)]() mutable {
    const size_t n = expansion.point_lines.size();
    auto gather = std::make_shared<Gather>();
    gather->id = expansion.id;
    gather->done = std::move(wrapped);
    gather->results.resize(n);
    gather->remaining = n;
    if (n == 0) {
      gather->done(MakeSweepResponse(gather->id, {}));
      return;
    }
    // Each point is placed by its own canonical key, as the same
    // predict sent alone would be, so the owner that answered it here
    // also answers it from its response cache later.
    for (size_t i = 0; i < n; ++i) {
      RoutedRequest point;
      point.line = std::move(expansion.point_lines[i]);
      point.priority = expansion.priority;
      point.preference = ring_->PreferenceOrder(expansion.point_keys[i]);
      point.done = [this, gather, i](std::string response_line) {
        // Runs on the upstream loop: gather state is loop-confined.
        PointOutcome outcome = ClassifyPointResponse(response_line);
        if (outcome.ok) {
          gather->results[i] = std::move(outcome.result_object);
        } else if (!gather->failed) {
          gather->failed = true;
          gather->error_code = outcome.error_code;
          gather->error_message = "sweep point " + std::to_string(i) + ": " +
                                  outcome.error_message;
        }
        if (--gather->remaining == 0) {
          if (gather->failed) {
            gather->done(MakeErrorResponse(gather->id, gather->error_code,
                                           gather->error_message));
          } else {
            gather->done(MakeSweepResponse(gather->id, gather->results));
          }
        }
      };
      Dispatch(std::move(point));
    }
  });
}

void FleetRouter::Dispatch(RoutedRequest request) {
  // First untried healthy replica in preference order; if the whole
  // remaining suffix looks dead, try its first entry anyway — the
  // health view may be stale, and a wrong guess just reroutes once
  // more. Each replica is tried at most once, so this terminates.
  constexpr size_t kNone = static_cast<size_t>(-1);
  size_t chosen = kNone;
  size_t fallback = kNone;
  size_t fallback_position = 0;
  for (size_t i = request.next_preference; i < request.preference.size();
       ++i) {
    const size_t replica = request.preference[i];
    if (membership_->IsHealthy(replica)) {
      chosen = replica;
      request.next_preference = i + 1;
      break;
    }
    if (fallback == kNone) {
      fallback = replica;
      fallback_position = i;
    }
  }
  if (chosen == kNone && fallback != kNone) {
    chosen = fallback;
    request.next_preference = fallback_position + 1;
  }
  if (chosen == kNone) {
    unavailable_total_.fetch_add(1, std::memory_order_relaxed);
    auto done = std::move(request.done);
    done(MakeErrorResponse(request.id, ServeErrorCode::kUnavailable,
                           "no replica reachable"));
    return;
  }
  routed_total_.fetch_add(1, std::memory_order_relaxed);
  const RequestPriority priority = request.priority;
  upstream(chosen, priority)->Send(std::move(request));
}

void FleetRouter::Reroute(std::vector<RoutedRequest> failed) {
  rerouted_total_.fetch_add(static_cast<int64_t>(failed.size()),
                            std::memory_order_relaxed);
  for (RoutedRequest& request : failed) Dispatch(std::move(request));
}

std::string FleetRouter::StatsJson() const {
  std::string out = "{\"router\": true, \"protocol_version\": ";
  out += std::to_string(kServeProtocolVersion);
  out += ", \"replica_count\": ";
  out += std::to_string(options_.replicas.size());
  const auto counter = [&out](const char* name,
                              const std::atomic<int64_t>& value) {
    out += ", \"";
    out += name;
    out += "\": ";
    out += std::to_string(value.load(std::memory_order_relaxed));
  };
  counter("requests_total", requests_total_);
  counter("routed_total", routed_total_);
  counter("rerouted_total", rerouted_total_);
  counter("unavailable_total", unavailable_total_);
  counter("sweeps_total", sweeps_total_);
  counter("sweep_points_total", sweep_points_total_);
  counter("stats_requests_total", stats_requests_total_);
  counter("parse_forward_total", parse_forward_total_);
  const LineServerStats transport = front_.Stats();
  out += ", \"connections_current\": ";
  out += std::to_string(transport.connections_current);
  out += ", \"connections_total\": ";
  out += std::to_string(transport.connections_total);
  out += ", \"replicas\": [";
  const std::vector<ReplicaHealth> snapshot = membership_->Snapshot();
  for (size_t r = 0; r < snapshot.size(); ++r) {
    if (r > 0) out += ", ";
    out += "{\"address\": ";
    AppendJsonString(out, snapshot[r].address.ToString());
    out += ", \"healthy\": ";
    out += snapshot[r].healthy ? "true" : "false";
    out += ", \"consecutive_failures\": ";
    out += std::to_string(snapshot[r].consecutive_failures);
    out += ", \"probes_total\": ";
    out += std::to_string(snapshot[r].probes_total);
    out += ", \"probe_failures_total\": ";
    out += std::to_string(snapshot[r].probe_failures_total);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string FleetRouter::RenderMetrics() const {
  std::string out;
  AppendGaugeFamily(out, "predict_router_protocol_version",
                    "Wire protocol major this router speaks.",
                    kServeProtocolVersion);
  const auto counter = [&out](const char* name, const char* help,
                              const std::atomic<int64_t>& value) {
    AppendCounterFamily(out, name, help,
                        value.load(std::memory_order_relaxed));
  };
  counter("predict_router_requests_total",
          "Request lines received from clients.", requests_total_);
  counter("predict_router_routed_total",
          "Dispatches to replica connections (reroutes included).",
          routed_total_);
  counter("predict_router_rerouted_total",
          "Requests re-dispatched after a replica transport failure.",
          rerouted_total_);
  counter("predict_router_unavailable_total",
          "Requests answered unavailable after exhausting every replica.",
          unavailable_total_);
  counter("predict_router_sweeps_total", "Scatter-gathered sweep requests.",
          sweeps_total_);
  counter("predict_router_sweep_points_total",
          "Grid points fanned out by sweep requests.", sweep_points_total_);
  counter("predict_router_stats_requests_total",
          "Stats requests the router answered itself.",
          stats_requests_total_);
  AppendCounterFamily(out, "predict_router_connections_total",
                      "Client connections accepted.",
                      front_.Stats().connections_total);

  const std::vector<ReplicaHealth> snapshot = membership_->Snapshot();
  const auto labels = [](const ReplicaHealth& health) {
    return "{replica=\"" + EscapeLabelValue(health.address.ToString()) +
           "\"}";
  };
  AppendFamilyHeader(out, "predict_router_replica_healthy",
                     "Replica health by membership view (1 healthy, 0 dead).",
                     "gauge");
  for (const ReplicaHealth& health : snapshot) {
    AppendIntSample(out, "predict_router_replica_healthy",
                    labels(health).c_str(), health.healthy ? 1 : 0);
  }
  AppendFamilyHeader(out, "predict_router_replica_probe_failures_total",
                     "Failed health probes per replica.", "counter");
  for (const ReplicaHealth& health : snapshot) {
    AppendIntSample(out, "predict_router_replica_probe_failures_total",
                    labels(health).c_str(), health.probe_failures_total);
  }
  return out;
}

void FleetRouter::DrainRouting() {
  // Reject new work and wait for in-flight routed requests: every
  // admitted request gets its response (success, a replica's error, or
  // unavailable) before the transport comes down.
  {
    MutexLock lock(drain_mu_);
    draining_ = true;
    const auto deadline =
        std::chrono::steady_clock::now() + kDrainInflightTimeout;
    while (inflight_ > 0 && std::chrono::steady_clock::now() < deadline) {
      drain_cv_.WaitFor(lock, std::chrono::milliseconds(50));
    }
  }
  // Stop the health prober before tearing down what it probes.
  if (membership_) membership_->StopProbing();
}

void FleetRouter::DrainAndStop() {
  if (!front_.DrainAndStop([this] { DrainRouting(); })) return;
  // The loops are joined: upstream destructors may close their fds.
  upstreams_.clear();
  MRPERF_LOG(Info) << "predict-router on port " << port()
                   << " drained and stopped";
}

}  // namespace mrperf
