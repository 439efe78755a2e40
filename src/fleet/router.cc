#include "fleet/router.h"

#include <unistd.h>

#include <chrono>
#include <future>
#include <utility>

#include "common/logging.h"
#include "fleet/scatter.h"

namespace mrperf {
namespace {

/// Bound on waiting for in-flight routed requests during DrainAndStop;
/// a wedged replica must not wedge router shutdown.
constexpr std::chrono::milliseconds kDrainInflightTimeout{10000};
/// Bound on the client-connection flush (mirrors PredictServer).
constexpr std::chrono::milliseconds kDrainFlushTimeout{5000};

/// Prometheus label-value escaping (exposition format: \\, \", \n).
std::string EscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

FleetRouter::FleetRouter(FleetRouterOptions options)
    : options_(std::move(options)) {}

FleetRouter::~FleetRouter() { DrainAndStop(); }

Status FleetRouter::Start() {
  if (options_.replicas.empty()) {
    return Status::InvalidArgument("fleet router needs at least one replica");
  }
  ring_ = std::make_unique<HashRing>(options_.replicas.size(),
                                     options_.virtual_nodes);
  membership_ = std::make_unique<FleetMembership>(options_.replicas,
                                                  options_.membership);

  context_.submit_line = [this](const std::string& line,
                                const std::string& peer,
                                ConnectionContext::ResponseCallback done) {
    SubmitLine(line, peer, std::move(done));
  };
  context_.reject_overlong = [this](const std::string& message,
                                    ConnectionContext::ResponseCallback done) {
    done(MakeErrorResponse(std::nullopt, ServeErrorCode::kParseError,
                           message));
  };
  context_.max_line_bytes = options_.max_line_bytes;
  context_.enable_http = options_.enable_metrics;
  context_.render_metrics = [this] {
    metrics_requests_.fetch_add(1, std::memory_order_relaxed);
    return RenderMetrics();
  };
  context_.render_stats = [this] { return StatsJson(); };

  MRPERF_RETURN_NOT_OK(listener_.Open(options_.host, options_.port));
  port_ = listener_.port();

  const int loop_count =
      options_.event_loop_threads > 0 ? options_.event_loop_threads : 1;
  for (int i = 0; i < loop_count; ++i) {
    auto loop = std::make_unique<EventLoop>();
    const Status started = loop->Start();
    if (!started.ok()) {
      for (const auto& running : loops_) running->Stop();
      loops_.clear();
      listener_.Shutdown();
      return started;
    }
    loops_.push_back(std::move(loop));
  }
  upstream_loop_ = loops_.back().get();

  // Two upstream connections per replica, one per priority class.
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

  EventLoop* accept_loop = loops_.front().get();
  std::promise<Status> registered;
  accept_loop->Post([this, accept_loop, &registered] {
    registered.set_value(listener_.Register(
        accept_loop,
        [this](int fd, std::string peer) { HandleAccept(fd, std::move(peer)); }));
  });
  const Status added = registered.get_future().get();
  if (!added.ok()) {
    for (const auto& running : loops_) running->Stop();
    loops_.clear();
    upstreams_.clear();
    listener_.Shutdown();
    return added;
  }

  if (options_.start_probing) membership_->StartProbing();
  return Status::OK();
}

void FleetRouter::HandleAccept(int fd, std::string peer) {
  if (stopping_.load()) {
    ::close(fd);
    return;
  }
  EventLoop* loop =
      loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
             loops_.size()]
          .get();
  auto conn = std::make_shared<Connection>(
      fd, std::move(peer), loop, &context_,
      [this](const std::shared_ptr<Connection>& closed) {
        OnConnectionClosed(closed);
      });
  {
    MutexLock lock(conns_mu_);
    conns_.emplace(conn.get(), conn);
    ++connections_total_;
  }
  loop->Post([conn] { conn->Register(); });
}

void FleetRouter::OnConnectionClosed(
    const std::shared_ptr<Connection>& conn) {
  MutexLock lock(conns_mu_);
  conns_.erase(conn.get());
  conns_cv_.NotifyAll();
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
    // Contiguous chunks (DefaultSweepChunkPoints) scatter across the ring by
    // their first point's canonical key; every point of a chunk rides
    // the same preference order, so a chunk stays together on one
    // replica's pipelined connection until failover.
    const std::vector<ChunkRange> chunks = ScatterChunks(n);
    for (const ChunkRange& chunk : chunks) {
      const std::vector<size_t> preference =
          ring_->PreferenceOrder(expansion.point_keys[chunk.begin]);
      for (size_t i = chunk.begin; i < chunk.end; ++i) {
        RoutedRequest point;
        point.line = std::move(expansion.point_lines[i]);
        point.priority = expansion.priority;
        point.preference = preference;
        point.done = [this, gather, i](std::string response_line) {
          // Runs on the upstream loop: gather state is loop-confined.
          PointOutcome outcome = ClassifyPointResponse(response_line);
          if (outcome.ok) {
            gather->results[i] = std::move(outcome.result_object);
          } else if (!gather->failed) {
            gather->failed = true;
            gather->error_code = outcome.error_code;
            gather->error_message = "sweep point " + std::to_string(i) +
                                    ": " + outcome.error_message;
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
  {
    MutexLock lock(conns_mu_);
    out += ", \"connections_current\": ";
    out += std::to_string(conns_.size());
    out += ", \"connections_total\": ";
    out += std::to_string(connections_total_);
  }
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

std::string FleetRouter::RenderMetrics() {
  std::string out;
  const auto family = [&out](const char* name, const char* type,
                             const char* help, int64_t value) {
    out += "# HELP ";
    out += name;
    out += " ";
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += " ";
    out += type;
    out += "\n";
    out += name;
    out += " ";
    out += std::to_string(value);
    out += "\n";
  };
  family("predict_router_protocol_version", "gauge",
         "Wire protocol major this router speaks.", kServeProtocolVersion);
  family("predict_router_requests_total", "counter",
         "Request lines received from clients.",
         requests_total_.load(std::memory_order_relaxed));
  family("predict_router_routed_total", "counter",
         "Dispatches to replica connections (reroutes included).",
         routed_total_.load(std::memory_order_relaxed));
  family("predict_router_rerouted_total", "counter",
         "Requests re-dispatched after a replica transport failure.",
         rerouted_total_.load(std::memory_order_relaxed));
  family("predict_router_unavailable_total", "counter",
         "Requests answered unavailable after exhausting every replica.",
         unavailable_total_.load(std::memory_order_relaxed));
  family("predict_router_sweeps_total", "counter",
         "Scatter-gathered sweep requests.",
         sweeps_total_.load(std::memory_order_relaxed));
  family("predict_router_sweep_points_total", "counter",
         "Grid points fanned out by sweep requests.",
         sweep_points_total_.load(std::memory_order_relaxed));
  family("predict_router_stats_requests_total", "counter",
         "Stats requests the router answered itself.",
         stats_requests_total_.load(std::memory_order_relaxed));
  int64_t connections_total = 0;
  {
    MutexLock lock(conns_mu_);
    connections_total = connections_total_;
  }
  family("predict_router_connections_total", "counter",
         "Client connections accepted.", connections_total);

  out +=
      "# HELP predict_router_replica_healthy Replica health by membership "
      "view (1 healthy, 0 dead).\n"
      "# TYPE predict_router_replica_healthy gauge\n";
  const std::vector<ReplicaHealth> snapshot = membership_->Snapshot();
  for (const ReplicaHealth& health : snapshot) {
    out += "predict_router_replica_healthy{replica=\"";
    out += EscapeLabel(health.address.ToString());
    out += "\"} ";
    out += health.healthy ? "1" : "0";
    out += "\n";
  }
  out +=
      "# HELP predict_router_replica_probe_failures_total Failed health "
      "probes per replica.\n"
      "# TYPE predict_router_replica_probe_failures_total counter\n";
  for (const ReplicaHealth& health : snapshot) {
    out += "predict_router_replica_probe_failures_total{replica=\"";
    out += EscapeLabel(health.address.ToString());
    out += "\"} ";
    out += std::to_string(health.probe_failures_total);
    out += "\n";
  }
  return out;
}

void FleetRouter::DrainAndStop() {
  {
    MutexLock lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true);

  // 1. Stop accepting: close the listener on its loop, synchronously.
  if (!loops_.empty()) {
    EventLoop* accept_loop = loops_.front().get();
    std::promise<void> removed;
    accept_loop->Post([this, &removed] {
      listener_.Shutdown();
      removed.set_value();
    });
    removed.get_future().wait();
  } else {
    listener_.Shutdown();
  }

  // 2. Reject new work and wait for in-flight routed requests: every
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

  // 3. Stop the health prober before tearing down what it probes.
  if (membership_) membership_->StopProbing();

  // 4. Flush client connections, then force-close stragglers (mirrors
  // PredictServer's drain).
  std::vector<std::shared_ptr<Connection>> remaining;
  {
    MutexLock lock(conns_mu_);
    remaining.reserve(conns_.size());
    for (const auto& entry : conns_) remaining.push_back(entry.second);
  }
  for (const auto& conn : remaining) {
    conn->loop()->Post([conn] { conn->BeginDrain(); });
  }
  const auto flush_deadline =
      std::chrono::steady_clock::now() + kDrainFlushTimeout;
  {
    MutexLock lock(conns_mu_);
    while (!conns_.empty() &&
           std::chrono::steady_clock::now() < flush_deadline) {
      conns_cv_.WaitFor(lock, std::chrono::milliseconds(50));
    }
  }
  std::vector<std::shared_ptr<Connection>> stragglers;
  {
    MutexLock lock(conns_mu_);
    stragglers.reserve(conns_.size());
    for (const auto& entry : conns_) stragglers.push_back(entry.second);
  }
  for (const auto& conn : stragglers) {
    conn->loop()->Post([conn] { conn->ForceClose(); });
  }
  stragglers.clear();
  for (const auto& loop : loops_) loop->Stop();
  {
    MutexLock lock(conns_mu_);
    conns_.clear();
  }
  remaining.clear();
  // The loops are joined: upstream destructors may close their fds.
  upstreams_.clear();

  MRPERF_LOG(Info) << "predict-router on port " << port_
                   << " drained and stopped";
}

}  // namespace mrperf
