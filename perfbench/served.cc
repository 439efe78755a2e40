/// \file served.cc
/// \brief whatif (one predictd, open-loop what-if queries, then a
/// saturation phase) and fleet_sweep (predict_router over two predictd
/// replicas, one sweep in flight). Every request comes from this
/// process; the daemons run as children with fixed thread budgets that
/// fit a 4-CPU box.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>

#include "children.h"
#include "engine/sweep_json.h"
#include "engine/sweep_runner.h"
#include "experiments/experiment.h"
#include "fleet/ring.h"
#include "fleet/scatter.h"
#include "layers.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/request.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups per served run (spawn, connect, warm up); setup_s is their
/// median and the last one serves the measurement.
constexpr int kSetups = 3;

// ---------------------------------------------------------------- client

/// A nonblocking newline-delimited connection to a local daemon.
class LineConn {
 public:
  LineConn() = default;
  ~LineConn() {
    if (fd_ >= 0) close(fd_);
  }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  mrperf::Status Connect(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return mrperf::Status::Internal(std::strerror(errno));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return mrperf::Status::Unavailable(std::string("connect: ") +
                                         std::strerror(errno));
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return mrperf::Status::OK();
  }

  mrperf::Status Send(const std::string& line) {
    const std::string data = line + "\n";
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = write(fd_, data.data() + sent, data.size() - sent);
      if (n > 0) {
        sent += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        pollfd pfd = {fd_, POLLOUT, 0};
        poll(&pfd, 1, 1000);
      } else {
        return mrperf::Status::Unavailable(std::string("write: ") +
                                           std::strerror(errno));
      }
    }
    return mrperf::Status::OK();
  }

  /// Moves every complete line available now into `lines`.
  mrperf::Status ReadAvailable(std::vector<std::string>* lines) {
    char buf[65536];
    for (;;) {
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n > 0) {
        buffer_.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return mrperf::Status::Unavailable("connection closed");
      if (errno == EINTR) continue;
      if (errno == EAGAIN) break;
      return mrperf::Status::Unavailable(std::string("read: ") +
                                         std::strerror(errno));
    }
    size_t start = 0;
    for (size_t nl; (nl = buffer_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines->push_back(buffer_.substr(start, nl - start));
    }
    buffer_.erase(0, start);
    return mrperf::Status::OK();
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

using Conns = std::vector<std::unique_ptr<LineConn>>;

mrperf::Result<Conns> ConnectAll(int port, int count) {
  Conns conns;
  for (int i = 0; i < count; ++i) {
    auto conn = std::make_unique<LineConn>();
    MRPERF_RETURN_NOT_OK(conn->Connect(port));
    conns.push_back(std::move(conn));
  }
  return conns;
}

/// Waits until `deadline` for readable connections and hands every
/// complete response line to `on_line` with its arrival time.
mrperf::Status Pump(
    Conns& conns, Clock::time_point deadline,
    const std::function<void(size_t, const std::string&, Clock::time_point)>&
        on_line) {
  std::vector<pollfd> fds;
  for (const auto& c : conns) fds.push_back({c->fd(), POLLIN, 0});
  const auto left = std::max(Clock::duration::zero(), deadline - Clock::now());
  timespec ts;
  ts.tv_sec = std::chrono::duration_cast<std::chrono::seconds>(left).count();
  ts.tv_nsec = static_cast<long>(
      (left - std::chrono::seconds(ts.tv_sec)) / std::chrono::nanoseconds(1));
  const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0 && errno != EINTR) {
    return mrperf::Status::Internal(std::string("ppoll: ") + std::strerror(errno));
  }
  std::vector<std::string> lines;
  for (size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    lines.clear();
    const mrperf::Status read = conns[i]->ReadAvailable(&lines);
    const Clock::time_point now = Clock::now();
    for (const std::string& line : lines) on_line(i, line, now);
    MRPERF_RETURN_NOT_OK(read);
  }
  return mrperf::Status::OK();
}

/// "id" and "ok" of a response line.
struct Reply {
  std::string id;
  bool ok = false;
};

Reply ParseReply(const std::string& line) {
  Reply reply;
  mrperf::Result<mrperf::JsonValue> root = mrperf::ParseJson(line);
  if (!root.ok()) return reply;
  const mrperf::JsonValue* id = root->Find("id");
  const mrperf::JsonValue* ok = root->Find("ok");
  if (id != nullptr && id->is_string()) reply.id = id->string_value();
  reply.ok = ok != nullptr && ok->is_bool() && ok->bool_value();
  return reply;
}

mrperf::Result<ServeCounters> FetchStats(int port) {
  mrperf::PredictClient client;
  MRPERF_RETURN_NOT_OK(client.Connect("127.0.0.1", port));
  MRPERF_ASSIGN_OR_RETURN(const std::string line,
                          client.Call(R"({"kind":"stats"})"));
  return ParseServeStats(line);
}

/// Sum of several daemons' counters.
mrperf::Result<ServeCounters> FetchStatsSum(const std::vector<int>& ports) {
  ServeCounters sum;
  for (int port : ports) {
    MRPERF_ASSIGN_OR_RETURN(const ServeCounters c, FetchStats(port));
    sum.requests_total += c.requests_total;
    sum.evaluations_total += c.evaluations_total;
    sum.cache_hits += c.cache_hits;
    sum.cache_misses += c.cache_misses;
  }
  return sum;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The offline evaluation a served predict line denotes, serialized as
/// the replica serializes its result object.
mrperf::Result<std::string> OfflineResultObject(const std::string& line) {
  MRPERF_ASSIGN_OR_RETURN(const mrperf::ServeRequest request,
                          mrperf::ParseServeRequest(line));
  const mrperf::SweepRunner::Task task = mrperf::TaskForRequest(
      request.predict, mrperf::DefaultExperimentOptions());
  MRPERF_ASSIGN_OR_RETURN(const mrperf::ExperimentResult result,
                          mrperf::RunExperiment(task.point, task.options));
  std::string object;
  mrperf::AppendSweepResultJsonObject(object, result);
  return object;
}

// ---------------------------------------------------------------- whatif

/// Open-loop arrival rate, requests/s. PredictService runs one
/// micro-batch at a time and answers no waiter of a batch before the
/// whole batch returns, so a lone request leaves the second worker idle
/// and the server queues like a single server: at 5 rps x ~40 ms it is
/// ~20% busy, most batches hold one evaluation, and the median is a
/// request that did not queue. At 10 rps queueing doubled the median on
/// a slow run.
constexpr double kWhatifRate = 5.0;
constexpr int kWhatifWorkers = 2;
constexpr int kWhatifConnections = 4;
/// Requests kept in flight by the saturation phase. With few in flight
/// the micro-batches lock into alternating sizes (1, k-1): at twice the
/// worker count capacity read 30 or 50 rps depending on the phase a run
/// fell into. At 16 the lock-in costs at most ~1/8 of the capacity.
constexpr int kSaturationInFlight = 16;
/// Share of --seconds spent open loop; the rest is the saturation phase.
constexpr double kOpenLoopShare = 0.7;
/// A what-if answer later than this misses the goodput limit.
constexpr double kLatencyLimitMs = 250.0;
/// Lateness of a send past its schedule that counts as late. Latency is
/// timed from the schedule, so a single stall still shows in the
/// latencies; a generator that is late on more than a tenth of its sends
/// under-loaded the server, and the run is failed rather than reported.
constexpr double kLateLimitMs = 25.0;
/// Open-loop responses checked byte for byte against RunTasks.
constexpr size_t kCheckedResponses = 6;
/// Requests of the traced run replayed through every layer in process.
constexpr size_t kReplayedRequests = 12;

struct OpenLoop {
  std::vector<double> latency_ms;  // answered ok, from the scheduled send
  std::vector<double> late_ms;     // send time minus scheduled time
  std::vector<std::string> responses;
  int64_t sent = 0;
  int64_t failed = 0;
  int64_t within_limit = 0;
};

mrperf::Result<OpenLoop> RunOpenLoop(Conns& conns,
                                     const std::vector<std::string>& lines,
                                     const std::vector<std::string>& ids,
                                     const std::vector<double>& arrivals,
                                     Tracer& tracer) {
  OpenLoop run;
  const size_t n = arrivals.size();
  run.responses.resize(n);
  std::unordered_map<std::string, size_t> pending;
  std::vector<int> load(conns.size(), 0);
  std::vector<size_t> conn_of(n, 0);
  std::vector<Clock::time_point> due(n);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(arrivals[i]));
  }
  const auto on_line = [&](size_t, const std::string& line,
                           Clock::time_point at) {
    const Reply reply = ParseReply(line);
    const auto it = pending.find(reply.id);
    if (it == pending.end()) return;
    const size_t i = it->second;
    pending.erase(it);
    --load[conn_of[i]];
    run.responses[i] = line;
    const double ms = MsBetween(due[i], at);
    tracer.Add("client.request", due[i], at, 0, reply.id);
    if (!reply.ok) {
      ++run.failed;
      return;
    }
    run.latency_ms.push_back(ms);
    if (ms <= kLatencyLimitMs) ++run.within_limit;
  };
  size_t next = 0;
  Clock::time_point idle_since = Clock::now();
  while (next < n || !pending.empty()) {
    const Clock::time_point now = Clock::now();
    if (next < n && now >= due[next]) {
      const size_t c = static_cast<size_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      MRPERF_RETURN_NOT_OK(conns[c]->Send(lines[next]));
      run.late_ms.push_back(MsBetween(due[next], Clock::now()));
      pending[ids[next]] = next;
      conn_of[next] = c;
      ++load[c];
      ++run.sent;
      ++next;
      continue;
    }
    const Clock::time_point wake =
        next < n ? due[next] : now + std::chrono::milliseconds(100);
    const size_t before = pending.size();
    MRPERF_RETURN_NOT_OK(Pump(conns, wake, on_line));
    if (pending.size() != before || next < n) {
      idle_since = Clock::now();
    } else if (Clock::now() - idle_since > std::chrono::seconds(30)) {
      return mrperf::Status::Unavailable("no response for 30 s");
    }
  }
  return run;
}

struct Saturation {
  int64_t sent = 0;
  int64_t completed = 0;  // answered ok
  int64_t failed = 0;
  /// From the first send to the last response.
  double wall_s = 0.0;
};

/// Keeps `in_flight` requests outstanding, spread over the connections,
/// until `seconds` have passed, then lets them drain. Every answered
/// request counts, over the time to the last answer, so no micro-batch
/// is cut in half by the end of the window.
mrperf::Result<Saturation> RunSaturation(Conns& conns,
                                         const std::vector<std::string>& lines,
                                         const std::vector<std::string>& ids,
                                         int in_flight, double seconds,
                                         Tracer& tracer) {
  Saturation run;
  std::unordered_map<std::string, std::pair<size_t, Clock::time_point>> pending;
  size_t next = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point last = start;
  mrperf::Status send_status;
  const auto send_on = [&](size_t c) {
    if (next >= lines.size()) return;
    pending[ids[next]] = {c, Clock::now()};
    const mrperf::Status s = conns[c]->Send(lines[next]);
    if (!s.ok()) send_status = s;
    ++run.sent;
    ++next;
  };
  for (int i = 0; i < in_flight; ++i) send_on(static_cast<size_t>(i) % conns.size());
  const auto on_line = [&](size_t, const std::string& line,
                           Clock::time_point at) {
    const Reply reply = ParseReply(line);
    const auto it = pending.find(reply.id);
    if (it == pending.end()) return;
    const auto [c, sent_at] = it->second;
    pending.erase(it);
    tracer.Add("client.request", sent_at, at, 0, reply.id);
    last = at;
    if (reply.ok) {
      ++run.completed;
    } else {
      ++run.failed;
    }
    if (at < end) send_on(c);
  };
  while (!pending.empty()) {
    MRPERF_RETURN_NOT_OK(send_status);
    if (Clock::now() - start > std::chrono::duration<double>(seconds + 30)) {
      return mrperf::Status::Unavailable("saturation phase did not drain");
    }
    MRPERF_RETURN_NOT_OK(
        Pump(conns, Clock::now() + std::chrono::milliseconds(100), on_line));
  }
  if (next >= lines.size()) {
    return mrperf::Status::Internal("saturation ran out of distinct points");
  }
  run.wall_s = MsBetween(start, last) / 1e3;
  return run;
}

/// One what-if predictd with its client connections.
struct WhatifServer {
  std::unique_ptr<ChildProcess> daemon;
  Conns conns;
};

mrperf::Result<WhatifServer> StartWhatifServer(
    const std::vector<std::string>& warm_lines,
    const std::vector<std::string>& warm_ids) {
  WhatifServer server;
  MRPERF_ASSIGN_OR_RETURN(
      server.daemon,
      ChildProcess::Spawn(ExecutableDir() + "/predictd",
                          {"--port=0",
                           "--threads=" + std::to_string(kWhatifWorkers),
                           "--event-loop-threads=1"},
                          "predictd listening on 127.0.0.1:%d"));
  MRPERF_ASSIGN_OR_RETURN(server.conns,
                          ConnectAll(server.daemon->port(), kWhatifConnections));
  // Warm-up, one request at a time: a burst would split into
  // micro-batches differently from run to run.
  Tracer off(false);
  for (size_t i = 0; i < warm_lines.size(); ++i) {
    MRPERF_ASSIGN_OR_RETURN(
        const OpenLoop warm,
        RunOpenLoop(server.conns, {warm_lines[i]}, {warm_ids[i]}, {0.0}, off));
    if (warm.failed != 0) return mrperf::Status::Internal("warm-up failed");
  }
  return server;
}

/// Lines and ids of a block of what-if points.
struct Requests {
  std::vector<WhatifPoint> points;
  std::vector<std::string> lines;
  std::vector<std::string> ids;
};

Requests MakeRequests(const std::vector<WhatifPoint>& points,
                      const std::string& prefix) {
  Requests r;
  r.points = points;
  for (size_t i = 0; i < points.size(); ++i) {
    r.ids.push_back(prefix + std::to_string(i));
    r.lines.push_back(WhatifRequestLine(r.ids.back(), points[i]));
  }
  return r;
}

/// One open-loop + saturation measurement on a running server.
struct WhatifPhase {
  Requests open;
  std::vector<double> arrivals;
  Requests saturation;
  OpenLoop open_run;
  Saturation saturation_run;
  double open_seconds = 0.0;
  double cpu_s = 0.0;
  ServeCounters before, after;
};

mrperf::Status MeasureWhatif(WhatifServer& server, uint64_t seed,
                             const std::string& tag, double seconds,
                             WhatifPoints& points, Tracer& tracer,
                             WhatifPhase* phase) {
  phase->open_seconds = seconds * kOpenLoopShare;
  Rng arrivals(StreamSeed(seed, kArrivalStream));
  phase->arrivals = PoissonArrivals(arrivals, kWhatifRate, phase->open_seconds);
  phase->open = MakeRequests(
      points.Draw(phase->arrivals.size()), tag + "o");
  // Far more points than a saturated server can answer in the window.
  const double saturation_s = seconds - phase->open_seconds;
  phase->saturation = MakeRequests(
      points.Draw(static_cast<size_t>(400 * saturation_s) + 64),
      tag + "s");
  MRPERF_ASSIGN_OR_RETURN(phase->before, FetchStats(server.daemon->port()));
  const double cpu0 = server.daemon->CpuSeconds();
  MRPERF_ASSIGN_OR_RETURN(phase->open_run,
                          RunOpenLoop(server.conns, phase->open.lines,
                                      phase->open.ids, phase->arrivals, tracer));
  MRPERF_ASSIGN_OR_RETURN(
      phase->saturation_run,
      RunSaturation(server.conns, phase->saturation.lines, phase->saturation.ids,
                    kSaturationInFlight, saturation_s, tracer));
  phase->cpu_s = server.daemon->CpuSeconds() - cpu0;
  MRPERF_ASSIGN_OR_RETURN(phase->after, FetchStats(server.daemon->port()));
  return mrperf::Status::OK();
}

/// Sampled open-loop responses must be byte-identical to an offline
/// RunTasks of the same TaskForRequest.
void CheckWhatifResponses(const WhatifPhase& phase, uint64_t seed,
                          Outcome* out) {
  Rng rng(StreamSeed(seed, kSampleStream));
  const std::vector<size_t> sample =
      SampleIndices(rng, phase.open.lines.size(), kCheckedResponses);
  std::vector<mrperf::SweepRunner::Task> tasks;
  for (size_t i : sample) {
    mrperf::Result<mrperf::ServeRequest> request =
        mrperf::ParseServeRequest(phase.open.lines[i]);
    if (!request.ok()) {
      out->Problem("unparsable request " + phase.open.lines[i]);
      return;
    }
    tasks.push_back(mrperf::TaskForRequest(request->predict,
                                           mrperf::DefaultExperimentOptions()));
  }
  mrperf::SweepOptions options;
  options.num_threads = 1;
  mrperf::SweepRunner runner(options);
  const mrperf::SweepReport report = runner.RunTasks(tasks);
  for (size_t k = 0; k < sample.size(); ++k) {
    const size_t i = sample[k];
    if (!report.results[k].ok()) {
      out->Problem("offline evaluation of " + phase.open.ids[i] + " failed");
      continue;
    }
    const std::string want =
        mrperf::MakePredictResponse(phase.open.ids[i], *report.results[k]);
    if (phase.open_run.responses[i] != want) {
      out->Problem("response " + phase.open.ids[i] +
                   " differs from offline RunTasks: got '" +
                   phase.open_run.responses[i] + "' want '" + want + "'");
    }
  }
}

/// The sweep form of a what-if request (one point), for the replay.
std::string WhatifSweepLine(const std::string& id, const WhatifPoint& p) {
  return "{\"kind\":\"sweep\",\"id\":\"" + id +
         "\",\"nodes\":" + std::to_string(p.nodes) +
         ",\"input_bytes\":" + std::to_string(p.input_bytes) + ",\"jobs\":1}";
}

}  // namespace

Outcome RunWhatif(const RunConfig& config) {
  Outcome out;
  WhatifPoints points(StreamSeed(config.seed, kPointStream));
  std::vector<double> setup_s;
  WhatifServer server;
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point t0 = Clock::now();
    const Requests warm =
        MakeRequests(points.Draw(kWhatifConnections),
                     "warm" + std::to_string(s) + "-");
    mrperf::Result<WhatifServer> started =
        StartWhatifServer(warm.lines, warm.ids);
    if (!started.ok()) {
      out.Problem("set-up: " + started.status().ToString());
      return out;
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    if (s + 1 < kSetups) {
      started->daemon->Terminate();
    } else {
      server = std::move(*started);
    }
  }

  const auto finish = [&](const WhatifPhase& phase) {
    out.attempted += phase.open_run.sent + phase.saturation_run.sent;
    out.failed += phase.open_run.failed + phase.saturation_run.failed;
    const double late_p99 = NearestRankPercentile(phase.open_run.late_ms, 99);
    const double late_p90 = NearestRankPercentile(phase.open_run.late_ms, 90);
    if (late_p90 > kLateLimitMs) {
      out.Problem("generator fell behind its schedule: p90 lateness " +
                  FormatDouble(late_p90) + " ms > " +
                  FormatDouble(kLateLimitMs) + " ms; latency not valid");
    }
    if (phase.open_run.failed + phase.saturation_run.failed > 0) {
      out.Problem("failed requests: " +
                  std::to_string(phase.open_run.failed +
                                 phase.saturation_run.failed));
    }
    if (phase.open_run.latency_ms.empty() || phase.saturation_run.completed == 0) {
      out.Problem("a phase answered no request; --seconds is too short");
    }
    CheckWhatifResponses(phase, config.seed, &out);
    return late_p99;
  };

  if (!config.trace) {
    Tracer off(false);
    WhatifPhase phase;
    const mrperf::Status measured =
        MeasureWhatif(server, config.seed, "", config.seconds, points, off, &phase);
    if (!measured.ok()) {
      out.Problem("measurement: " + measured.ToString());
      return out;
    }
    const double peak_rss = server.daemon->PeakRssMb();
    if (!server.daemon->Terminate()) out.Problem("predictd did not drain");
    const double late_p99 = finish(phase);
    const Tail tail = HighestTail(phase.open_run.latency_ms);
    const double capacity =
        phase.saturation_run.completed / phase.saturation_run.wall_s;
    out.metrics = {{"setup_s", MedianOf(setup_s), "s"},
                   {"p50_ms", MedianOf(phase.open_run.latency_ms), "ms"},
                   {"points_per_s", capacity, "1/s"},
                   {"peak_rss_mb", peak_rss, "MiB"}};
    out.Note(NoteLine("p50_ms", MedianOf(phase.open_run.latency_ms), "ms",
                      std::to_string(tail.samples) + " requests at " +
                          FormatDouble(kWhatifRate) + " rps, open loop"));
    out.Note(NoteLine("tail_ms", tail.value, "ms",
                      "p" + FormatDouble(tail.percentile) + " of " +
                          std::to_string(tail.samples)));
    out.Note(NoteLine("goodput_rps",
                      phase.open_run.within_limit / phase.open_seconds, "1/s",
                      "ok within " + FormatDouble(kLatencyLimitMs) + " ms"));
    out.Note(NoteLine("capacity_rps", capacity, "1/s",
                      std::to_string(phase.saturation_run.completed) +
                          " completions, " +
                          std::to_string(kSaturationInFlight) + " in flight"));
    out.Note(NoteLine("client.late_p99_ms", late_p99, "ms"));
    return out;
  }

  // Traced run: half the time untraced, half traced, then the replays.
  Tracer off(false);
  WhatifPhase plain;
  mrperf::Status measured =
      MeasureWhatif(server, config.seed, "u", config.seconds / 2, points, off, &plain);
  Tracer tracer(true);
  WhatifPhase traced;
  if (measured.ok()) {
    measured = MeasureWhatif(server, config.seed, "t",
                             config.seconds / 2, points, tracer, &traced);
  }
  server.daemon->Terminate();
  if (!measured.ok()) {
    out.Problem("measurement: " + measured.ToString());
    return out;
  }
  finish(plain);
  const double late_p99 = finish(traced);

  std::vector<std::string> sweep_lines;
  Rng sample_rng(StreamSeed(config.seed, kSampleStream));
  for (size_t i : SampleIndices(sample_rng, traced.open.points.size(),
                                kReplayedRequests)) {
    sweep_lines.push_back(
        WhatifSweepLine(traced.open.ids[i], traced.open.points[i]));
  }
  ReplayCounts counts;
  const mrperf::Status replayed = ReplaySweeps(sweep_lines, tracer, &counts);
  if (!replayed.ok()) out.Problem("replay: " + replayed.ToString());
  const mrperf::Result<ServiceReplay> service = ReplayThroughService(
      traced.open.lines, traced.arrivals, kWhatifWorkers, tracer);
  if (!service.ok()) out.Problem("service replay: " + service.status().ToString());
  const ServiceReplay sr = service.ok() ? *service : ServiceReplay{};

  const ServeCounters& a = traced.after;
  const ServeCounters& b = traced.before;
  const double evaluation_ms = tracer.WeightedMs("serve.evaluation") /
                               std::max<int64_t>(1, counts.points);
  WorkloadLayers w;
  w.solve_cache_hit_ratio =
      Ratio(a.cache_hits - b.cache_hits,
            (a.cache_hits - b.cache_hits) + (a.cache_misses - b.cache_misses));
  w.parallel_efficiency =
      Ratio(traced.saturation_run.completed * evaluation_ms,
            traced.saturation_run.wall_s * 1e3 * kWhatifWorkers);
  w.queue_wait_ms = Ratio(sr.queue_wait_ms_sum, sr.requests);
  w.batch_size_mean = Ratio(sr.requests, sr.batches);
  w.cpu_ms_per_request =
      Ratio(1e3 * traced.cpu_s, a.requests_total - b.requests_total);
  w.evaluations_per_request = Ratio(a.evaluations_total - b.evaluations_total,
                                    a.requests_total - b.requests_total);
  w.late_p99_ms = late_p99;
  w.sent = static_cast<double>(traced.open_run.sent + traced.saturation_run.sent);
  w.failed = static_cast<double>(traced.open_run.failed + traced.saturation_run.failed);
  const double plain_p50 = MedianOf(plain.open_run.latency_ms);
  const double traced_p50 = MedianOf(traced.open_run.latency_ms);
  w.overhead_pct = 100.0 * (traced_p50 - plain_p50) / plain_p50;
  out.metrics = LayerMetrics(tracer, counts, w);
  out.Note(NoteLine("p50_ms untraced", plain_p50, "ms"));
  out.Note(NoteLine("p50_ms traced", traced_p50, "ms"));
  WriteSpans(config, tracer, &out);
  return out;
}

// ----------------------------------------------------------- fleet_sweep

namespace {

constexpr int kReplicas = 2;
/// Model-only sweeps of one cost mode (one job, 4 and 6 nodes, 8 map
/// tasks: 0.88-0.96 GiB). Each places two of its four points on each
/// replica of the 2-replica ring, so every sweep waits on the same
/// amount of work; their points are pairwise distinct.
const char* const kFleetSweeps[] = {
    R"({"kind":"sweep","nodes":[4,6],"input_bytes":[948004972,998004972],"jobs":1,"model_only":true)",
    R"({"kind":"sweep","nodes":[4,6],"input_bytes":[956304084,1006304084],"jobs":1,"model_only":true)",
    R"({"kind":"sweep","nodes":[4,6],"input_bytes":[966677974,1016677974],"jobs":1,"model_only":true)",
    R"({"kind":"sweep","nodes":[4,6],"input_bytes":[981201420,1031201420],"jobs":1,"model_only":true)",
};
constexpr size_t kFleetSweepCount = std::size(kFleetSweeps);

std::string FleetSweepLine(size_t sweep, const std::string& id) {
  return std::string(kFleetSweeps[sweep]) + ",\"id\":\"" + id + "\"}";
}

struct Fleet {
  std::vector<std::unique_ptr<ChildProcess>> replicas;
  std::unique_ptr<ChildProcess> router;
  std::unique_ptr<mrperf::PredictClient> client;

  std::vector<int> replica_ports() const {
    std::vector<int> ports;
    for (const auto& r : replicas) ports.push_back(r->port());
    return ports;
  }
  double PeakRssMb() const {
    double total = router->PeakRssMb();
    for (const auto& r : replicas) total += r->PeakRssMb();
    return total;
  }
  double CpuSeconds() const {
    double total = router->CpuSeconds();
    for (const auto& r : replicas) total += r->CpuSeconds();
    return total;
  }
  bool Terminate() {
    bool ok = router->Terminate();
    for (auto& r : replicas) ok = r->Terminate() && ok;
    return ok;
  }
};

mrperf::Result<Fleet> StartFleet() {
  Fleet fleet;
  std::string list;
  for (int i = 0; i < kReplicas; ++i) {
    MRPERF_ASSIGN_OR_RETURN(
        std::unique_ptr<ChildProcess> replica,
        ChildProcess::Spawn(ExecutableDir() + "/predictd",
                            {"--port=0", "--threads=1", "--event-loop-threads=1",
                             "--replica-id=r" + std::to_string(i)},
                            "predictd listening on 127.0.0.1:%d"));
    list += (i > 0 ? "," : "") + std::string("127.0.0.1:") +
            std::to_string(replica->port());
    fleet.replicas.push_back(std::move(replica));
  }
  MRPERF_ASSIGN_OR_RETURN(
      fleet.router,
      ChildProcess::Spawn(ExecutableDir() + "/predict_router",
                          {"--port=0", "--replicas=" + list,
                           "--event-loop-threads=1"},
                          "predict-router listening on 127.0.0.1:%d"));
  fleet.client = std::make_unique<mrperf::PredictClient>();
  MRPERF_RETURN_NOT_OK(
      fleet.client->ConnectWithRetry("127.0.0.1", fleet.router->port()));
  // Warm-up: every sweep of the set once.
  for (size_t k = 0; k < kFleetSweepCount; ++k) {
    MRPERF_ASSIGN_OR_RETURN(
        const std::string reply,
        fleet.client->Call(FleetSweepLine(k, "warm" + std::to_string(k))));
    if (!ParseReply(reply).ok) {
      return mrperf::Status::Internal("warm-up sweep failed: " + reply);
    }
  }
  return fleet;
}

struct SweepRun {
  std::vector<double> latency_ms;
  std::vector<double> gap_ms;
  std::vector<size_t> drawn;       // sweep index per request
  std::vector<std::string> ids;
  std::vector<std::string> responses;
  int64_t sent = 0;
  int64_t failed = 0;
  int64_t points = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ServeCounters before, after;
};

/// Closed loop: one sweep in flight for `seconds`.
mrperf::Status MeasureFleet(Fleet& fleet, const std::vector<size_t>& order,
                            const std::string& tag, double seconds,
                            Tracer& tracer, SweepRun* run) {
  MRPERF_ASSIGN_OR_RETURN(run->before, FetchStatsSum(fleet.replica_ports()));
  const double cpu0 = fleet.CpuSeconds();
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  for (size_t i = 0; i < order.size(); ++i) {
    if (MsBetween(start, Clock::now()) >= seconds * 1e3) break;
    const std::string id = tag + std::to_string(i);
    const Clock::time_point sent = Clock::now();
    run->gap_ms.push_back(MsBetween(last, sent));
    MRPERF_ASSIGN_OR_RETURN(const std::string reply,
                            fleet.client->Call(FleetSweepLine(order[i], id)));
    last = Clock::now();
    tracer.Add("client.sweep", sent, last, 0, id);
    ++run->sent;
    run->drawn.push_back(order[i]);
    run->ids.push_back(id);
    run->responses.push_back(reply);
    if (!ParseReply(reply).ok) {
      ++run->failed;
      continue;
    }
    run->latency_ms.push_back(MsBetween(sent, last));
  }
  run->wall_s = MsBetween(start, last) / 1e3;
  run->cpu_s = fleet.CpuSeconds() - cpu0;
  MRPERF_ASSIGN_OR_RETURN(run->after, FetchStatsSum(fleet.replica_ports()));
  return mrperf::Status::OK();
}

/// Each sweep response must be byte-identical to its points evaluated
/// one by one, in index order.
void CheckSweepResponses(const SweepRun& run, int64_t* points_per_sweep,
                         Outcome* out) {
  std::vector<std::vector<std::string>> objects(kFleetSweepCount);
  for (size_t k = 0; k < kFleetSweepCount; ++k) {
    const std::vector<std::string> lines =
        DistinctPointLines({FleetSweepLine(k, "check")});
    for (const std::string& line : lines) {
      mrperf::Result<std::string> object = OfflineResultObject(line);
      if (!object.ok()) {
        out->Problem("offline evaluation failed: " + object.status().ToString());
        return;
      }
      objects[k].push_back(*object);
    }
    points_per_sweep[k] = static_cast<int64_t>(lines.size());
  }
  for (size_t i = 0; i < run.responses.size(); ++i) {
    const std::string want =
        mrperf::MakeSweepResponse(run.ids[i], objects[run.drawn[i]]);
    if (run.responses[i] != want) {
      out->Problem("sweep " + run.ids[i] + " differs from point-by-point "
                   "evaluation: got '" + run.responses[i] + "'");
    }
  }
}

/// Median latency of sending each sweep's points straight to their
/// owning replicas (pipelined per replica), per sweep of the set.
mrperf::Result<std::vector<double>> DirectSweepMs(const Fleet& fleet,
                                                  int rounds) {
  const mrperf::HashRing ring(kReplicas);
  std::vector<std::unique_ptr<mrperf::PredictClient>> clients;
  for (const auto& r : fleet.replicas) {
    clients.push_back(std::make_unique<mrperf::PredictClient>());
    MRPERF_RETURN_NOT_OK(clients.back()->Connect("127.0.0.1", r->port()));
  }
  std::vector<double> medians;
  for (size_t k = 0; k < kFleetSweepCount; ++k) {
    MRPERF_ASSIGN_OR_RETURN(const mrperf::JsonValue root,
                            mrperf::ParseJson(FleetSweepLine(k, "direct")));
    MRPERF_ASSIGN_OR_RETURN(const mrperf::SweepExpansion expansion,
                            mrperf::ExpandSweepRequest(root));
    std::vector<double> samples;
    for (int round = 0; round < rounds; ++round) {
      std::vector<int> sent(kReplicas, 0);
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < expansion.point_lines.size(); ++i) {
        const size_t owner = ring.Route(expansion.point_keys[i]);
        MRPERF_RETURN_NOT_OK(clients[owner]->SendLine(expansion.point_lines[i]));
        ++sent[owner];
      }
      for (int r = 0; r < kReplicas; ++r) {
        for (int j = 0; j < sent[r]; ++j) {
          MRPERF_RETURN_NOT_OK(clients[r]->ReadLine().status());
        }
      }
      samples.push_back(MsBetween(start, Clock::now()));
    }
    medians.push_back(MedianOf(samples));
  }
  return medians;
}

}  // namespace

Outcome RunFleetSweep(const RunConfig& config) {
  Outcome out;
  std::vector<double> setup_s;
  Fleet fleet;
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point t0 = Clock::now();
    mrperf::Result<Fleet> started = StartFleet();
    if (!started.ok()) {
      out.Problem("set-up: " + started.status().ToString());
      return out;
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    if (s + 1 < kSetups) {
      started->Terminate();
    } else {
      fleet = std::move(*started);
    }
  }
  // Far more draws than a run can send.
  Rng draw(StreamSeed(config.seed, kSweepOrderStream));
  const std::vector<size_t> order = SweepDrawOrder(
      draw, kFleetSweepCount, static_cast<size_t>(200 * config.seconds) + 64);
  int64_t points_per_sweep[kFleetSweepCount] = {};

  const auto finish = [&](SweepRun& run) {
    out.attempted += run.sent;
    out.failed += run.failed;
    if (run.failed > 0) out.Problem(std::to_string(run.failed) + " sweeps failed");
    if (run.latency_ms.empty()) out.Problem("no sweep answered");
    CheckSweepResponses(run, points_per_sweep, &out);
    for (size_t i = 0; i < run.drawn.size(); ++i) {
      run.points += points_per_sweep[run.drawn[i]];
    }
  };

  if (!config.trace) {
    Tracer off(false);
    SweepRun run;
    const mrperf::Status measured =
        MeasureFleet(fleet, order, "s", config.seconds, off, &run);
    const double peak_rss = fleet.PeakRssMb();
    if (!fleet.Terminate()) out.Problem("fleet did not drain");
    if (!measured.ok()) {
      out.Problem("measurement: " + measured.ToString());
      return out;
    }
    finish(run);
    const Tail tail = HighestTail(run.latency_ms);
    out.metrics = {{"setup_s", MedianOf(setup_s), "s"},
                   {"p50_ms", MedianOf(run.latency_ms), "ms"},
                   {"points_per_s", run.points / run.wall_s, "1/s"},
                   {"peak_rss_mb", peak_rss, "MiB"}};
    out.Note(NoteLine("p50_ms", MedianOf(run.latency_ms), "ms",
                      std::to_string(tail.samples) +
                          " sweeps, closed loop, one in flight"));
    out.Note(NoteLine("tail_ms", tail.value, "ms",
                      "p" + FormatDouble(tail.percentile) + " of " +
                          std::to_string(tail.samples)));
    out.Note(NoteLine("client.late_p99_ms", NearestRankPercentile(run.gap_ms, 99),
                      "ms", "gap between a response and the next send"));
    std::string per_sweep;
    for (size_t k = 0; k < kFleetSweepCount; ++k) {
      std::vector<double> ms;
      for (size_t i = 0; i < run.drawn.size() && i < run.latency_ms.size(); ++i) {
        if (run.drawn[i] == k) ms.push_back(run.latency_ms[i]);
      }
      per_sweep += " " + FormatDouble(MedianOf(ms)) + " (" +
                   std::to_string(ms.size()) + ")";
    }
    out.Note("p50_ms per sweep of the set =" + per_sweep);
    return out;
  }

  Tracer off(false);
  SweepRun plain;
  mrperf::Status measured =
      MeasureFleet(fleet, order, "u", config.seconds / 2, off, &plain);
  Tracer tracer(true);
  SweepRun traced;
  if (measured.ok()) {
    measured = MeasureFleet(fleet, order, "t", config.seconds / 2, tracer, &traced);
  }
  mrperf::Result<std::vector<double>> direct =
      measured.ok() ? DirectSweepMs(fleet, 5)
                    : mrperf::Result<std::vector<double>>(measured);
  fleet.Terminate();
  if (!measured.ok() || !direct.ok()) {
    out.Problem("measurement: " +
                (measured.ok() ? direct.status() : measured).ToString());
    return out;
  }
  finish(plain);
  finish(traced);

  std::vector<std::string> sweep_lines;
  for (size_t k = 0; k < kFleetSweepCount; ++k) {
    sweep_lines.push_back(FleetSweepLine(k, "replay" + std::to_string(k)));
  }
  ReplayCounts counts;
  const mrperf::Status replayed = ReplaySweeps(sweep_lines, tracer, &counts);
  if (!replayed.ok()) out.Problem("replay: " + replayed.ToString());
  // One replica's view: a sweep's points arrive together.
  const mrperf::Result<ServiceReplay> service =
      ReplayThroughService(DistinctPointLines(sweep_lines), {}, 1, tracer);
  if (!service.ok()) out.Problem("service replay: " + service.status().ToString());
  const ServiceReplay sr = service.ok() ? *service : ServiceReplay{};

  const ServeCounters& a = traced.after;
  const ServeCounters& b = traced.before;
  const double evaluation_ms = tracer.WeightedMs("serve.evaluation") /
                               std::max<int64_t>(1, counts.points);
  WorkloadLayers w;
  w.solve_cache_hit_ratio =
      Ratio(a.cache_hits - b.cache_hits,
            (a.cache_hits - b.cache_hits) + (a.cache_misses - b.cache_misses));
  w.parallel_efficiency =
      Ratio(traced.points * evaluation_ms, traced.wall_s * 1e3 * kReplicas);
  w.queue_wait_ms = Ratio(sr.queue_wait_ms_sum, sr.requests);
  w.batch_size_mean = Ratio(sr.requests, sr.batches);
  w.cpu_ms_per_request = Ratio(1e3 * traced.cpu_s, traced.points);
  w.evaluations_per_request = Ratio(a.evaluations_total - b.evaluations_total,
                                    a.requests_total - b.requests_total);
  w.late_p99_ms = NearestRankPercentile(traced.gap_ms, 99);
  w.sent = static_cast<double>(traced.sent);
  w.failed = static_cast<double>(traced.failed);
  const double plain_p50 = MedianOf(plain.latency_ms);
  const double traced_p50 = MedianOf(traced.latency_ms);
  w.overhead_pct = 100.0 * (traced_p50 - plain_p50) / plain_p50;
  out.metrics = LayerMetrics(tracer, counts, w);

  // Router hop: per sweep of the set, router latency minus the direct
  // scatter to the owners.
  std::vector<double> hop;
  for (size_t k = 0; k < kFleetSweepCount; ++k) {
    std::vector<double> via_router;
    for (size_t i = 0; i < traced.drawn.size(); ++i) {
      if (traced.drawn[i] == k && i < traced.latency_ms.size()) {
        via_router.push_back(traced.latency_ms[i]);
      }
    }
    if (!via_router.empty()) hop.push_back(MedianOf(via_router) - (*direct)[k]);
  }
  out.Note(NoteLine("fleet.router_hop_ms", MedianOf(hop), "ms",
                    "sweep via router minus its points sent straight to "
                    "their owners"));
  out.Note(NoteLine("p50_ms untraced", plain_p50, "ms"));
  out.Note(NoteLine("p50_ms traced", traced_p50, "ms"));
  WriteSpans(config, tracer, &out);
  return out;
}

}  // namespace perfbench
