/// Closed-loop load generator and acceptance gate for predictd, the
/// online prediction daemon (src/serve/). Spawns real predictd child
/// processes and drives these phases over TCP. Every phase runs even
/// after an earlier one failed, and the run ends with one pass/fail
/// table (bench/gate_table.h):
///
///  1. **Determinism gate.** A mixed scenario batch (schedulers,
///     profiles, heterogeneous clusters, model-only) is served and every
///     response must be byte-identical to an offline SweepRunner
///     evaluation of the same request — the serving analogue of
///     bench_scenario_sweep --smoke. Holds at any worker count because
///     request seeds never depend on batch composition.
///  2. **Coalescing gate.** A pipelined duplicate burst must be served
///     with fewer evaluations than requests (in-flight coalescing) and a
///     nonzero solve-cache hit rate.
///     **Repeat gate.** Once the burst resolved, its key sent once more
///     must cost no evaluation and one response-cache hit, with the
///     burst's result bytes.
///  3. **Load phase.** Closed-loop clients replay the phase-1 mix (now
///     answered from the response cache) and measure end-to-end
///     latency; p50/p95/p99 + throughput go to BENCH_serve_load.json for
///     the CI perf trajectory. Also checks malformed lines get
///     structured errors without dropping the connection.
///  4. **Drain gate.** Requests are admitted, SIGTERM is sent, and every
///     admitted request must still receive its response before the child
///     exits 0.
///  5. **Shard-spread gate.** In-process: 8 threads hammer hot keys of a
///     prewarmed 1-shard (single-mutex) SolveCache and a 16-shard one
///     (best-of-3 each). Both timings are report-only JSON columns (a
///     wall-clock comparison flips on a loaded runner); the gate reads
///     the sharded cache's per-shard counters: the hot keys must spread
///     over more than one shard, and the per-shard hits must sum to
///     every lookup made.
///  6. **C10k gate.** A fresh predictd (1 worker, 2 event-loop threads)
///     holds >= 1000 idle connections while 64 active clients pipeline
///     bursts on top: every response ordered, served on the fixed loop
///     budget (event_loop_threads in /stats must not grow).
///  7. **QoS gate.** Bulk clients saturate the queue with distinct
///     evaluations while an interactive client sends requests one at a
///     time: its last answer must arrive while bulk answers are still
///     outstanding, counted as the bulk clients read them, so arrival
///     order decides and no clock reading does. Both server-side p99s
///     are report-only JSON columns. Then requests with deadline_ms=1
///     and keys no earlier phase answered, queued behind a parked
///     backlog, must each get a structured answer — deadline_exceeded
///     is never silently dropped and the stats counter matches the
///     responses observed.
///  8. **Metrics gate.** GET /metrics over the same port must parse as
///     valid Prometheus text exposition (ValidatePrometheusText) and
///     carry the per-priority latency histogram and the response-cache
///     families. A final gate SIGTERMs that child with the idle
///     connections still parked and requires exit 0.
///
/// Flags: --predictd=PATH (default ./predictd), --threads=N (server
/// workers, default 4), --connections=C (default 4), --requests=M per
/// connection in the load phase (default 10), --json-out=PATH, --smoke
/// (CI sizing: fewer load requests).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/statistics.h"
#include "daemon_child.h"
#include "engine/sweep_format.h"
#include "engine/sweep_runner.h"
#include "figure_common.h"
#include "gate_table.h"
#include "queueing/solve_cache.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/metrics.h"
#include "serve/request.h"

namespace {

using namespace mrperf;
using bench::DaemonChild;
using bench::HttpGet;
using bench::StatsField;
using bench::StopChildGracefully;
using SteadyClock = std::chrono::steady_clock;

/// Spawns `path --port=0 --threads=N extra_args...`.
bool SpawnPredictd(const std::string& path, int threads, DaemonChild* child,
                   const std::vector<std::string>& extra_args = {}) {
  std::vector<std::string> args = {"--port=0",
                                   "--threads=" + std::to_string(threads)};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  return bench::SpawnChild(path, args, "predictd listening on 127.0.0.1:%d",
                           child);
}

/// Extracts stats.<object>.<key>, e.g. ("cache", "hits") or
/// ("response_cache", "hits").
double StatsObjectField(const std::string& response, const char* object,
                        const char* key) {
  Result<JsonValue> parsed = ParseJson(response);
  if (!parsed.ok()) return -1.0;
  const JsonValue* stats = parsed->Find("stats");
  const JsonValue* inner = stats ? stats->Find(object) : nullptr;
  const JsonValue* field = inner ? inner->Find(key) : nullptr;
  if (field == nullptr || !field->is_number()) return -1.0;
  return field->number_value();
}

/// The mixed scenario batch of phase 1/3: ids must stay unique.
std::vector<std::string> ScenarioMix() {
  return {
      R"({"id":"a0","kind":"predict","nodes":2,"input_gb":0.25,)"
      R"("jobs":1,"repetitions":2})",
      R"({"id":"a1","nodes":3,"input_gb":0.25,"jobs":2,"repetitions":2})",
      R"({"id":"a2","nodes":2,"input_gb":0.5,"repetitions":2,)"
      R"("profile":"terasort"})",
      R"({"id":"a3","nodes":2,"input_gb":0.25,"scheduler":"tetris",)"
      R"("repetitions":2})",
      R"({"id":"a4","nodes":4,"input_gb":0.25,"jobs":2,"repetitions":2,)"
      R"("cluster":"1x65536MBx12c+1x16384MBx4c"})",
      R"({"id":"a5","nodes":2,"input_gb":0.25,"model_only":true})",
      R"({"id":"a6","nodes":2,"input_gb":0.25,"repetitions":2,)"
      R"("reducers":4})",
      R"({"id":"a7","nodes":3,"input_gb":0.5,"repetitions":2,)"
      R"("profile":"grep","seed":777})",
  };
}

/// Offline oracle: evaluates the same requests through a local
/// SweepRunner and renders the byte-exact expected responses.
bool OfflineExpectedResponses(const std::vector<std::string>& lines,
                              std::vector<std::string>* expected) {
  const ExperimentOptions base = DefaultExperimentOptions();
  std::vector<SweepRunner::Task> tasks;
  std::vector<std::optional<std::string>> ids;
  for (const std::string& line : lines) {
    Result<ServeRequest> parsed = ParseServeRequest(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "offline parse of '%s' failed: %s\n",
                   line.c_str(), parsed.status().ToString().c_str());
      return false;
    }
    tasks.push_back(TaskForRequest(parsed->predict, base));
    ids.push_back(parsed->id);
  }
  SweepOptions sweep;
  sweep.experiment = base;
  SweepRunner runner(sweep);
  const SweepReport report = runner.RunTasks(tasks);
  if (!report.all_ok()) {
    std::fprintf(stderr, "offline evaluation failed: %s\n",
                 report.first_error().ToString().c_str());
    return false;
  }
  expected->clear();
  for (size_t i = 0; i < tasks.size(); ++i) {
    expected->push_back(MakePredictResponse(ids[i], *report.results[i]));
  }
  return true;
}

/// OK while `child` runs: a phase that needs it fails cleanly without.
Status Running(const DaemonChild& child) {
  return child.pid > 0 ? Status::OK()
                       : Status::Unavailable("predictd is not running");
}

/// Idle raw TCP connection for the C10k column: connects and parks.
class IdleConn {
 public:
  ~IdleConn() { Close(); }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

/// Extracts stats.latency_by_priority.<klass>.<key>.
double PriorityLatencyField(const std::string& response, const char* klass,
                            const char* key) {
  Result<JsonValue> parsed = ParseJson(response);
  if (!parsed.ok()) return -1.0;
  const JsonValue* stats = parsed->Find("stats");
  const JsonValue* by_priority =
      stats ? stats->Find("latency_by_priority") : nullptr;
  const JsonValue* klass_json =
      by_priority ? by_priority->Find(klass) : nullptr;
  const JsonValue* field = klass_json ? klass_json->Find(key) : nullptr;
  if (field == nullptr || !field->is_number()) return -1.0;
  return field->number_value();
}

/// Phase 5 measurement: `threads` workers each run `iters` hot-key
/// Lookups against `cache` (every key resident, so the loop is pure
/// lock + copy cost — the serving steady state). Returns wall seconds.
double HotKeyLookupSeconds(SolveCache& cache,
                           const std::vector<std::string>& keys, int threads,
                           int iters) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  const auto start = SteadyClock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&cache, &keys, iters, t] {
      // Per-thread stride over the hot set: duplicate-heavy, all hits.
      size_t at = static_cast<size_t>(t) * 31;
      for (int i = 0; i < iters; ++i) {
        at += 7;
        if (!cache.Lookup(keys[at % keys.size()])) std::abort();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Best-of-`rounds` wall time (minimum filters scheduler noise — the CI
/// runners share their cores).
double BestHotKeyLookupSeconds(SolveCache& cache,
                               const std::vector<std::string>& keys,
                               int threads, int iters, int rounds) {
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    best = std::min(best, HotKeyLookupSeconds(cache, keys, threads, iters));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  RaiseFdLimit();
  Flags args(argc, argv);
  const int threads = [&] {
    const int t = args.IntFlag("--threads", 0);
    return t > 0 ? t : 4;
  }();
  const bool smoke = args.BoolFlag("--smoke");
  const std::string predictd_path = args.StringFlag("--predictd",
                                                    "./predictd");
  const std::string json_out = args.StringFlag("--json-out");
  const int connections = std::max(1, args.IntFlag("--connections", 4));
  const int requests_per_connection =
      std::max(1, args.IntFlag("--requests", smoke ? 5 : 10));
  if (!args.Validate()) return 2;

  bench::GateTable gates;
  // Phases 1-4 share this child; each fails cleanly without it.
  DaemonChild child;
  if (SpawnPredictd(predictd_path, threads, &child)) {
    std::printf("predictd up on port %d (pid %d, %d workers)\n", child.port,
                static_cast<int>(child.pid), threads);
  }

  // ---- Phase 1: determinism gate --------------------------------------
  const std::vector<std::string> mix = ScenarioMix();
  gates.Run("determinism", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(Running(child));
    std::vector<std::string> expected;
    if (!OfflineExpectedResponses(mix, &expected)) {
      return bench::GateFailure("offline evaluation failed");
    }
    PredictClient client;
    MRPERF_RETURN_NOT_OK(client.Connect("127.0.0.1", child.port));
    for (const std::string& line : mix) client.SendLine(line);  // pipelined
    for (size_t i = 0; i < mix.size(); ++i) {
      Result<std::string> response = client.ReadLine();
      if (!response.ok() || *response != expected[i]) {
        return bench::GateFailure(
            "request %zu differs\n  sent: %s\n  got:  %s\n  want: %s", i,
            mix[i].c_str(),
            response.ok() ? response->c_str()
                          : response.status().ToString().c_str(),
            expected[i].c_str());
      }
    }
    std::printf("determinism: %zu served responses byte-identical to "
                "offline SweepRunner\n",
                mix.size());
    return Status::OK();
  });

  // ---- Phase 2: duplicate burst / coalescing gate ---------------------
  constexpr int kBurst = 32;
  // A fresh point (not in phase 1), sent under many ids.
  const auto burst_line = [](const std::string& id) {
    return R"({"id":")" + id +
           R"(","nodes":3,"input_gb":0.25,"jobs":2,"repetitions":2,)"
           R"("profile":"terasort"})";
  };
  const auto result_bytes = [](const std::string& response) {
    const size_t at = response.find("\"result\": ");
    return at == std::string::npos ? std::string() : response.substr(at);
  };
  PredictClient stats_client;
  if (child.pid > 0) stats_client.Connect("127.0.0.1", child.port);
  const auto call_stats = [&stats_client]() -> Result<std::string> {
    return stats_client.Call(R"({"kind":"stats"})");
  };
  double burst_evals = 0.0;
  double cache_hit_rate = 0.0;
  std::string burst_result;
  gates.Run("coalescing", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(Running(child));
    MRPERF_ASSIGN_OR_RETURN(const std::string before, call_stats());
    PredictClient client;
    MRPERF_RETURN_NOT_OK(client.Connect("127.0.0.1", child.port));
    for (int i = 0; i < kBurst; ++i) {
      client.SendLine(burst_line("dup" + std::to_string(i)));
    }
    for (int i = 0; i < kBurst; ++i) {
      Result<std::string> response = client.ReadLine();
      if (!response.ok() ||
          response->find("\"ok\": true") == std::string::npos) {
        return bench::GateFailure("burst response %d failed", i);
      }
      // Identical result bytes for every duplicate, whatever its id.
      const std::string result = result_bytes(*response);
      if (i == 0) {
        burst_result = result;
      } else if (result != burst_result) {
        return bench::GateFailure("burst responses diverged at %d", i);
      }
    }
    MRPERF_ASSIGN_OR_RETURN(const std::string after, call_stats());
    const double burst_requests = StatsField(after, "requests_total") -
                                  StatsField(before, "requests_total");
    burst_evals = StatsField(after, "evaluations_total") -
                  StatsField(before, "evaluations_total");
    cache_hit_rate = StatsObjectField(after, "cache", "hit_rate");
    std::printf(
        "coalescing: %d duplicate requests -> %.0f evaluations "
        "(coalesced_total %.0f, solve-cache hit rate %.3f)\n",
        kBurst, burst_evals, StatsField(after, "coalesced_total"),
        cache_hit_rate);
    if (burst_requests != kBurst || burst_evals >= kBurst ||
        burst_evals < 1.0) {
      return bench::GateFailure("%.0f requests, %.0f evaluations",
                                burst_requests, burst_evals);
    }
    if (!(cache_hit_rate > 0.0)) {
      return bench::GateFailure("solve-cache hit rate %.3f", cache_hit_rate);
    }
    return Status::OK();
  });

  // ---- Phase 2b: a resolved key repeats as a lookup -------------------
  double repeat_evals = -1.0;
  double repeat_hits = -1.0;
  gates.Run("repeat", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(Running(child));
    if (burst_result.empty()) {
      return bench::GateFailure("no burst answer to repeat");
    }
    MRPERF_ASSIGN_OR_RETURN(const std::string before, call_stats());
    PredictClient client;
    MRPERF_RETURN_NOT_OK(client.Connect("127.0.0.1", child.port));
    MRPERF_ASSIGN_OR_RETURN(const std::string response,
                            client.Call(burst_line("dup-repeat")));
    MRPERF_ASSIGN_OR_RETURN(const std::string after, call_stats());
    repeat_evals = StatsField(after, "evaluations_total") -
                   StatsField(before, "evaluations_total");
    repeat_hits = StatsObjectField(after, "response_cache", "hits") -
                  StatsObjectField(before, "response_cache", "hits");
    std::printf("repeat: the burst key once more -> %.0f evaluations, %.0f "
                "response-cache hits\n",
                repeat_evals, repeat_hits);
    if (result_bytes(response) != burst_result) {
      return bench::GateFailure("repeat answer differs from the burst's: %s",
                                response.c_str());
    }
    if (repeat_evals != 0.0 || repeat_hits != 1.0) {
      return bench::GateFailure(
          "%.0f evaluations and %.0f response-cache hits (want 0 and 1)",
          repeat_evals, repeat_hits);
    }
    return Status::OK();
  });

  // ---- Phase 3: closed-loop load + malformed-line check ---------------
  // The mix was answered in phase 1, so this load is served from the
  // response cache: it measures the lookup path end to end.
  std::vector<double> latencies_ms;
  double wall_seconds = 0.0;
  const size_t load_total = static_cast<size_t>(connections) *
                            static_cast<size_t>(requests_per_connection);
  gates.Run("load", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(Running(child));
    std::vector<std::thread> clients;
    std::vector<std::vector<double>> per_client(
        static_cast<size_t>(connections));
    const auto start = SteadyClock::now();
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        PredictClient client;
        if (!client.Connect("127.0.0.1", child.port).ok()) return;
        for (int r = 0; r < requests_per_connection; ++r) {
          const std::string& line =
              mix[static_cast<size_t>(c + r) % mix.size()];
          const auto t0 = SteadyClock::now();
          Result<std::string> response = client.Call(line);
          if (!response.ok()) return;
          per_client[static_cast<size_t>(c)].push_back(
              std::chrono::duration<double, std::milli>(
                  SteadyClock::now() - t0)
                  .count());
        }
      });
    }
    for (auto& t : clients) t.join();
    wall_seconds =
        std::chrono::duration<double>(SteadyClock::now() - start).count();
    for (const auto& v : per_client) {
      latencies_ms.insert(latencies_ms.end(), v.begin(), v.end());
    }
    if (latencies_ms.size() != load_total) {
      return bench::GateFailure("%zu/%zu responses", latencies_ms.size(),
                                load_total);
    }
    std::printf(
        "load: %zu requests over %d connections in %.2fs -> %.1f req/s, "
        "latency p50/p95/p99 = %.1f/%.1f/%.1f ms\n",
        load_total, connections, wall_seconds,
        wall_seconds > 0 ? static_cast<double>(load_total) / wall_seconds
                         : 0.0,
        Percentile(latencies_ms, 50).ValueOr(0),
        Percentile(latencies_ms, 95).ValueOr(0),
        Percentile(latencies_ms, 99).ValueOr(0));

    // Malformed lines are answered, not disconnected.
    PredictClient client;
    MRPERF_RETURN_NOT_OK(client.Connect("127.0.0.1", child.port));
    Result<std::string> garbage = client.Call("this is not json");
    if (!garbage.ok() ||
        garbage->find("\"code\": \"parse_error\"") == std::string::npos) {
      return bench::GateFailure("malformed line not answered parse_error");
    }
    Result<std::string> still_alive = client.Call(mix[0]);
    if (!still_alive.ok() ||
        still_alive->find("\"ok\": true") == std::string::npos) {
      return bench::GateFailure("connection did not survive a malformed "
                                "line");
    }
    return Status::OK();
  });
  const double p50 = Percentile(latencies_ms, 50).ValueOr(0);
  const double p95 = Percentile(latencies_ms, 95).ValueOr(0);
  const double p99 = Percentile(latencies_ms, 99).ValueOr(0);
  const double throughput =
      wall_seconds > 0 ? static_cast<double>(load_total) / wall_seconds : 0;

  // ---- Phase 4: SIGTERM drain gate ------------------------------------
  constexpr int kDrainRequests = 8;
  gates.Run("drain", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(Running(child));
    MRPERF_ASSIGN_OR_RETURN(const std::string before, call_stats());
    const double admitted_before = StatsField(before, "requests_total");
    PredictClient client;
    MRPERF_RETURN_NOT_OK(client.Connect("127.0.0.1", child.port));
    for (int i = 0; i < kDrainRequests; ++i) {
      // Fresh points the cache has not seen, so the drain has real work.
      client.SendLine(R"({"id":"d)" + std::to_string(i) +
                      R"(","nodes":)" + std::to_string(5 + i % 4) +
                      R"(,"input_gb":0.25,"jobs":3,"repetitions":2,)"
                      R"("profile":"inverted-index"})");
    }
    // Wait until all are admitted (visible in requests_total), then pull
    // the plug: the drain must still answer every one of them.
    for (int spin = 0;; ++spin) {
      MRPERF_ASSIGN_OR_RETURN(const std::string now, call_stats());
      if (StatsField(now, "requests_total") - admitted_before >=
          kDrainRequests) {
        break;
      }
      if (spin > 2000) return bench::GateFailure("requests never admitted");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    kill(child.pid, SIGTERM);
    for (int i = 0; i < kDrainRequests; ++i) {
      Result<std::string> response = client.ReadLine();
      if (!response.ok() ||
          response->find("\"ok\": true") == std::string::npos) {
        return bench::GateFailure(
            "response %d missing after SIGTERM (%s)", i,
            response.ok() ? response->c_str()
                          : response.status().ToString().c_str());
      }
    }
    // After the drain the server closes the session.
    Result<std::string> eof = client.ReadLine();
    if (eof.ok()) {
      return bench::GateFailure("expected EOF after drain, got: %s",
                                eof->c_str());
    }
    int wait_status = 0;
    const bool reaped = waitpid(child.pid, &wait_status, 0) == child.pid;
    child.pid = -1;
    if (!reaped || !WIFEXITED(wait_status) ||
        WEXITSTATUS(wait_status) != 0) {
      return bench::GateFailure("predictd did not exit cleanly (status %d)",
                                wait_status);
    }
    std::printf("drain: %d admitted requests answered after SIGTERM, "
                "clean exit\n",
                kDrainRequests);
    return Status::OK();
  });
  child.Kill();

  // ---- Phase 5: shard spread (in-process) -----------------------------
  // The single-mutex vs 16-shard timings are report-only: a wall-clock
  // comparison flips on a loaded runner. The gate checks the mechanism
  // itself from the per-shard counters: the hot keys spread over more
  // than one shard, and every lookup landed in some shard as a hit.
  constexpr int kContentionThreads = 8;
  constexpr int kContentionRounds = 3;
  const int contention_iters = smoke ? 50000 : 200000;
  double single_ms = 0.0;
  double sharded_ms = 0.0;
  int shards_hit = 0;
  gates.Run("shard spread", [&]() -> Status {
    // A hot working set standing in for the serving steady state: every
    // lookup hits, so the measured cost is the shard lock plus the
    // solution copy taken under it. Both caches hold identical entries.
    OverlapMvaSolution payload;
    payload.residence.assign(4, std::vector<double>(4, 0.125));
    payload.response.assign(4, 0.5);
    payload.iterations = 3;
    std::vector<std::string> keys;
    for (int i = 0; i < 64; ++i) {
      keys.push_back("contention-hot-key-" + std::to_string(i));
    }
    SolveCache single_cache(/*shards=*/1, /*max_entries=*/4096);
    SolveCache sharded_cache(/*shards=*/16, /*max_entries=*/4096);
    for (const std::string& key : keys) {
      single_cache.Insert(key, payload);
      sharded_cache.Insert(key, payload);
    }
    single_ms = 1e3 * BestHotKeyLookupSeconds(single_cache, keys,
                                              kContentionThreads,
                                              contention_iters,
                                              kContentionRounds);
    sharded_ms = 1e3 * BestHotKeyLookupSeconds(sharded_cache, keys,
                                               kContentionThreads,
                                               contention_iters,
                                               kContentionRounds);
    int64_t shard_hits = 0;
    for (int i = 0; i < sharded_cache.shard_count(); ++i) {
      const int64_t hits = sharded_cache.shard_stats(i).hits;
      shard_hits += hits;
      if (hits > 0) ++shards_hit;
    }
    const int64_t lookups = int64_t{kContentionThreads} * contention_iters *
                            kContentionRounds;
    std::printf(
        "shard spread: %d threads x %d hot lookups over %d of %d shards; "
        "single-mutex %.1f ms, sharded %.1f ms (%.2fx, report only)\n",
        kContentionThreads, contention_iters, shards_hit,
        sharded_cache.shard_count(), single_ms, sharded_ms,
        sharded_ms > 0 ? single_ms / sharded_ms : 0.0);
    if (shards_hit < 2) {
      return bench::GateFailure("hot keys hit %d shard(s); sharding did not "
                                "spread them",
                                shards_hit);
    }
    if (shard_hits != lookups) {
      return bench::GateFailure("per-shard hits sum to %lld of %lld lookups",
                                static_cast<long long>(shard_hits),
                                static_cast<long long>(lookups));
    }
    return Status::OK();
  });

  // ---- Phases 6-8: C10k transport, QoS, metrics (fresh child) ---------
  constexpr int kIdleConnections = 1000;
  constexpr int kActiveClients = 64;
  constexpr int kDeadlineRequests = 6;
  const int active_requests = smoke ? 8 : 16;
  const size_t c10k_total = static_cast<size_t>(kActiveClients) *
                            static_cast<size_t>(active_requests);
  double c10k_wall = 0.0;
  double c10k_rps = 0.0;
  double bulk_p99 = 0.0;
  double interactive_p99 = 0.0;
  int bulk_outstanding = 0;
  int deadline_hits = 0;
  bool metrics_valid = false;

  DaemonChild qos_child;
  // One worker + a deliberately small batch: queue wait dominates, so
  // priority ordering and deadline expiry are visible in latency.
  SpawnPredictd(predictd_path, /*threads=*/1, &qos_child, {"--batch=2"});
  PredictClient qos_stats;
  if (qos_child.pid > 0) qos_stats.Connect("127.0.0.1", qos_child.port);
  const auto call_qos_stats = [&qos_stats]() -> Result<std::string> {
    return qos_stats.Call(R"({"kind":"stats"})");
  };

  // ---- Phase 6: >= 1k idle + 64 active pipelined clients --------------
  std::vector<IdleConn> idle(kIdleConnections);
  gates.Run("c10k", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(Running(qos_child));
    int idle_up = 0;
    for (int i = 0; i < kIdleConnections; ++i) {
      if (!idle[static_cast<size_t>(i)].Connect(qos_child.port)) break;
      ++idle_up;
    }
    if (idle_up != kIdleConnections) {
      return bench::GateFailure("only %d/%d idle connections", idle_up,
                                kIdleConnections);
    }
    std::vector<int> active_ok(kActiveClients, 0);
    {
      std::vector<std::thread> actives;
      const auto start = SteadyClock::now();
      for (int c = 0; c < kActiveClients; ++c) {
        actives.emplace_back([&, c] {
          PredictClient client;
          if (!client.Connect("127.0.0.1", qos_child.port).ok()) return;
          for (int i = 0; i < active_requests; ++i) {
            const std::string id =
                "k" + std::to_string(c) + "-" + std::to_string(i);
            if (!client
                     .SendLine(R"({"id":")" + id + R"(","nodes":)" +
                               std::to_string(2 + i % 5) +
                               R"(,"input_gb":0.25,"model_only":true})")
                     .ok()) {
              return;
            }
          }
          for (int i = 0; i < active_requests; ++i) {
            Result<std::string> response = client.ReadLine();
            if (!response.ok()) return;
            const std::string want =
                "\"k" + std::to_string(c) + "-" + std::to_string(i) + "\"";
            if (response->find(want) == std::string::npos ||
                response->find("\"ok\": true") == std::string::npos) {
              return;  // out of order or failed: active_ok stays short
            }
            ++active_ok[static_cast<size_t>(c)];
          }
        });
      }
      for (std::thread& t : actives) t.join();
      c10k_wall = std::chrono::duration<double>(SteadyClock::now() - start)
                      .count();
    }
    for (int c = 0; c < kActiveClients; ++c) {
      if (active_ok[static_cast<size_t>(c)] != active_requests) {
        return bench::GateFailure("client %d got %d/%d ordered responses", c,
                                  active_ok[static_cast<size_t>(c)],
                                  active_requests);
      }
    }
    c10k_rps = c10k_wall > 0
                   ? static_cast<double>(c10k_total) / c10k_wall
                   : 0.0;
    MRPERF_ASSIGN_OR_RETURN(const std::string c10k_stats, call_qos_stats());
    const double live_connections = StatsField(c10k_stats, "connections");
    const double loop_threads = StatsField(c10k_stats, "event_loop_threads");
    std::printf(
        "c10k: %d idle + %d active clients, %zu pipelined requests in "
        "%.2fs -> %.0f req/s on %.0f event-loop threads (%.0f live "
        "connections)\n",
        kIdleConnections, kActiveClients, c10k_total, c10k_wall, c10k_rps,
        loop_threads, live_connections);
    if (live_connections < kIdleConnections || loop_threads != 2.0) {
      return bench::GateFailure(
          "%.0f connections on %.0f loop threads (want >= %d on a fixed "
          "budget of 2)",
          live_connections, loop_threads, kIdleConnections);
    }
    return Status::OK();
  });

  // ---- Phase 7a: interactive answers overtake queued bulk work --------
  // The p99s are report-only: a wall-clock comparison flips on a loaded
  // runner. The gate reads arrival order instead. Without priority the
  // interactive requests queue behind every bulk request admitted
  // before them, so the last interactive answer comes after the bulk
  // backlog drained.
  gates.Run("qos priority", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(Running(qos_child));
    constexpr int kBulkClients = 4;
    constexpr int kBulkPerClient = 12;
    constexpr int kBulkTotal = kBulkClients * kBulkPerClient;
    constexpr int kInteractive = 8;
    std::atomic<int> bulk_read{0};
    std::vector<std::thread> bulk_clients;
    std::vector<int> bulk_ok(kBulkClients, 0);
    for (int c = 0; c < kBulkClients; ++c) {
      bulk_clients.emplace_back([&, c] {
        PredictClient client;
        if (!client.Connect("127.0.0.1", qos_child.port).ok()) return;
        for (int i = 0; i < kBulkPerClient; ++i) {
          // Distinct seeds: no coalescing or cached answers, every
          // request a real evaluation competing for the single worker.
          client.SendLine(
              R"({"id":"qb)" + std::to_string(c) + "-" + std::to_string(i) +
              R"(","nodes":3,"input_gb":0.5,"jobs":2,"repetitions":2,)"
              R"("seed":)" + std::to_string(1000 + c * 100 + i) + "}");
        }
        for (int i = 0; i < kBulkPerClient; ++i) {
          Result<std::string> response = client.ReadLine();
          if (!response.ok()) return;
          bulk_read.fetch_add(1);
          if (response->find("\"ok\": true") == std::string::npos) return;
          ++bulk_ok[static_cast<size_t>(c)];
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    int interactive_ok = 0;
    PredictClient interactive_client;
    if (interactive_client.Connect("127.0.0.1", qos_child.port).ok()) {
      for (int i = 0; i < kInteractive; ++i) {
        Result<std::string> response = interactive_client.Call(
            R"({"id":"qi)" + std::to_string(i) +
            R"(","nodes":3,"input_gb":0.5,"jobs":2,"repetitions":2,)"
            R"("seed":)" + std::to_string(9000 + i) +
            R"(,"priority":"interactive"})");
        if (response.ok() &&
            response->find("\"ok\": true") != std::string::npos) {
          ++interactive_ok;
        }
      }
      bulk_outstanding = kBulkTotal - bulk_read.load();
    }
    for (std::thread& t : bulk_clients) t.join();
    int bulk_answered = 0;
    for (int ok_count : bulk_ok) bulk_answered += ok_count;
    if (bulk_answered != kBulkTotal || interactive_ok != kInteractive) {
      return bench::GateFailure("%d/%d bulk, %d/%d interactive responses",
                                bulk_answered, kBulkTotal, interactive_ok,
                                kInteractive);
    }
    MRPERF_ASSIGN_OR_RETURN(const std::string snapshot, call_qos_stats());
    bulk_p99 = PriorityLatencyField(snapshot, "bulk", "p99");
    interactive_p99 = PriorityLatencyField(snapshot, "interactive", "p99");
    std::printf(
        "qos: saturated single worker -> last interactive answer with "
        "%d/%d bulk answers outstanding; bulk p99 %.1f ms, interactive "
        "p99 %.1f ms (report only)\n",
        bulk_outstanding, kBulkTotal, bulk_p99, interactive_p99);
    if (bulk_outstanding <= 0) {
      return bench::GateFailure(
          "every bulk answer arrived before the last interactive one");
    }
    return Status::OK();
  });

  // ---- Phase 7b: tiny deadlines behind a parked backlog ---------------
  gates.Run("deadline", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(Running(qos_child));
    MRPERF_ASSIGN_OR_RETURN(const std::string before, call_qos_stats());
    const double admitted_before = StatsField(before, "requests_total");
    constexpr int kBacklog = 16;
    PredictClient backlog;
    MRPERF_RETURN_NOT_OK(backlog.Connect("127.0.0.1", qos_child.port));
    for (int i = 0; i < kBacklog; ++i) {
      backlog.SendLine(
          R"({"id":"bk)" + std::to_string(i) +
          R"(","nodes":3,"input_gb":0.5,"jobs":2,"repetitions":2,)"
          R"("seed":)" + std::to_string(5000 + i) + "}");
    }
    // Wait until the backlog is admitted so the deadline requests are
    // deterministically queued behind real work.
    for (int spin = 0;; ++spin) {
      MRPERF_ASSIGN_OR_RETURN(const std::string now, call_qos_stats());
      if (StatsField(now, "requests_total") - admitted_before >= kBacklog) {
        break;
      }
      if (spin > 2000) return bench::GateFailure("backlog never admitted");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    PredictClient deadline_client;
    MRPERF_RETURN_NOT_OK(
        deadline_client.Connect("127.0.0.1", qos_child.port));
    for (int i = 0; i < kDeadlineRequests; ++i) {
      // Keys no earlier phase answered (their own seeds): a cached
      // answer is served without queueing and could never expire.
      deadline_client.SendLine(R"({"id":"dl)" + std::to_string(i) +
                               R"(","nodes":)" + std::to_string(2 + i) +
                               R"(,"input_gb":0.25,"model_only":true,)"
                               R"("seed":)" + std::to_string(6000 + i) +
                               R"(,"deadline_ms":1})");
    }
    for (int i = 0; i < kDeadlineRequests; ++i) {
      Result<std::string> response = deadline_client.ReadLine();
      if (!response.ok()) {
        return bench::GateFailure("response %d dropped (%s)", i,
                                  response.status().ToString().c_str());
      }
      if (response->find("deadline_exceeded") != std::string::npos) {
        ++deadline_hits;
      } else if (response->find("\"ok\": true") == std::string::npos) {
        return bench::GateFailure("response %d neither served nor "
                                  "expired: %s",
                                  i, response->c_str());
      }
    }
    for (int i = 0; i < kBacklog; ++i) {
      Result<std::string> response = backlog.ReadLine();
      if (!response.ok() ||
          response->find("\"ok\": true") == std::string::npos) {
        return bench::GateFailure("backlog response %d lost", i);
      }
    }
    MRPERF_ASSIGN_OR_RETURN(const std::string after, call_qos_stats());
    const double expired_total = StatsField(after, "deadline_exceeded_total");
    std::printf(
        "deadline: %d/%d answered with deadline_exceeded behind a "
        "%d-deep backlog (stats counter %.0f)\n",
        deadline_hits, kDeadlineRequests, kBacklog, expired_total);
    if (deadline_hits < 1 ||
        expired_total != static_cast<double>(deadline_hits)) {
      return bench::GateFailure("%d expirations observed but stats report "
                                "%.0f",
                                deadline_hits, expired_total);
    }
    return Status::OK();
  });

  // ---- Phase 8: /metrics parses as Prometheus text exposition ---------
  gates.Run("metrics", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(Running(qos_child));
    std::string status_line;
    std::string body;
    if (!HttpGet(qos_child.port, "/metrics", &status_line, &body) ||
        status_line.find("200") == std::string::npos) {
      return bench::GateFailure("GET /metrics -> '%s'", status_line.c_str());
    }
    const Status valid = ValidatePrometheusText(body);
    if (!valid.ok()) {
      return bench::GateFailure("%s\n%s", valid.ToString().c_str(),
                                body.c_str());
    }
    for (const char* needle :
         {"# TYPE predictd_request_latency_milliseconds histogram",
          "priority=\"interactive\"", "predictd_deadline_exceeded_total",
          "predictd_connections", "predictd_response_cache_lookups_total"}) {
      if (body.find(needle) == std::string::npos) {
        return bench::GateFailure("missing '%s'", needle);
      }
    }
    metrics_valid = true;
    std::printf("metrics: %zu bytes of valid Prometheus exposition\n",
                body.size());
    return Status::OK();
  });

  // SIGTERM with the thousand idle connections still parked: the drain
  // must still terminate promptly and exit 0.
  gates.Run("c10k drain", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(Running(qos_child));
    if (!StopChildGracefully(&qos_child)) {
      return bench::GateFailure("predictd did not exit 0 with %d "
                                "connections parked",
                                kIdleConnections);
    }
    return Status::OK();
  });

  // ---- Persist the perf trajectory ------------------------------------
  if (!json_out.empty()) {
    std::string out = "{\"requests\": " + std::to_string(load_total) +
                      ", \"connections\": " + std::to_string(connections) +
                      ", \"threads\": " + std::to_string(threads) +
                      ", \"wall_seconds\": ";
    AppendJsonDouble(out, wall_seconds);
    out += ", \"throughput_rps\": ";
    AppendJsonDouble(out, throughput);
    out += ", \"latency_ms\": {\"p50\": ";
    AppendJsonDouble(out, p50);
    out += ", \"p95\": ";
    AppendJsonDouble(out, p95);
    out += ", \"p99\": ";
    AppendJsonDouble(out, p99);
    out += "}, \"burst\": {\"requests\": " + std::to_string(kBurst) +
           ", \"evaluations\": ";
    AppendJsonDouble(out, burst_evals);
    out += ", \"cache_hit_rate\": ";
    AppendJsonDouble(out, cache_hit_rate);
    out += ", \"repeat_evaluations\": ";
    AppendJsonDouble(out, repeat_evals);
    out += ", \"repeat_response_cache_hits\": ";
    AppendJsonDouble(out, repeat_hits);
    out += "}, \"contention\": {\"threads\": " +
           std::to_string(kContentionThreads) + ", \"single_ms\": ";
    AppendJsonDouble(out, single_ms);
    out += ", \"sharded_ms\": ";
    AppendJsonDouble(out, sharded_ms);
    out += ", \"speedup\": ";
    AppendJsonDouble(out, sharded_ms > 0 ? single_ms / sharded_ms : 0.0);
    out += ", \"shards_hit\": " + std::to_string(shards_hit);
    out += "}, \"c10k\": {\"idle_connections\": " +
           std::to_string(kIdleConnections) +
           ", \"active_clients\": " + std::to_string(kActiveClients) +
           ", \"requests\": " + std::to_string(c10k_total) +
           ", \"wall_seconds\": ";
    AppendJsonDouble(out, c10k_wall);
    out += ", \"throughput_rps\": ";
    AppendJsonDouble(out, c10k_rps);
    out += "}, \"qos\": {\"bulk_p99_ms\": ";
    AppendJsonDouble(out, bulk_p99);
    out += ", \"interactive_p99_ms\": ";
    AppendJsonDouble(out, interactive_p99);
    out += ", \"bulk_outstanding\": " + std::to_string(bulk_outstanding);
    out += ", \"deadline_requests\": " + std::to_string(kDeadlineRequests) +
           ", \"deadline_exceeded\": " + std::to_string(deadline_hits) +
           ", \"metrics_valid\": ";
    out += metrics_valid ? "true" : "false";
    out += "}}\n";
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_out.c_str());
  }
  return gates.PrintSummary("bench_serve_load") ? 0 : 1;
}
