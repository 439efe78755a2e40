/// predictd — the online prediction daemon.
///
/// Serves the paper's what-if model over newline-delimited JSON on TCP
/// (wire protocol: src/serve/request.h). All the serving machinery —
/// bounded admission, micro-batching onto the sweep engine's worker
/// pool, in-flight coalescing, the response cache, the shared MVA solve
/// cache — lives in src/serve/; this binary only parses flags, prints
/// the bound address, and turns SIGTERM/SIGINT into a graceful drain
/// (every admitted request is answered before exit).
///
/// Flags: --port=N (default 0 = ephemeral; the bound port is printed),
/// --host=A (default 127.0.0.1), --threads=N (0 = auto),
/// --event-loop-threads=N (transport event loops; the connection count
/// they carry is independent of this budget), --max-queue=N, --batch=N,
/// --quota-rps=N (per-client token-bucket rate limit; 0 = off),
/// --metrics=0|1 (HTTP GET /metrics and /stats on the listen port),
/// --replica-id=S, --verbose; `--flag value` works too, and an unknown
/// flag exits 2. The solve cache has one lock shard per worker, rounded
/// up to a power of two.
///
/// Example session:
///   $ ./predictd --port=7077 &
///   predictd listening on 127.0.0.1:7077
///   $ printf '%s\n' '{"kind":"predict","nodes":4,"input_gb":1.0}' |
///       nc 127.0.0.1 7077

#include <cstdio>

#include "common/daemon.h"
#include "common/flags.h"
#include "common/logging.h"
#include "serve/server.h"
#include "serve/stats.h"

int main(int argc, char** argv) {
  using namespace mrperf;

  Flags flags(argc, argv);
  if (flags.BoolFlag("--help")) {
    std::printf(
        "predictd: online MapReduce performance prediction service\n"
        "  --port=N       TCP port (default 0 = ephemeral, printed)\n"
        "  --host=A       IPv4 listen address (default 127.0.0.1)\n"
        "  --threads=N    evaluation workers (default 0 = auto)\n"
        "  --event-loop-threads=N  transport event loops (default 2);\n"
        "                    connection capacity is independent of this\n"
        "  --max-queue=N  admission queue bound (default 256)\n"
        "  --batch=N      micro-batch cap (default 32)\n"
        "  --quota-rps=N  per-client predict requests/second (token\n"
        "                    bucket per peer address; default 0 = off)\n"
        "  --metrics=0|1  HTTP GET /metrics (Prometheus text) and\n"
        "                    /stats on the listen port (default 1)\n"
        "  --replica-id=S identity label surfaced in /stats and as the\n"
        "                    predictd_replica_info metric label\n"
        "  --verbose      info-level logging\n");
    return 0;
  }
  if (flags.BoolFlag("--verbose")) Logger::SetLevel(LogLevel::kInfo);

  PredictServerOptions options;
  options.host = flags.StringFlag("--host", options.host);
  options.port = flags.IntFlag("--port", options.port);
  options.event_loop_threads =
      flags.IntFlag("--event-loop-threads", options.event_loop_threads);
  options.enable_metrics =
      flags.IntFlag("--metrics", options.enable_metrics ? 1 : 0) != 0;
  options.service.quota_rps = flags.IntFlag(
      "--quota-rps", static_cast<int>(options.service.quota_rps));
  options.service.num_threads = flags.IntFlag("--threads", 0);
  options.service.max_queue =
      flags.IntFlag("--max-queue", options.service.max_queue);
  options.service.max_batch =
      flags.IntFlag("--batch", options.service.max_batch);
  options.replica_id = flags.StringFlag("--replica-id", options.replica_id);
  if (!flags.Validate()) return 2;

  RaiseFdLimit();
  const Status signals = InstallShutdownSignals();
  if (!signals.ok()) {
    std::fprintf(stderr, "predictd: %s\n", signals.message().c_str());
    return 1;
  }

  PredictServer server(options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "predictd: %s\n", started.ToString().c_str());
    return 1;
  }
  // Machine-parseable (bench_serve_load and the CI smoke job read it);
  // keep the format stable.
  std::printf("predictd listening on %s:%d\n", options.host.c_str(),
              server.port());
  std::fflush(stdout);

  const int signo = WaitForShutdownSignal();
  std::fprintf(stderr, "predictd: signal %d, draining...\n", signo);
  server.DrainAndStop();

  const ServeStatsSnapshot stats = server.service().Stats();
  std::fprintf(stderr,
               "predictd: served %lld responses (%lld requests, %lld "
               "evaluations, %lld coalesced), response-cache hit rate "
               "%.3f, solve-cache hit rate %.3f, p50/p95/p99 latency "
               "%.1f/%.1f/%.1f ms\n",
               static_cast<long long>(stats.responses_total),
               static_cast<long long>(stats.requests_total),
               static_cast<long long>(stats.evaluations_total),
               static_cast<long long>(stats.coalesced_total),
               stats.response_cache.hit_rate(), stats.cache.hit_rate(),
               stats.latency_p50_ms, stats.latency_p95_ms,
               stats.latency_p99_ms);
  return 0;
}
