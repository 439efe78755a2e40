/// predict-router — the fleet router daemon.
///
/// Fronts N predictd replicas as one predictd-compatible endpoint:
/// predict lines route to a replica by consistent-hashing their
/// canonical key (duplicates keep coalescing fleet-wide), sweep
/// requests scatter across the fleet and gather back in grid order,
/// and replica failures re-route in-flight requests down the ring
/// (src/fleet/router.h has the full contract). This binary only parses
/// flags, prints the bound address, and turns SIGTERM/SIGINT into a
/// graceful drain (every admitted request is answered before exit).
///
/// Flags: --replicas=host:port,... (required), --port=N (default 0 =
/// ephemeral; the bound port is printed), --host=A (default
/// 127.0.0.1), --event-loop-threads=N, --virtual-nodes=N,
/// --probe-interval-ms=N, --probe-timeout-ms=N, --failure-threshold=N,
/// --metrics=0|1, --verbose; `--flag value` works too, and an unknown
/// flag exits 2.
///
/// Example session:
///   $ ./predictd --port=7171 & ./predictd --port=7172 &
///   $ ./predict_router --port=7077 --replicas=127.0.0.1:7171,127.0.0.1:7172
///   predict-router listening on 127.0.0.1:7077

#include <csignal>
#include <cstdio>
#include <string>

#include "common/daemon.h"
#include "common/flags.h"
#include "common/logging.h"
#include "fleet/router.h"

int main(int argc, char** argv) {
  using namespace mrperf;

  Flags flags(argc, argv);
  if (flags.BoolFlag("--help")) {
    std::printf(
        "predict-router: consistent-hash fleet router for predictd\n"
        "  --replicas=H:P,...  the fleet, in ring order (required)\n"
        "  --port=N       TCP port (default 0 = ephemeral, printed)\n"
        "  --host=A       IPv4 listen address (default 127.0.0.1)\n"
        "  --event-loop-threads=N  transport event loops (default 2);\n"
        "                    the last also runs the replica upstreams\n"
        "  --virtual-nodes=N  ring points per replica (default 64)\n"
        "  --probe-interval-ms=N   health probe cadence (default 200)\n"
        "  --probe-timeout-ms=N    per-probe timeout (default 250)\n"
        "  --failure-threshold=N   probes before dead (default 2)\n"
        "  --metrics=0|1  HTTP GET /metrics (Prometheus text) and\n"
        "                    /stats on the listen port (default 1)\n"
        "  --verbose      info-level logging\n");
    return 0;
  }
  if (flags.BoolFlag("--verbose")) Logger::SetLevel(LogLevel::kInfo);

  FleetRouterOptions options;
  options.host = flags.StringFlag("--host", options.host);
  options.port = flags.IntFlag("--port", options.port);
  options.event_loop_threads =
      flags.IntFlag("--event-loop-threads", options.event_loop_threads);
  options.virtual_nodes =
      flags.IntFlag("--virtual-nodes", options.virtual_nodes);
  options.enable_metrics =
      flags.IntFlag("--metrics", options.enable_metrics ? 1 : 0) != 0;
  options.membership.probe_interval_ms = flags.IntFlag(
      "--probe-interval-ms", options.membership.probe_interval_ms);
  options.membership.probe_timeout_ms = flags.IntFlag(
      "--probe-timeout-ms", options.membership.probe_timeout_ms);
  options.membership.failure_threshold = flags.IntFlag(
      "--failure-threshold", options.membership.failure_threshold);
  const std::string replica_spec = flags.StringFlag("--replicas");
  if (!flags.Validate()) return 2;

  if (replica_spec.empty()) {
    std::fprintf(stderr,
                 "predict-router: --replicas=host:port,... is required\n");
    return 1;
  }
  Result<std::vector<ReplicaAddress>> replicas =
      ParseReplicaList(replica_spec);
  if (!replicas.ok()) {
    std::fprintf(stderr, "predict-router: %s\n",
                 replicas.status().ToString().c_str());
    return 1;
  }
  options.replicas = std::move(replicas.ValueOrDie());

  RaiseFdLimit();
  const Status signals = InstallShutdownSignals();
  if (!signals.ok()) {
    std::fprintf(stderr, "predict-router: %s\n", signals.message().c_str());
    return 1;
  }
  // Upstream replicas may vanish mid-write; MSG_NOSIGNAL covers sends,
  // this covers the rest.
  std::signal(SIGPIPE, SIG_IGN);

  FleetRouter router(options);
  const Status started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "predict-router: %s\n", started.ToString().c_str());
    return 1;
  }
  // Machine-parseable (bench_fleet_load and the CI smoke job read it);
  // keep the format stable.
  std::printf("predict-router listening on %s:%d\n", options.host.c_str(),
              router.port());
  std::fflush(stdout);

  const int signo = WaitForShutdownSignal();
  std::fprintf(stderr, "predict-router: signal %d, draining...\n", signo);
  router.DrainAndStop();

  std::fprintf(stderr, "predict-router: final stats %s\n",
               router.StatsJson().c_str());
  return 0;
}
