/// Acceptance gate and load generator for the predictd fleet: spawns
/// three real predictd children plus a predict-router child, then
/// drives the distributed contract over TCP. Every gate runs even after
/// an earlier one failed, and the run ends with one pass/fail table
/// (bench/gate_table.h):
///
///  1. **Transparency gate.** Predict requests, malformed lines and
///     stats probes through the 3-replica fleet must be byte-identical
///     to a single predictd (for predict/malformed lines) — a client
///     cannot tell the router from one daemon.
///  2. **Scatter-gather gate.** A sweep through the router must be
///     byte-identical to evaluating the expanded grid point-by-point,
///     unsplit, against one replica and merging in grid order.
///     **Sweep-repeat gate.** The same sweep sent again must be
///     answered byte-identically with zero evaluations summed over the
///     replicas' /stats: the ring sends each point to the owner that
///     already answered it, so every point is a response-cache hit.
///  3. **Coalescing gate.** A pipelined duplicate-key burst through the
///     router must land on one replica and be served with fewer
///     evaluations than requests — consistent-hash placement keeps the
///     replica's in-flight coalescing effective fleet-wide.
///  4. **Failover gate.** SIGKILL one replica while closed-loop
///     clients are mid-load: every admitted request must still get a
///     structured response (ok / unavailable / deadline_exceeded —
///     never a dropped connection), and follow-up requests for the
///     dead replica's keys must be re-routed and served.
///  5. **Observability gate.** GET /metrics on the router must parse
///     as Prometheus text and carry the predict_router_* families;
///     /stats must report the dead replica as unhealthy.
///  6. **Drain gate.** SIGTERM must exit the router (and the surviving
///     replicas) cleanly with code 0.
///
/// Flags: --predictd=PATH (default ./predictd), --router=PATH (default
/// ./predict_router), --connections=C (default 4), --requests=M per
/// connection in the failover load (default 16), --json-out=PATH,
/// --smoke (CI sizing).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/statistics.h"
#include "daemon_child.h"
#include "engine/sweep_format.h"
#include "fleet/scatter.h"
#include "gate_table.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/metrics.h"

namespace {

using namespace mrperf;
using bench::DaemonChild;
using bench::HttpGet;
using bench::SpawnChild;
using bench::StatsField;
using bench::StopChildGracefully;
using SteadyClock = std::chrono::steady_clock;

double ReplicaStat(int port, const std::string& key) {
  PredictClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return -1.0;
  Result<std::string> response = client.Call(R"({"kind":"stats"})");
  if (!response.ok()) return -1.0;
  return StatsField(*response, key);
}

std::string PredictLine(const std::string& id, int nodes, int seed) {
  return R"({"id":")" + id + R"(","nodes":)" + std::to_string(nodes) +
         R"(,"input_gb":0.25,"repetitions":1,"seed":)" +
         std::to_string(seed) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Flags args(argc, argv);
  const bool smoke = args.BoolFlag("--smoke");
  const std::string predictd_path =
      args.StringFlag("--predictd", "./predictd");
  const std::string router_path =
      args.StringFlag("--router", "./predict_router");
  const std::string json_out = args.StringFlag("--json-out");
  const int connections = std::max(1, args.IntFlag("--connections", 4));
  const int requests_per_connection =
      std::max(4, args.IntFlag("--requests", smoke ? 8 : 16));
  if (!args.Validate()) return 2;

  constexpr int kReplicas = 3;
  std::vector<DaemonChild> replicas(kReplicas);
  DaemonChild router;
  bool fleet_up = true;
  for (int i = 0; i < kReplicas && fleet_up; ++i) {
    fleet_up = SpawnChild(predictd_path,
                          {"--port=0", "--threads=2",
                           "--replica-id=r" + std::to_string(i)},
                          "predictd listening on 127.0.0.1:%d", &replicas[i]);
  }
  std::string replica_list;
  for (int i = 0; i < kReplicas; ++i) {
    if (i > 0) replica_list += ',';
    replica_list += "127.0.0.1:" + std::to_string(replicas[i].port);
  }
  fleet_up = fleet_up &&
             SpawnChild(router_path,
                        {"--port=0", "--replicas=" + replica_list,
                         "--probe-interval-ms=50", "--failure-threshold=2"},
                        "predict-router listening on 127.0.0.1:%d", &router);
  if (fleet_up) {
    std::printf("fleet up: %d replicas (%s) behind router on port %d\n",
                kReplicas, replica_list.c_str(), router.port);
  }
  const auto require_fleet = [&fleet_up] {
    return fleet_up ? Status::OK()
                    : Status::Unavailable("the fleet did not start");
  };
  bench::GateTable gates;

  // ---- Gate 1: the router is transparent -------------------------------
  gates.Run("transparency", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(require_fleet());
    PredictClient via_router;
    PredictClient direct;
    MRPERF_RETURN_NOT_OK(via_router.Connect("127.0.0.1", router.port));
    MRPERF_RETURN_NOT_OK(direct.Connect("127.0.0.1", replicas[0].port));
    const std::vector<std::string> probe_lines = {
        PredictLine("t0", 2, 1234),
        PredictLine("t1", 5, 1234),
        R"({"id":"t2","nodes":3,"input_gb":0.5,"model_only":true,)"
        R"("profile":"terasort"})",
        R"({"id":"t3","nodes":"many"})",  // structured replica error
        "not json at all",                // forwarded verbatim too
    };
    for (const std::string& line : probe_lines) {
      Result<std::string> routed = via_router.Call(line);
      Result<std::string> straight = direct.Call(line);
      if (!routed.ok() || !straight.ok() || *routed != *straight) {
        return bench::GateFailure(
            "\n  sent: %s\n  router: %s\n  direct: %s", line.c_str(),
            routed.ok() ? routed->c_str() : "<transport error>",
            straight.ok() ? straight->c_str() : "<transport error>");
      }
    }
    std::printf("transparency: %zu responses byte-identical through the "
                "fleet\n",
                probe_lines.size());
    return Status::OK();
  });

  // ---- Gate 2: scatter-gather matches the unsplit evaluation -----------
  const std::string sweep =
      R"({"kind":"sweep","id":"grid","nodes":[2,3,4],"reducers":[1,2],)"
      R"("repetitions":1})";
  std::string sweep_answer;
  gates.Run("scatter-gather", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(require_fleet());
    MRPERF_ASSIGN_OR_RETURN(const JsonValue parsed, ParseJson(sweep));
    MRPERF_ASSIGN_OR_RETURN(const SweepExpansion expanded,
                            ExpandSweepRequest(parsed));
    PredictClient direct;
    MRPERF_RETURN_NOT_OK(direct.Connect("127.0.0.1", replicas[0].port));
    std::vector<std::string> results;
    for (const std::string& point : expanded.point_lines) {
      MRPERF_ASSIGN_OR_RETURN(const std::string response, direct.Call(point));
      const PointOutcome outcome = ClassifyPointResponse(response);
      if (!outcome.ok) {
        return bench::GateFailure("unsplit point failed: %s",
                                  outcome.error_message.c_str());
      }
      results.push_back(outcome.result_object);
    }
    const std::string expected =
        MakeSweepResponse(std::string("grid"), results);
    PredictClient via_router;
    MRPERF_RETURN_NOT_OK(via_router.Connect("127.0.0.1", router.port));
    Result<std::string> gathered = via_router.Call(sweep);
    if (!gathered.ok() || *gathered != expected) {
      return bench::GateFailure(
          "\n  got:  %s\n  want: %s",
          gathered.ok() ? gathered->c_str() : "<transport error>",
          expected.c_str());
    }
    sweep_answer = *gathered;
    std::printf("scatter-gather: %zu-point sweep byte-identical to the "
                "unsplit evaluation\n",
                expanded.point_lines.size());
    return Status::OK();
  });

  // ---- Gate 2b: a repeated sweep is answered without evaluating --------
  double repeat_evaluations = -1.0;
  gates.Run("sweep repeat", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(require_fleet());
    if (sweep_answer.empty()) {
      return bench::GateFailure("no sweep answer to repeat");
    }
    double evals_before = 0.0;
    for (const DaemonChild& replica : replicas) {
      evals_before += ReplicaStat(replica.port, "evaluations_total");
    }
    PredictClient via_router;
    MRPERF_RETURN_NOT_OK(via_router.Connect("127.0.0.1", router.port));
    MRPERF_ASSIGN_OR_RETURN(const std::string again, via_router.Call(sweep));
    double evals_after = 0.0;
    for (const DaemonChild& replica : replicas) {
      evals_after += ReplicaStat(replica.port, "evaluations_total");
    }
    repeat_evaluations = evals_after - evals_before;
    std::printf("sweep repeat: the same sweep again -> %.0f evaluations "
                "across the replicas\n",
                repeat_evaluations);
    if (again != sweep_answer) {
      return bench::GateFailure("\n  got:  %s\n  want: %s", again.c_str(),
                                sweep_answer.c_str());
    }
    if (repeat_evaluations != 0.0) {
      return bench::GateFailure("%.0f evaluations (want 0)",
                                repeat_evaluations);
    }
    return Status::OK();
  });

  // ---- Gate 3: duplicate keys coalesce fleet-wide ----------------------
  constexpr int kBurst = 32;
  double burst_evaluations = 0.0;
  gates.Run("coalescing", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(require_fleet());
    std::vector<double> requests_before(kReplicas);
    std::vector<double> evals_before(kReplicas);
    for (int i = 0; i < kReplicas; ++i) {
      requests_before[i] = ReplicaStat(replicas[i].port, "requests_total");
      evals_before[i] = ReplicaStat(replicas[i].port, "evaluations_total");
    }
    PredictClient client;
    MRPERF_RETURN_NOT_OK(client.Connect("127.0.0.1", router.port));
    // One fresh key (unseen seed), duplicated under distinct ids and
    // pipelined so the duplicates are in flight together.
    for (int i = 0; i < kBurst; ++i) {
      client.SendLine(PredictLine("burst" + std::to_string(i), 4, 4242));
    }
    std::string first;
    for (int i = 0; i < kBurst; ++i) {
      Result<std::string> response = client.ReadLine();
      if (!response.ok() ||
          response->find("\"ok\": true") == std::string::npos) {
        return bench::GateFailure("burst response %d failed", i);
      }
      const std::string result =
          response->substr(response->find("\"result\": "));
      if (i == 0) {
        first = result;
      } else if (result != first) {
        return bench::GateFailure("responses diverged at %d", i);
      }
    }
    int owners = 0;
    double burst_requests = 0.0;
    for (int i = 0; i < kReplicas; ++i) {
      const double delta =
          ReplicaStat(replicas[i].port, "requests_total") -
          requests_before[i];
      if (delta > 0) {
        ++owners;
        burst_requests = delta;
        burst_evaluations =
            ReplicaStat(replicas[i].port, "evaluations_total") -
            evals_before[i];
      }
    }
    std::printf(
        "coalescing: %d duplicate requests -> %d owner replica(s), %.0f "
        "evaluations\n",
        kBurst, owners, burst_evaluations);
    if (owners != 1 || burst_requests != kBurst ||
        !(burst_evaluations >= 1.0) || !(burst_evaluations < kBurst)) {
      return bench::GateFailure(
          "%d owner replicas, %.0f requests, %.0f evaluations", owners,
          burst_requests, burst_evaluations);
    }
    return Status::OK();
  });

  // ---- Gate 4: SIGKILL a replica mid-load ------------------------------
  const size_t load_total = static_cast<size_t>(connections) *
                            static_cast<size_t>(requests_per_connection);
  std::vector<double> latencies_ms;
  double wall_seconds = 0.0;
  long long killed_ok = 0;
  long long killed_structured = 0;
  long long lost = 0;
  gates.Run("failover", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(require_fleet());
    std::vector<std::vector<double>> per_client(
        static_cast<size_t>(connections));
    std::vector<long long> ok_count(static_cast<size_t>(connections), 0);
    std::vector<long long> structured_count(
        static_cast<size_t>(connections), 0);
    std::vector<long long> lost_count(static_cast<size_t>(connections), 0);
    std::vector<std::thread> clients;
    const auto start = SteadyClock::now();
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        PredictClient client;
        if (!client.Connect("127.0.0.1", router.port).ok()) {
          lost_count[static_cast<size_t>(c)] = requests_per_connection;
          return;
        }
        for (int r = 0; r < requests_per_connection; ++r) {
          // Distinct keys spread across the whole ring, so some land on
          // the replica about to die.
          const std::string id =
              "f" + std::to_string(c) + "-" + std::to_string(r);
          const auto t0 = SteadyClock::now();
          Result<std::string> response = client.Call(
              PredictLine(id, 2 + (c * requests_per_connection + r) % 12,
                          7000 + r));
          if (!response.ok()) {
            ++lost_count[static_cast<size_t>(c)];
            continue;
          }
          per_client[static_cast<size_t>(c)].push_back(
              std::chrono::duration<double, std::milli>(SteadyClock::now() -
                                                        t0)
                  .count());
          if (response->find("\"ok\": true") != std::string::npos) {
            ++ok_count[static_cast<size_t>(c)];
          } else if (response->find("\"unavailable\"") !=
                         std::string::npos ||
                     response->find("\"deadline_exceeded\"") !=
                         std::string::npos) {
            ++structured_count[static_cast<size_t>(c)];
          } else if (response->find("\"id\": \"" + id + "\"") !=
                     std::string::npos) {
            // Any other structured error still answered this request.
            ++structured_count[static_cast<size_t>(c)];
          } else {
            ++lost_count[static_cast<size_t>(c)];
          }
        }
      });
    }
    // Let the load ramp, then hard-kill a replica (no drain, no warning:
    // SIGKILL models a crashed node).
    std::this_thread::sleep_for(std::chrono::milliseconds(smoke ? 30 : 80));
    replicas[1].Kill();
    for (std::thread& t : clients) t.join();
    wall_seconds =
        std::chrono::duration<double>(SteadyClock::now() - start).count();
    for (int c = 0; c < connections; ++c) {
      killed_ok += ok_count[static_cast<size_t>(c)];
      killed_structured += structured_count[static_cast<size_t>(c)];
      lost += lost_count[static_cast<size_t>(c)];
      latencies_ms.insert(latencies_ms.end(),
                          per_client[static_cast<size_t>(c)].begin(),
                          per_client[static_cast<size_t>(c)].end());
    }
    std::printf(
        "failover: replica killed mid-load -> %lld ok, %lld structured "
        "errors, %lld lost of %zu requests\n",
        killed_ok, killed_structured, lost, load_total);
    if (lost != 0 ||
        killed_ok + killed_structured != static_cast<long long>(load_total)) {
      return bench::GateFailure("%lld responses lost (every admitted "
                                "request must be answered)",
                                lost);
    }
    // After the dust settles, the dead replica's keys must be served by
    // the survivors: sweep the same key range again, all must succeed.
    PredictClient client;
    MRPERF_RETURN_NOT_OK(client.Connect("127.0.0.1", router.port));
    for (int nodes = 2; nodes < 14; ++nodes) {
      Result<std::string> response =
          client.Call(PredictLine("post-kill", nodes, 7000));
      if (!response.ok() ||
          response->find("\"ok\": true") == std::string::npos) {
        return bench::GateFailure("nodes=%d not re-routed after the kill",
                                  nodes);
      }
    }
    return Status::OK();
  });

  // ---- Gate 5: router observability ------------------------------------
  gates.Run("observability", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(require_fleet());
    std::string status_line;
    std::string body;
    if (!HttpGet(router.port, "/metrics", &status_line, &body) ||
        status_line.find("200") == std::string::npos) {
      return bench::GateFailure("GET /metrics -> '%s'", status_line.c_str());
    }
    const Status valid = ValidatePrometheusText(body);
    if (!valid.ok()) {
      return bench::GateFailure("%s\n%s", valid.ToString().c_str(),
                                body.c_str());
    }
    for (const char* needle :
         {"predict_router_requests_total", "predict_router_rerouted_total",
          "predict_router_replica_healthy"}) {
      if (body.find(needle) == std::string::npos) {
        return bench::GateFailure("missing '%s'", needle);
      }
    }
    std::string stats_status;
    std::string stats_body;
    if (!HttpGet(router.port, "/stats", &stats_status, &stats_body) ||
        stats_body.find("\"healthy\": false") == std::string::npos) {
      return bench::GateFailure(
          "/stats does not report the killed replica unhealthy:\n%s",
          stats_body.c_str());
    }
    std::printf("observability: /metrics valid, /stats reports the dead "
                "replica\n");
    return Status::OK();
  });

  // ---- Gate 6: clean drain ---------------------------------------------
  gates.Run("drain", [&]() -> Status {
    MRPERF_RETURN_NOT_OK(require_fleet());
    if (!StopChildGracefully(&router)) {
      return bench::GateFailure("router did not exit 0");
    }
    for (int i = 0; i < kReplicas; ++i) {
      if (i == 1) continue;  // SIGKILLed in gate 4
      if (!StopChildGracefully(&replicas[i])) {
        return bench::GateFailure("replica %d did not exit 0", i);
      }
    }
    std::printf("drain: router and surviving replicas exited cleanly\n");
    return Status::OK();
  });

  if (!json_out.empty()) {
    const double p50 = Percentile(latencies_ms, 50).ValueOr(0);
    const double p99 = Percentile(latencies_ms, 99).ValueOr(0);
    const double throughput =
        wall_seconds > 0 ? static_cast<double>(load_total) / wall_seconds
                         : 0.0;
    std::string out =
        "{\"replicas\": " + std::to_string(kReplicas) +
        ", \"requests\": " + std::to_string(load_total) +
        ", \"connections\": " + std::to_string(connections) +
        ", \"wall_seconds\": ";
    AppendJsonDouble(out, wall_seconds);
    out += ", \"throughput_rps\": ";
    AppendJsonDouble(out, throughput);
    out += ", \"latency_ms\": {\"p50\": ";
    AppendJsonDouble(out, p50);
    out += ", \"p99\": ";
    AppendJsonDouble(out, p99);
    out += "}, \"burst\": {\"requests\": " + std::to_string(kBurst) +
           ", \"evaluations\": ";
    AppendJsonDouble(out, burst_evaluations);
    out += "}, \"sweep_repeat\": {\"evaluations\": ";
    AppendJsonDouble(out, repeat_evaluations);
    out += "}, \"failover\": {\"ok\": " + std::to_string(killed_ok) +
           ", \"structured_errors\": " + std::to_string(killed_structured) +
           ", \"lost\": " + std::to_string(lost) + "}}\n";
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_out.c_str());
  }
  return gates.PrintSummary("bench_fleet_load") ? 0 : 1;
}
