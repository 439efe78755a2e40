/// End-to-end FleetRouter tests against in-process PredictServer
/// replicas: clients speak to the router exactly as they would to a
/// single predictd and must not be able to tell the difference —
/// byte-identical responses, QoS ordering, structured errors — except
/// that replica death re-routes instead of failing.

#include "fleet/router.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fleet/scatter.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/server.h"

namespace mrperf {
namespace {

PredictServerOptions FastReplicaOptions() {
  PredictServerOptions options;
  options.port = 0;
  options.service.num_threads = 2;
  return options;
}

FleetRouterOptions RouterOver(const std::vector<int>& ports) {
  FleetRouterOptions options;
  options.start_probing = false;  // tests drive health via transport
  for (const int port : ports) {
    options.replicas.push_back({"127.0.0.1", port});
  }
  return options;
}

std::string PredictLine(const std::string& id, int nodes,
                        const std::string& extra = "") {
  std::string line = "{\"id\": \"" + id +
                     "\", \"nodes\": " + std::to_string(nodes) +
                     ", \"input_gb\": 0.25, \"repetitions\": 1";
  if (!extra.empty()) line += ", " + extra;
  line += "}";
  return line;
}

std::string Call(PredictClient& client, const std::string& line) {
  Result<std::string> response = client.Call(line);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? response.ValueOrDie() : std::string();
}

/// Blocks the replica's dispatcher inside dispatch_hook until opened,
/// so tests can pile requests up behind a held batch (the same
/// technique as the service-level QoS tests).
class DispatchGate {
 public:
  void OnDispatch() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  void WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n] { return entered_ >= n; });
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

TEST(FleetRouterTest, StartRequiresReplicas) {
  FleetRouter router(FleetRouterOptions{});
  const Status started = router.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_TRUE(started.IsInvalidArgument());
}

TEST(FleetRouterTest, ForwardsPredictAndErrorsByteIdentically) {
  std::vector<std::unique_ptr<PredictServer>> replicas;
  std::vector<int> ports;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<PredictServer>(FastReplicaOptions()));
    ASSERT_TRUE(replicas.back()->Start().ok());
    ports.push_back(replicas.back()->port());
  }
  FleetRouter router(RouterOver(ports));
  ASSERT_TRUE(router.Start().ok());

  PredictClient via_router;
  ASSERT_TRUE(via_router.Connect("127.0.0.1", router.port()).ok());
  PredictClient direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", ports[0]).ok());

  // Same line, same bytes: evaluation is deterministic and the router
  // forwards the request verbatim, so it does not matter that the
  // router may pick a different replica than `direct` talks to.
  const std::string line = PredictLine("byte-id", 4);
  EXPECT_EQ(Call(via_router, line), Call(direct, line));

  // Malformed lines are forwarded too: the error response is the
  // replica's own bytes, not a router re-implementation.
  const std::string bad = "{\"id\": \"oops\", \"nodes\": \"many\"}";
  EXPECT_EQ(Call(via_router, bad), Call(direct, bad));
  const std::string garbage = "not json at all";
  EXPECT_EQ(Call(via_router, garbage), Call(direct, garbage));

  // {"kind": "stats"} is answered by the router itself.
  const std::string stats = Call(via_router, "{\"kind\": \"stats\"}");
  EXPECT_NE(stats.find("\"router\": true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"replica_count\": 3"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"replicas\": ["), std::string::npos) << stats;

  router.DrainAndStop();
  for (auto& replica : replicas) replica->DrainAndStop();
}

TEST(FleetRouterTest, DuplicateKeysLandOnOneReplica) {
  std::vector<std::unique_ptr<PredictServer>> replicas;
  std::vector<int> ports;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<PredictServer>(FastReplicaOptions()));
    ASSERT_TRUE(replicas.back()->Start().ok());
    ports.push_back(replicas.back()->port());
  }
  FleetRouter router(RouterOver(ports));
  ASSERT_TRUE(router.Start().ok());

  PredictClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()).ok());

  // Eight requests sharing one canonical key (ids differ — the id is
  // not part of the key) must all land on the ring owner, where the
  // replica's own coalescing and solve cache can deduplicate them.
  for (int i = 0; i < 8; ++i) {
    Call(client, PredictLine("dup-" + std::to_string(i), 4));
  }
  int replicas_hit = 0;
  for (auto& replica : replicas) {
    const int64_t requests = replica->service().Stats().requests_total;
    if (requests > 0) {
      ++replicas_hit;
      EXPECT_EQ(requests, 8);
    }
  }
  EXPECT_EQ(replicas_hit, 1);

  // Distinct keys spread: with 64 virtual nodes, twenty different
  // grids cannot all pile onto a single replica.
  for (int nodes = 1; nodes <= 20; ++nodes) {
    Call(client, PredictLine("spread", nodes));
  }
  int replicas_busy = 0;
  for (auto& replica : replicas) {
    if (replica->service().Stats().requests_total > 0) ++replicas_busy;
  }
  EXPECT_GE(replicas_busy, 2);

  router.DrainAndStop();
  for (auto& replica : replicas) replica->DrainAndStop();
}

TEST(FleetRouterTest, SweepMatchesPointByPointEvaluation) {
  std::vector<std::unique_ptr<PredictServer>> replicas;
  std::vector<int> ports;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<PredictServer>(FastReplicaOptions()));
    ASSERT_TRUE(replicas.back()->Start().ok());
    ports.push_back(replicas.back()->port());
  }
  FleetRouter router(RouterOver(ports));
  ASSERT_TRUE(router.Start().ok());

  const std::string sweep =
      R"({"kind": "sweep", "id": "s1", "nodes": [2, 4, 6],)"
      R"( "reducers": [1, 2], "repetitions": 1})";

  // Build the expected response by evaluating the expanded points
  // one-by-one against a single replica: the scatter-gathered sweep
  // must be byte-identical to the unsplit evaluation.
  Result<JsonValue> parsed = ParseJson(sweep);
  ASSERT_TRUE(parsed.ok());
  Result<SweepExpansion> expanded = ExpandSweepRequest(parsed.ValueOrDie());
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  PredictClient direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", ports[0]).ok());
  std::vector<std::string> results;
  for (const std::string& point : expanded.ValueOrDie().point_lines) {
    const PointOutcome outcome = ClassifyPointResponse(Call(direct, point));
    ASSERT_TRUE(outcome.ok) << outcome.error_message;
    results.push_back(outcome.result_object);
  }
  const std::string expected =
      MakeSweepResponse(std::string("s1"), results);

  PredictClient via_router;
  ASSERT_TRUE(via_router.Connect("127.0.0.1", router.port()).ok());
  EXPECT_EQ(Call(via_router, sweep), expected);

  // A malformed grid is rejected by the router with a structured
  // error, id echoed, without touching any replica.
  const std::string rejected =
      Call(via_router, R"({"kind": "sweep", "id": "bad", "nodes": []})");
  EXPECT_NE(rejected.find("\"id\": \"bad\""), std::string::npos) << rejected;
  EXPECT_NE(rejected.find("\"ok\": false"), std::string::npos) << rejected;

  router.DrainAndStop();
  for (auto& replica : replicas) replica->DrainAndStop();
}

TEST(FleetRouterTest, SweepPointsLandWhereTheirStandalonePredictsLand) {
  std::vector<std::unique_ptr<PredictServer>> replicas;
  std::vector<int> ports;
  for (int i = 0; i < 2; ++i) {
    replicas.push_back(std::make_unique<PredictServer>(FastReplicaOptions()));
    ASSERT_TRUE(replicas.back()->Start().ok());
    ports.push_back(replicas.back()->port());
  }
  FleetRouter router(RouterOver(ports));
  ASSERT_TRUE(router.Start().ok());
  const auto evaluations = [&replicas] {
    int64_t total = 0;
    for (const auto& replica : replicas) {
      total += replica->service().Stats().evaluations_total;
    }
    return total;
  };

  // 64 model-only points: 32 cluster sizes x 2 input sizes.
  std::string sweep = R"({"kind": "sweep", "nodes": [2)";
  for (int nodes = 3; nodes < 34; ++nodes) {
    sweep += ", " + std::to_string(nodes);
  }
  sweep += R"(], "input_gb": [0.25, 0.5], "model_only": true})";
  Result<JsonValue> parsed = ParseJson(sweep);
  ASSERT_TRUE(parsed.ok());
  Result<SweepExpansion> expanded = ExpandSweepRequest(parsed.ValueOrDie());
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  const std::vector<std::string>& points = expanded.ValueOrDie().point_lines;
  ASSERT_EQ(points.size(), 64u);

  PredictClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()).ok());
  const std::string gathered = Call(client, sweep);
  ASSERT_NE(gathered.find("\"ok\": true"), std::string::npos) << gathered;
  const int64_t swept = evaluations();
  EXPECT_EQ(swept, 64);

  // Each point sent alone must reach the replica that answered it in
  // the sweep, which answers it again from its response cache.
  for (const std::string& point : points) {
    const std::string response = Call(client, point);
    EXPECT_NE(response.find("\"ok\": true"), std::string::npos) << response;
  }
  EXPECT_EQ(evaluations(), swept);

  router.DrainAndStop();
  for (auto& replica : replicas) replica->DrainAndStop();
}

TEST(FleetRouterTest, ReplicaDeadlineExpiryReachesTheOriginalClient) {
  // A deadline_ms that expires inside the replica's queue must come
  // back through the router as the replica's own structured
  // `deadline_exceeded` — the router forwards QoS fields verbatim and
  // never masks replica errors.
  auto gate = std::make_shared<DispatchGate>();
  PredictServerOptions options = FastReplicaOptions();
  options.service.dispatch_hook = [gate](size_t) { gate->OnDispatch(); };
  PredictServer replica(options);
  ASSERT_TRUE(replica.Start().ok());
  FleetRouter router(RouterOver({replica.port()}));
  ASSERT_TRUE(router.Start().ok());

  PredictClient holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", router.port()).ok());
  ASSERT_TRUE(holder.SendLine(PredictLine("hold", 2)).ok());
  gate->WaitEntered(1);  // the dispatcher is now blocked mid-batch

  PredictClient late;
  ASSERT_TRUE(late.Connect("127.0.0.1", router.port()).ok());
  ASSERT_TRUE(
      late.SendLine(PredictLine("late", 4, "\"deadline_ms\": 1")).ok());
  // A 1 ms deadline queued behind a blocked dispatcher is long expired
  // by the time the batch is popped.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate->Open();

  Result<std::string> response = late.ReadLine();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response.ValueOrDie().find("\"id\": \"late\""), std::string::npos)
      << response.ValueOrDie();
  EXPECT_NE(response.ValueOrDie().find("\"code\": \"deadline_exceeded\""),
            std::string::npos)
      << response.ValueOrDie();
  EXPECT_TRUE(holder.ReadLine().ok());

  router.DrainAndStop();
  replica.DrainAndStop();
}

TEST(FleetRouterTest, InteractiveOvertakesBulkEndToEnd) {
  // Three clients on separate connections: a held bulk request, a
  // queued *expensive* bulk request, then a queued interactive one.
  // The interactive request must complete first once the gate opens —
  // proof that the per-priority upstream connections keep the
  // replica's QoS dispatch order visible through the router.
  auto gate = std::make_shared<DispatchGate>();
  PredictServerOptions options = FastReplicaOptions();
  options.service.num_threads = 1;  // serialize evaluations
  options.service.max_batch = 1;    // dispatch strictly by QoS order
  options.service.dispatch_hook = [gate](size_t) { gate->OnDispatch(); };
  PredictServer replica(options);
  ASSERT_TRUE(replica.Start().ok());
  FleetRouter router(RouterOver({replica.port()}));
  ASSERT_TRUE(router.Start().ok());

  PredictClient holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", router.port()).ok());
  ASSERT_TRUE(holder.SendLine(PredictLine("hold", 2)).ok());
  gate->WaitEntered(1);

  const auto wait_queue_depth = [&replica](int64_t depth) {
    for (int i = 0; i < 500; ++i) {
      if (replica.service().Stats().queue_depth >= depth) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  };

  // The bulk request is admitted *first* and made expensive (more
  // jobs, more repetitions) so the overtake is unmistakable.
  PredictClient bulk;
  ASSERT_TRUE(bulk.Connect("127.0.0.1", router.port()).ok());
  ASSERT_TRUE(
      bulk.SendLine(PredictLine("b2", 8, "\"jobs\": 4, \"repetitions\": 5"))
          .ok());
  ASSERT_TRUE(wait_queue_depth(1));
  PredictClient interactive;
  ASSERT_TRUE(interactive.Connect("127.0.0.1", router.port()).ok());
  ASSERT_TRUE(interactive
                  .SendLine(PredictLine("i1", 6,
                                        "\"priority\": \"interactive\""))
                  .ok());
  ASSERT_TRUE(wait_queue_depth(2));

  std::mutex log_mu;
  std::vector<std::string> completion_order;
  const auto reader = [&log_mu, &completion_order](PredictClient* client,
                                                   const char* name) {
    Result<std::string> response = client->ReadLine();
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    std::lock_guard<std::mutex> lock(log_mu);
    completion_order.emplace_back(name);
  };
  std::thread bulk_reader(reader, &bulk, "b2");
  std::thread interactive_reader(reader, &interactive, "i1");
  gate->Open();
  bulk_reader.join();
  interactive_reader.join();
  EXPECT_TRUE(holder.ReadLine().ok());

  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], "i1");
  EXPECT_EQ(completion_order[1], "b2");

  router.DrainAndStop();
  replica.DrainAndStop();
}

TEST(FleetRouterTest, DeadReplicaReroutesToTheRingSuccessor) {
  std::vector<std::unique_ptr<PredictServer>> replicas;
  std::vector<int> ports;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<PredictServer>(FastReplicaOptions()));
    ASSERT_TRUE(replicas.back()->Start().ok());
    ports.push_back(replicas.back()->port());
  }
  FleetRouter router(RouterOver(ports));
  ASSERT_TRUE(router.Start().ok());

  PredictClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()).ok());

  const std::string line = PredictLine("failover", 4);
  const std::string first = Call(client, line);
  EXPECT_NE(first.find("\"ok\": true"), std::string::npos) << first;

  // The replica whose requests_total moved is the ring owner.
  size_t owner = replicas.size();
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i]->service().Stats().requests_total > 0) {
      owner = i;
      break;
    }
  }
  ASSERT_LT(owner, replicas.size());

  // Kill the owner. The retry must transparently land on the ring
  // successor and, because evaluation is deterministic, produce the
  // exact same bytes the owner produced.
  replicas[owner]->DrainAndStop();
  EXPECT_EQ(Call(client, line), first);
  EXPECT_FALSE(router.membership().IsHealthy(owner));

  int64_t survivor_requests = 0;
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (i == owner) continue;
    survivor_requests += replicas[i]->service().Stats().requests_total;
  }
  EXPECT_EQ(survivor_requests, 1);

  const std::string stats = router.StatsJson();
  EXPECT_NE(stats.find("\"rerouted_total\""), std::string::npos) << stats;

  router.DrainAndStop();
  for (auto& replica : replicas) replica->DrainAndStop();
}

TEST(FleetRouterTest, ExhaustedPreferenceOrderAnswersUnavailable) {
  // Find a port with nothing listening by binding and releasing it.
  int dead_port = 0;
  {
    PredictServer ephemeral(FastReplicaOptions());
    ASSERT_TRUE(ephemeral.Start().ok());
    dead_port = ephemeral.port();
    ephemeral.DrainAndStop();
  }
  FleetRouter router(RouterOver({dead_port}));
  ASSERT_TRUE(router.Start().ok());

  PredictClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()).ok());
  Result<std::string> response = client.Call(PredictLine("orphan", 4));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response.ValueOrDie().find("\"id\": \"orphan\""),
            std::string::npos)
      << response.ValueOrDie();
  EXPECT_NE(response.ValueOrDie().find("\"code\": \"unavailable\""),
            std::string::npos)
      << response.ValueOrDie();

  // The connection survives the structured error.
  const std::string stats = Call(client, "{\"kind\": \"stats\"}");
  EXPECT_NE(stats.find("\"unavailable_total\": 1"), std::string::npos)
      << stats;

  router.DrainAndStop();
}

}  // namespace
}  // namespace mrperf
