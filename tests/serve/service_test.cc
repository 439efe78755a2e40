#include "serve/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.h"
#include "serve/metrics.h"

namespace mrperf {
namespace {

/// Blocks the dispatcher inside dispatch_hook until opened, so tests
/// can deterministically pile requests up behind an in-flight batch.
class DispatchGate {
 public:
  void OnDispatch() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  /// Waits until the dispatcher has entered the hook `n` times.
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
  bool open_ = false;
  int entered_ = 0;
};

PredictServiceOptions FastServiceOptions() {
  PredictServiceOptions options;
  options.num_threads = 2;
  return options;
}

/// A small, fast, distinct request line (~tens of ms to evaluate).
std::string RequestLine(const std::string& id, int nodes, int jobs = 1) {
  return "{\"id\":\"" + id + "\",\"nodes\":" + std::to_string(nodes) +
         ",\"input_gb\":0.25,\"jobs\":" + std::to_string(jobs) +
         ",\"repetitions\":1}";
}

TEST(PredictServiceTest, ServedResponseIsByteIdenticalToOffline) {
  PredictService service(FastServiceOptions());
  const std::string line = RequestLine("r1", 2);
  const std::string served = service.Submit(line).get();

  // Offline oracle: same request through a plain SweepRunner.
  Result<ServeRequest> parsed = ParseServeRequest(line);
  ASSERT_TRUE(parsed.ok());
  SweepOptions sweep;
  sweep.experiment = DefaultExperimentOptions();
  SweepRunner runner(sweep);
  const SweepReport report = runner.RunTasks(
      {TaskForRequest(parsed->predict, sweep.experiment)});
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(served, MakePredictResponse(parsed->id, *report.results[0]));
}

TEST(PredictServiceTest, CoalescesDuplicatesOntoInFlightEvaluation) {
  auto gate = std::make_shared<DispatchGate>();
  PredictServiceOptions options = FastServiceOptions();
  options.dispatch_hook = [gate](size_t) { gate->OnDispatch(); };
  PredictService service(options);

  std::future<std::string> first = service.Submit(RequestLine("dup-a", 2));
  gate->WaitEntered(1);  // evaluation of dup-a is now in flight
  // Same point, different id and textual form: must attach, not requeue.
  std::future<std::string> second = service.Submit(
      R"({"repetitions":1, "input_gb":0.25, "nodes":2, "id":"dup-b"})");
  gate->Open();

  const std::string a = first.get();
  const std::string b = second.get();
  EXPECT_NE(a.find("\"id\": \"dup-a\""), std::string::npos) << a;
  EXPECT_NE(b.find("\"id\": \"dup-b\""), std::string::npos) << b;
  // Identical result bytes: one evaluation answered both.
  EXPECT_EQ(a.substr(a.find("\"result\"")), b.substr(b.find("\"result\"")));

  const ServeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests_total, 2);
  EXPECT_EQ(stats.evaluations_total, 1);
  EXPECT_EQ(stats.coalesced_total, 1);
  EXPECT_EQ(stats.responses_total, 2);
}

TEST(PredictServiceTest, RejectsOverloadedWithStructuredError) {
  auto gate = std::make_shared<DispatchGate>();
  PredictServiceOptions options = FastServiceOptions();
  options.max_queue = 1;
  options.dispatch_hook = [gate](size_t) { gate->OnDispatch(); };
  PredictService service(options);

  std::future<std::string> a = service.Submit(RequestLine("a", 2));
  gate->WaitEntered(1);  // a is in flight; the queue is empty again
  std::future<std::string> b = service.Submit(RequestLine("b", 3));
  std::future<std::string> c = service.Submit(RequestLine("c", 4));
  const std::string rejected = c.get();  // immediate, queue was full
  EXPECT_NE(rejected.find("\"code\": \"overloaded\""), std::string::npos)
      << rejected;
  gate->Open();
  EXPECT_NE(a.get().find("\"ok\": true"), std::string::npos);
  EXPECT_NE(b.get().find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(service.Stats().rejected_overload_total, 1);
}

TEST(PredictServiceTest, DrainAnswersAdmittedThenRejectsNewRequests) {
  PredictService service(FastServiceOptions());
  std::vector<std::future<std::string>> admitted;
  for (int i = 0; i < 4; ++i) {
    admitted.push_back(service.Submit(RequestLine("q" + std::to_string(i),
                                                  2 + i)));
  }
  service.Drain();
  for (auto& f : admitted) {
    EXPECT_NE(f.get().find("\"ok\": true"), std::string::npos);
  }
  const std::string late = service.Submit(RequestLine("late", 2)).get();
  EXPECT_NE(late.find("\"code\": \"shutting_down\""), std::string::npos)
      << late;
  EXPECT_TRUE(service.draining());
  EXPECT_EQ(service.Stats().rejected_shutdown_total, 1);
}

TEST(PredictServiceTest, PoolShutdownConvertsToShuttingDownResponses) {
  // The ThreadPool::Submit-after-Shutdown path at the server's call
  // site: evaluations queued after the worker pool died must resolve as
  // clean shutting_down rejections, not lost futures or crashes.
  PredictService service(FastServiceOptions());
  service.ShutdownWorkerPool();
  std::vector<std::future<std::string>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.Submit(RequestLine("p" + std::to_string(i),
                                                 2 + i)));
  }
  for (auto& f : futures) {
    const std::string response = f.get();
    EXPECT_NE(response.find("\"code\": \"shutting_down\""),
              std::string::npos)
        << response;
  }
  EXPECT_EQ(service.Stats().rejected_shutdown_total, 3);
  EXPECT_EQ(service.Stats().evaluations_total, 0);
}

TEST(PredictServiceTest, MalformedAndInvalidLinesGetImmediateErrors) {
  PredictService service(FastServiceOptions());
  const std::string parse_error = service.Submit("{{{{").get();
  EXPECT_NE(parse_error.find("\"code\": \"parse_error\""),
            std::string::npos);
  const std::string invalid =
      service.Submit(R"({"profile":"nope"})").get();
  EXPECT_NE(invalid.find("\"code\": \"invalid_argument\""),
            std::string::npos);
  EXPECT_EQ(service.Stats().request_errors_total, 2);
}

TEST(PredictServiceTest, ModelOnlyRequestsServeNullMeasurement) {
  PredictService service(FastServiceOptions());
  const std::string response =
      service.Submit(R"({"nodes":2,"input_gb":0.25,"model_only":true})")
          .get();
  Result<JsonValue> parsed = ParseJson(response);
  ASSERT_TRUE(parsed.ok()) << response;
  const JsonValue* result = parsed->Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->Find("measured_sec")->is_null());
  EXPECT_TRUE(result->Find("forkjoin_error")->is_null());
  EXPECT_GT(result->Find("forkjoin_sec")->number_value(), 0.0);
}

TEST(PredictServiceTest, StatsRequestReportsAndResetsCacheWindow) {
  PredictService service(FastServiceOptions());
  // The same model point under a second seed: a new canonical key, so
  // it is evaluated again (the response cache cannot answer it), and
  // its model solves hit the MVA cache.
  service.Submit(RequestLine("w1", 2)).get();
  service.Submit(R"({"id":"w2","nodes":2,"input_gb":0.25,"jobs":1,)"
                 R"("repetitions":1,"seed":99})")
      .get();

  const ServeStatsSnapshot before = service.Stats();
  EXPECT_EQ(before.cache_shards, 2);  // one shard per worker
  EXPECT_EQ(before.requests_total, 2);
  EXPECT_EQ(before.evaluations_total, 2);
  EXPECT_GT(before.cache.hits, 0);
  EXPECT_EQ(before.cache_window.hits, before.cache.hits);
  EXPECT_EQ(before.latency_count, 2u);
  EXPECT_GE(before.latency_p95_ms, before.latency_p50_ms);

  // Closing the window moves counters into the cumulative total.
  const ServeStatsSnapshot closing = service.Stats(/*reset_window=*/true);
  EXPECT_EQ(closing.cache.hits, before.cache.hits);
  const ServeStatsSnapshot after = service.Stats();
  EXPECT_EQ(after.cache_window.hits, 0);
  EXPECT_EQ(after.cache_window.lookups(), 0);
  EXPECT_EQ(after.cache.hits, before.cache.hits);  // cumulative survives
  EXPECT_EQ(after.cache.size, before.cache.size);  // entries untouched

  // The stats request kind end-to-end, with reset_window.
  const std::string response =
      service.Submit(R"({"kind":"stats","id":"s","reset_window":true})")
          .get();
  Result<JsonValue> parsed = ParseJson(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_EQ(parsed->Find("id")->string_value(), "s");
  const JsonValue* stats = parsed->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->Find("requests_total")->number_value(), 2.0);
  ASSERT_NE(stats->Find("latency_ms"), nullptr);
  EXPECT_EQ(stats->Find("latency_ms")->Find("count")->number_value(), 2.0);
  ASSERT_NE(stats->Find("cache"), nullptr);
  EXPECT_EQ(stats->Find("cache")->Find("hits")->number_value(),
            static_cast<double>(before.cache.hits));
}

TEST(PredictServiceTest, SolverEffortGaugesSurviveWindowReset) {
  PredictServiceOptions options;
  options.num_threads = 1;
  PredictService service(options);
  service.Submit(RequestLine("a", 2)).get();
  service.Submit(RequestLine("b", 3)).get();

  // One worker, cold solves only: every A4 miss is one executed solve.
  const auto expect_solves_match_misses = [&service](bool reset_window) {
    const std::string line = std::string(R"({"kind":"stats","reset_window":)") +
                             (reset_window ? "true}" : "false}");
    Result<JsonValue> parsed = ParseJson(service.Submit(line).get());
    ASSERT_TRUE(parsed.ok());
    const JsonValue* cache = parsed->Find("stats")->Find("cache");
    ASSERT_NE(cache, nullptr);
    const double misses = cache->Find("misses")->number_value();
    const double solves = cache->Find("solves")->number_value();
    EXPECT_GT(misses, 0.0);
    EXPECT_EQ(solves, misses);
    EXPECT_GT(cache->Find("solve_iterations")->number_value(), 0.0);

    const std::string metrics = FormatPrometheusMetrics(service.Stats());
    EXPECT_NE(metrics.find("\npredictd_cache_solves_total " +
                           std::to_string(static_cast<int64_t>(solves)) +
                           "\n"),
              std::string::npos)
        << metrics;
  };
  expect_solves_match_misses(/*reset_window=*/true);
  expect_solves_match_misses(/*reset_window=*/false);
}

// ---- QoS: priority, deadlines, quotas (PR9) ----------------------------

/// Collects SubmitLine responses in completion order.
class ResponseLog {
 public:
  PredictService::ResponseCallback Tag(const std::string& tag) {
    return [this, tag](std::string response) {
      std::lock_guard<std::mutex> lock(mu_);
      order_.push_back(tag);
      responses_[tag] = std::move(response);
      cv_.notify_all();
    };
  }

  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n] { return order_.size() >= n; });
  }

  std::vector<std::string> order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

  std::string response(const std::string& tag) {
    std::lock_guard<std::mutex> lock(mu_);
    return responses_[tag];
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> order_;
  std::map<std::string, std::string> responses_;
};

size_t IndexOf(const std::vector<std::string>& order,
               const std::string& tag) {
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == tag) return i;
  }
  return order.size();
}

TEST(PredictServiceTest, InteractiveRequestsDispatchAheadOfBulk) {
  auto gate = std::make_shared<DispatchGate>();
  PredictServiceOptions options = FastServiceOptions();
  options.max_batch = 1;  // one evaluation per batch: order observable
  options.dispatch_hook = [gate](size_t) { gate->OnDispatch(); };
  PredictService service(options);
  ResponseLog log;

  service.SubmitLine(RequestLine("hold", 2), "", log.Tag("hold"));
  gate->WaitEntered(1);  // dispatcher blocked with "hold" in flight
  // Two bulk requests queue first, then an interactive one: it must
  // still dispatch ahead of both.
  service.SubmitLine(RequestLine("bulk-1", 3), "", log.Tag("bulk-1"));
  service.SubmitLine(RequestLine("bulk-2", 4), "", log.Tag("bulk-2"));
  service.SubmitLine(
      R"({"id":"fast","nodes":5,"input_gb":0.25,"repetitions":1,)"
      R"("priority":"interactive"})",
      "", log.Tag("fast"));
  gate->Open();
  log.WaitFor(4);

  const std::vector<std::string> order = log.order();
  EXPECT_LT(IndexOf(order, "fast"), IndexOf(order, "bulk-1")) << order[1];
  EXPECT_LT(IndexOf(order, "fast"), IndexOf(order, "bulk-2"));
  EXPECT_NE(log.response("fast").find("\"ok\": true"), std::string::npos);
}

TEST(PredictServiceTest, InteractiveDuplicateUpgradesQueuedBulkEvaluation) {
  auto gate = std::make_shared<DispatchGate>();
  PredictServiceOptions options = FastServiceOptions();
  options.max_batch = 1;
  options.dispatch_hook = [gate](size_t) { gate->OnDispatch(); };
  PredictService service(options);
  ResponseLog log;

  service.SubmitLine(RequestLine("hold", 2), "", log.Tag("hold"));
  gate->WaitEntered(1);
  service.SubmitLine(RequestLine("bulk-other", 3), "", log.Tag("bulk-other"));
  service.SubmitLine(RequestLine("shared", 4), "", log.Tag("shared-bulk"));
  // Interactive duplicate of "shared": coalesces onto the queued bulk
  // evaluation AND pulls it into the interactive queue, ahead of
  // "bulk-other" which was queued earlier.
  service.SubmitLine(
      R"({"id":"shared-int","nodes":4,"input_gb":0.25,"repetitions":1,)"
      R"("priority":"interactive"})",
      "", log.Tag("shared-int"));
  gate->Open();
  log.WaitFor(4);

  const std::vector<std::string> order = log.order();
  EXPECT_LT(IndexOf(order, "shared-bulk"), IndexOf(order, "bulk-other"));
  EXPECT_LT(IndexOf(order, "shared-int"), IndexOf(order, "bulk-other"));
  // Coalesced: one evaluation answered both, byte-identically.
  const std::string a = log.response("shared-bulk");
  const std::string b = log.response("shared-int");
  EXPECT_EQ(a.substr(a.find("\"result\"")), b.substr(b.find("\"result\"")));
  const ServeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.coalesced_total, 1);
  EXPECT_EQ(stats.evaluations_total, 3);  // hold, shared, bulk-other
}

TEST(PredictServiceTest, ExpiredDeadlinesAnswerAtDequeueNotSilently) {
  auto gate = std::make_shared<DispatchGate>();
  PredictServiceOptions options = FastServiceOptions();
  options.max_batch = 1;
  options.dispatch_hook = [gate](size_t) { gate->OnDispatch(); };
  PredictService service(options);
  ResponseLog log;

  service.SubmitLine(RequestLine("hold", 2), "", log.Tag("hold"));
  gate->WaitEntered(1);
  // A 1 ms deadline queued behind a blocked dispatcher is long expired
  // by dequeue time.
  service.SubmitLine(
      R"({"id":"late","nodes":3,"input_gb":0.25,"repetitions":1,)"
      R"("deadline_ms":1})",
      "", log.Tag("late"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate->Open();
  log.WaitFor(2);

  const std::string late = log.response("late");
  EXPECT_NE(late.find("\"code\": \"deadline_exceeded\""), std::string::npos)
      << late;
  EXPECT_NE(late.find("\"id\": \"late\""), std::string::npos) << late;
  const ServeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.deadline_exceeded_total, 1);
  // The all-expired evaluation was skipped, never evaluated...
  EXPECT_EQ(stats.evaluations_total, 1);  // just "hold"
  // ...and never silently dropped: every request has a response.
  EXPECT_EQ(stats.responses_total, 2);
  // Expirations must not contaminate the served latency percentiles.
  EXPECT_EQ(stats.latency_count, 1u);
}

TEST(PredictServiceTest, GenerousDeadlineStillEvaluates) {
  PredictService service(FastServiceOptions());
  const std::string response =
      service
          .Submit(
              R"({"id":"ok","nodes":2,"input_gb":0.25,"repetitions":1,)"
              R"("deadline_ms":86400000})")
          .get();
  EXPECT_NE(response.find("\"ok\": true"), std::string::npos) << response;
  EXPECT_EQ(service.Stats().deadline_exceeded_total, 0);
}

TEST(PredictServiceTest, PerClientQuotaRejectsBurstsPerPeer) {
  PredictServiceOptions options = FastServiceOptions();
  options.quota_rps = 1;  // 1 token: the second burst request is over
  PredictService service(options);
  ResponseLog log;

  service.SubmitLine(RequestLine("a1", 2), "10.0.0.1:9", log.Tag("a1"));
  service.SubmitLine(RequestLine("a2", 3), "10.0.0.1:9", log.Tag("a2"));
  service.SubmitLine(RequestLine("a3", 4), "10.0.0.1:9", log.Tag("a3"));
  // A different peer holds its own bucket.
  service.SubmitLine(RequestLine("b1", 5), "10.0.0.2:9", log.Tag("b1"));
  log.WaitFor(4);

  EXPECT_NE(log.response("a1").find("\"ok\": true"), std::string::npos);
  for (const char* tag : {"a2", "a3"}) {
    const std::string response = log.response(tag);
    EXPECT_NE(response.find("\"code\": \"quota_exceeded\""),
              std::string::npos)
        << tag << ": " << response;
    EXPECT_NE(response.find("retry"), std::string::npos);
  }
  EXPECT_NE(log.response("b1").find("\"ok\": true"), std::string::npos);

  // Stats requests are quota-exempt: observability stays reachable for
  // a throttled client.
  const std::string stats_response =
      service.Submit(R"({"kind":"stats"})").get();
  EXPECT_NE(stats_response.find("\"stats\""), std::string::npos);
  EXPECT_EQ(service.Stats().rejected_quota_total, 2);
}

// ---- Response cache ----------------------------------------------------

/// The response with its "id" value cut out: what must match between a
/// cached answer and an evaluation of the same key.
std::string WithoutId(const std::string& response) {
  const size_t at = response.find(", \"ok\"");
  return at == std::string::npos ? response : response.substr(at);
}

TEST(PredictServiceTest, HitsAreByteIdenticalAcrossSpellingsOfOneKey) {
  PredictService service(FastServiceOptions());
  const std::string first_line =
      R"({"id":"first","nodes":2,"input_gb":0.25,"model_only":true})";
  const std::string first = service.Submit(first_line).get();

  // The offline evaluation of the same point is the byte oracle.
  Result<ServeRequest> parsed = ParseServeRequest(first_line);
  ASSERT_TRUE(parsed.ok());
  SweepOptions sweep;
  sweep.experiment = DefaultExperimentOptions();
  SweepRunner runner(sweep);
  const SweepReport report = runner.RunTasks(
      {TaskForRequest(parsed->predict, sweep.experiment)});
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(first, MakePredictResponse(std::string("first"),
                                       *report.results[0]));

  // Every spelling below shares first_line's canonical key.
  const std::vector<std::pair<std::string, std::string>> spellings = {
      {"bytes", R"({"id":"bytes","nodes":2,"input_bytes":268435456,)"
                R"("model_only":true})"},
      {"reps0", R"({"id":"reps0","nodes":2,"input_gb":0.25,)"
                R"("repetitions":0})"},
      {"v1", R"({"version":1,"id":"v1","nodes":2,"input_gb":0.25,)"
             R"("model_only":true})"},
      {"v2", R"({"version":2,"id":"v2","nodes":2,"input_gb":0.25,)"
             R"("model_only":true,"priority":"interactive"})"},
      {"default-profile", R"({"id":"default-profile","nodes":2,)"
                          R"("input_gb":0.25,"model_only":true,)"
                          R"("profile":"default"})"},
  };
  for (const auto& [id, line] : spellings) {
    const std::string hit = service.Submit(line).get();
    EXPECT_EQ(hit, MakePredictResponse(id, *report.results[0])) << line;
    EXPECT_EQ(WithoutId(hit), WithoutId(first)) << line;
    EXPECT_NE(hit, first);
  }

  // Hits are admitted requests and served answers, never evaluations.
  const ServeStatsSnapshot stats = service.Stats();
  const int64_t requests = 1 + static_cast<int64_t>(spellings.size());
  EXPECT_EQ(stats.requests_total, requests);
  EXPECT_EQ(stats.evaluations_total, 1);
  EXPECT_EQ(stats.coalesced_total, 0);
  EXPECT_EQ(stats.responses_total, requests);
  EXPECT_EQ(stats.response_cache.hits, requests - 1);
  EXPECT_EQ(stats.response_cache.misses, 1);
  EXPECT_EQ(stats.response_cache.size, 1);
  EXPECT_EQ(stats.latency_count, static_cast<size_t>(requests));
  EXPECT_EQ(stats.latency_by_priority[static_cast<int>(
                                          RequestPriority::kInteractive)]
                .count,
            1u);
}

TEST(PredictServiceTest, HitOnAScenarioPointMatchesItsEvaluation) {
  // An entry keeps the result without its point, and a hit puts back the
  // admitted request's own: every scenario axis must survive the trip.
  PredictService service(FastServiceOptions());
  const std::string evaluated_line =
      R"({"id":"evaluated","input_gb":0.3,"jobs":2,"scheduler":"tetris",)"
      R"("profile":"terasort","cluster":"2x65536MBx12c+1x16384MBx4c",)"
      R"("repetitions":2,"seed":77})";
  const std::string hit_line =
      R"({"cluster":"2x65536MBx12c+1x16384MBx4c","seed":77,"jobs":2,)"
      R"("repetitions":2,"profile":"terasort","scheduler":"tetris",)"
      R"("input_gb":0.3,"priority":"interactive","id":"hit"})";
  const std::string evaluated = service.Submit(evaluated_line).get();
  ASSERT_NE(evaluated.find("\"ok\": true"), std::string::npos) << evaluated;
  const std::string hit = service.Submit(hit_line).get();
  EXPECT_EQ(WithoutId(hit), WithoutId(evaluated));

  Result<ServeRequest> parsed = ParseServeRequest(hit_line);
  ASSERT_TRUE(parsed.ok());
  SweepOptions sweep;
  sweep.experiment = DefaultExperimentOptions();
  SweepRunner runner(sweep);
  const SweepReport report = runner.RunTasks(
      {TaskForRequest(parsed->predict, sweep.experiment)});
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(hit, MakePredictResponse(std::string("hit"), *report.results[0]));

  const ServeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.evaluations_total, 1);
  EXPECT_EQ(stats.response_cache.hits, 1);
}

TEST(PredictServiceTest, FailedEvaluationIsNotCached) {
  PredictServiceOptions options = FastServiceOptions();
  // An invalid model tolerance: every evaluation fails in the model.
  options.experiment.model.epsilon = -1.0;
  PredictService service(options);
  const std::string line =
      R"({"id":"f","nodes":2,"input_gb":0.25,"model_only":true})";
  const std::string a = service.Submit(line).get();
  const std::string b = service.Submit(line).get();
  EXPECT_NE(a.find("\"ok\": false"), std::string::npos) << a;
  EXPECT_EQ(a, b);

  const ServeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.evaluations_total, 2);
  EXPECT_EQ(stats.response_cache.hits, 0);
  EXPECT_EQ(stats.response_cache.misses, 2);
  EXPECT_EQ(stats.response_cache.size, 0);
}

TEST(PredictServiceTest, ResponseCacheEvictsLeastRecentlyUsedAtCap) {
  PredictServiceOptions options = FastServiceOptions();
  options.cache_max_entries = 2;
  PredictService service(options);
  const auto line = [](int nodes) {
    return "{\"nodes\":" + std::to_string(nodes) +
           ",\"input_gb\":0.25,\"model_only\":true}";
  };
  service.Submit(line(2)).get();  // evaluated: {2}
  service.Submit(line(3)).get();  // evaluated: {3, 2}
  service.Submit(line(2)).get();  // hit, 2 most recent: {2, 3}
  service.Submit(line(4)).get();  // evaluated, evicts 3: {4, 2}
  ServeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.evaluations_total, 3);
  EXPECT_EQ(stats.response_cache.hits, 1);
  EXPECT_EQ(stats.response_cache.evictions, 1);
  EXPECT_EQ(stats.response_cache.size, 2);

  service.Submit(line(2)).get();  // still resident: hit
  service.Submit(line(3)).get();  // evicted: evaluated again
  stats = service.Stats();
  EXPECT_EQ(stats.evaluations_total, 4);
  EXPECT_EQ(stats.response_cache.hits, 2);
  EXPECT_EQ(stats.response_cache.evictions, 2);
  EXPECT_EQ(stats.response_cache.size, 2);
}

TEST(PredictServiceTest, QuotaAndDrainApplyToHits) {
  const std::string line =
      R"({"id":"q","nodes":2,"input_gb":0.25,"model_only":true})";
  {
    PredictServiceOptions options = FastServiceOptions();
    options.quota_rps = 1;
    PredictService service(options);
    ResponseLog log;
    service.SubmitLine(line, "10.0.0.1:9", log.Tag("evaluated"));
    log.WaitFor(1);
    // The answer is cached, but the peer's one token is spent.
    service.SubmitLine(line, "10.0.0.1:9", log.Tag("limited"));
    log.WaitFor(2);
    EXPECT_NE(log.response("evaluated").find("\"ok\": true"),
              std::string::npos);
    EXPECT_NE(log.response("limited").find("\"code\": \"quota_exceeded\""),
              std::string::npos)
        << log.response("limited");
    const ServeStatsSnapshot stats = service.Stats();
    EXPECT_EQ(stats.rejected_quota_total, 1);
    EXPECT_EQ(stats.response_cache.hits, 0);
    EXPECT_EQ(stats.response_cache.size, 1);
  }
  {
    PredictService service(FastServiceOptions());
    EXPECT_NE(service.Submit(line).get().find("\"ok\": true"),
              std::string::npos);
    service.BeginDrain();
    const std::string late = service.Submit(line).get();
    EXPECT_NE(late.find("\"code\": \"shutting_down\""), std::string::npos)
        << late;
    const ServeStatsSnapshot stats = service.Stats();
    EXPECT_EQ(stats.rejected_shutdown_total, 1);
    EXPECT_EQ(stats.response_cache.hits, 0);
    EXPECT_EQ(stats.requests_total, 1);
  }
}

TEST(PredictServiceTest, BatchedRequestsAllComplete) {
  // More distinct requests than max_batch: several micro-batches.
  PredictServiceOptions options = FastServiceOptions();
  options.max_batch = 2;
  PredictService service(options);
  std::vector<std::future<std::string>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        service.Submit(RequestLine("b" + std::to_string(i), 2, 1 + i % 3)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const std::string response = futures[i].get();
    EXPECT_NE(response.find("\"ok\": true"), std::string::npos)
        << "request " << i << ": " << response;
  }
  EXPECT_EQ(service.Stats().responses_total, 6);
}

}  // namespace
}  // namespace mrperf
