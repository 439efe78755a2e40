/// TSan-targeted stress tests for PredictService lifecycle races:
/// BeginDrain()/Drain() firing from several threads while clients are
/// still submitting, the /stats window fold racing the dispatcher, and
/// duplicates racing their key's move from the coalescing map to the
/// response cache. The service's contract under this abuse is exact:
/// every future resolves with exactly one response — an evaluated (or
/// cached) result for requests admitted before the drain, a structured
/// `shutting_down` rejection after — and nothing deadlocks or leaks a
/// promise.

#include "serve/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace mrperf {
namespace {

/// Model-only request: no simulator repetitions, a few ms to evaluate,
/// so drain races cover many requests instead of a few slow ones.
std::string ModelOnlyLine(const std::string& id, int nodes) {
  return "{\"id\":\"" + id + "\",\"nodes\":" + std::to_string(nodes) +
         ",\"input_gb\":0.25,\"model_only\":true}";
}

TEST(PredictServiceStressTest, ConcurrentDrainRacesClientSubmits) {
  PredictServiceOptions options;
  options.num_threads = 2;
  options.max_queue = 64;
  PredictService service(options);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 40;
  std::vector<std::vector<std::future<std::string>>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  std::atomic<int> submitted{0};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&service, &futures, &submitted, t] {
      futures[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        // A mix of distinct keys and cross-thread duplicates, so the
        // drain also races coalescing-map attachment.
        const int nodes = 2 + (i % 8);
        futures[t].push_back(service.Submit(
            ModelOnlyLine("t" + std::to_string(t) + "-" + std::to_string(i),
                          nodes)));
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let some traffic through, then drain from several threads at once
  // while the submitters are still going.
  while (submitted.load(std::memory_order_relaxed) < kSubmitters * 4) {
    std::this_thread::yield();
  }
  std::vector<std::thread> drainers;
  drainers.reserve(3);
  drainers.emplace_back([&service] { service.BeginDrain(); });
  for (int i = 0; i < 2; ++i) {
    drainers.emplace_back([&service] { service.Drain(); });
  }
  for (std::thread& s : submitters) s.join();
  for (std::thread& d : drainers) d.join();

  // Exactly one response per submitted request, each either a predict
  // result or a structured rejection — never empty, never hung.
  int evaluated = 0;
  int rejected = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      const std::string response = f.get();
      ASSERT_FALSE(response.empty());
      if (response.find("\"error\"") == std::string::npos) {
        ++evaluated;
      } else {
        EXPECT_NE(response.find("shutting_down"), std::string::npos)
            << response;
        ++rejected;
      }
    }
  }
  EXPECT_EQ(evaluated + rejected, kSubmitters * kPerThread);

  const ServeStatsSnapshot stats = service.Stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.rejected_shutdown_total, rejected);
  EXPECT_EQ(stats.requests_total, evaluated);
}

TEST(PredictServiceStressTest, StatsWindowFoldRacesDispatcherAndDrain) {
  PredictServiceOptions options;
  options.num_threads = 2;
  PredictService service(options);

  std::atomic<bool> stop{false};
  // A stats reader folding the cache window as fast as it can, racing
  // the dispatcher's evaluations and the final drain.
  std::thread stats_reader([&service, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const ServeStatsSnapshot snapshot = service.Stats(/*reset_window=*/true);
      EXPECT_GE(snapshot.responses_total, 0);
      // The folded cumulative counters never go backwards.
      EXPECT_GE(snapshot.cache.hits, snapshot.cache_window.hits);
    }
  });

  std::vector<std::future<std::string>> futures;
  futures.reserve(60);
  for (int i = 0; i < 60; ++i) {
    futures.push_back(service.Submit(
        ModelOnlyLine("w" + std::to_string(i), 2 + (i % 6))));
  }
  for (auto& f : futures) {
    EXPECT_FALSE(f.get().empty());
  }
  service.Drain();
  stop.store(true, std::memory_order_relaxed);
  stats_reader.join();
}

TEST(PredictServiceStressTest, DuplicatesRacingCompletionEvaluateOncePerKey) {
  PredictServiceOptions options;
  options.num_threads = 2;
  options.max_batch = 2;  // keys complete in several batches
  PredictService service(options);

  constexpr int kKeys = 4;
  constexpr int kClients = 8;
  constexpr int kPerClient = 60;
  constexpr int kWindow = 4;
  std::atomic<bool> go{false};
  std::vector<std::vector<std::future<std::string>>> futures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &futures, &go, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      futures[c].reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        // Each client walks the keys from its own offset, so every key
        // is asked for while queued, while evaluating and once answered.
        const int key = (c + i) % kKeys;
        futures[c].push_back(service.Submit(ModelOnlyLine(
            "c" + std::to_string(c) + "-" + std::to_string(i), 2 + key)));
        // A window of kWindow outstanding requests per client spreads
        // the submissions across the evaluations' completions.
        if (i >= kWindow) futures[c][i - kWindow].wait();
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  // One answer per request, under its own id, with one result per key.
  std::map<int, std::string> result_by_key;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const std::string response = futures[c][i].get();
      const std::string id =
          "\"id\": \"c" + std::to_string(c) + "-" + std::to_string(i) + "\"";
      ASSERT_NE(response.find(id), std::string::npos) << response;
      ASSERT_NE(response.find("\"ok\": true"), std::string::npos)
          << response;
      const std::string result = response.substr(response.find("\"result\""));
      auto [it, inserted] = result_by_key.emplace((c + i) % kKeys, result);
      if (!inserted) {
        EXPECT_EQ(it->second, result);
      }
    }
  }

  const ServeStatsSnapshot stats = service.Stats();
  constexpr int64_t kRequests = int64_t{kClients} * kPerClient;
  EXPECT_EQ(stats.evaluations_total, kKeys);
  EXPECT_EQ(stats.requests_total, kRequests);
  EXPECT_EQ(stats.responses_total, kRequests);
  EXPECT_EQ(stats.response_cache.hits + stats.response_cache.misses,
            kRequests);
  // Every miss either started its key's evaluation or coalesced onto it.
  EXPECT_EQ(stats.response_cache.misses,
            stats.evaluations_total + stats.coalesced_total);
  EXPECT_EQ(stats.response_cache.size, kKeys);
  service.Drain();
}

}  // namespace
}  // namespace mrperf
