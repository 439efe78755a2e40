#include "serve/stats.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "serve/json.h"
#include "serve/request.h"

namespace mrperf {
namespace {

TEST(LatencyHistogramTest, EmptyHistogramIsAllZero) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.PercentileMs(50), 0.0);
  EXPECT_EQ(histogram.PercentileMs(99), 0.0);
}

TEST(LatencyHistogramTest, TracksExactMomentsAndRange) {
  LatencyHistogram histogram;
  for (double ms : {1.0, 3.0, 5.0, 7.0}) histogram.Add(ms);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.mean_ms(), 4.0);
  EXPECT_EQ(histogram.min_ms(), 1.0);
  EXPECT_EQ(histogram.max_ms(), 7.0);
}

TEST(LatencyHistogramTest, PercentilesAreBucketBoundedEstimates) {
  LatencyHistogram histogram;
  // 90 fast samples (~3 ms bucket (2,5]) and 10 slow (~80 ms (50,100]).
  for (int i = 0; i < 90; ++i) histogram.Add(3.0);
  for (int i = 0; i < 10; ++i) histogram.Add(80.0);
  const double p50 = histogram.PercentileMs(50);
  EXPECT_GE(p50, 2.0);
  EXPECT_LE(p50, 5.0);
  const double p95 = histogram.PercentileMs(95);
  EXPECT_GE(p95, 50.0);
  EXPECT_LE(p95, 100.0);
  // Monotone in p, clamped to the observed range.
  EXPECT_LE(histogram.PercentileMs(50), histogram.PercentileMs(95));
  EXPECT_LE(histogram.PercentileMs(95), histogram.PercentileMs(99));
  EXPECT_LE(histogram.PercentileMs(100), histogram.max_ms());
  EXPECT_GE(histogram.PercentileMs(0), histogram.min_ms());
}

TEST(LatencyHistogramTest, UnboundedTopBucketFallsBackToMax) {
  LatencyHistogram histogram;
  histogram.Add(50000.0);  // beyond the last bound
  histogram.Add(90000.0);
  EXPECT_EQ(histogram.PercentileMs(99), 90000.0);
}

TEST(LatencyHistogramTest, MergeIsExactAcrossFixedBuckets) {
  LatencyHistogram bulk;
  LatencyHistogram interactive;
  LatencyHistogram reference;
  for (double ms : {3.0, 80.0, 700.0}) {
    bulk.Add(ms);
    reference.Add(ms);
  }
  for (double ms : {1.5, 4.0}) {
    interactive.Add(ms);
    reference.Add(ms);
  }
  LatencyHistogram merged;
  merged.Merge(bulk);
  merged.Merge(interactive);
  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_DOUBLE_EQ(merged.mean_ms(), reference.mean_ms());
  EXPECT_DOUBLE_EQ(merged.sum_ms(), reference.sum_ms());
  EXPECT_EQ(merged.min_ms(), reference.min_ms());
  EXPECT_EQ(merged.max_ms(), reference.max_ms());
  EXPECT_EQ(merged.bucket_counts(), reference.bucket_counts());
  EXPECT_DOUBLE_EQ(merged.PercentileMs(99), reference.PercentileMs(99));
}

TEST(LatencyHistogramTest, PercentileOrderHoldsForArbitrarySamples) {
  // Property test (satellite): p50 <= p95 <= p99 must hold for any
  // sample distribution — log-uniform, point-mass, heavy-tailed — and
  // every percentile stays within [min, max].
  std::mt19937 rng(20260809u);
  std::uniform_real_distribution<double> log_ms(-1.0, 4.5);
  std::uniform_int_distribution<int> size(1, 400);
  for (int trial = 0; trial < 200; ++trial) {
    LatencyHistogram histogram;
    const int n = size(rng);
    for (int i = 0; i < n; ++i) {
      double ms = std::pow(10.0, log_ms(rng));
      if (trial % 3 == 1) ms = 3.0;           // point mass
      if (trial % 3 == 2 && i % 7 == 0) ms *= 100.0;  // heavy tail
      histogram.Add(ms);
    }
    const double p50 = histogram.PercentileMs(50);
    const double p95 = histogram.PercentileMs(95);
    const double p99 = histogram.PercentileMs(99);
    ASSERT_LE(p50, p95) << "trial " << trial << " n=" << n;
    ASSERT_LE(p95, p99) << "trial " << trial << " n=" << n;
    ASSERT_GE(p50, histogram.min_ms()) << "trial " << trial;
    ASSERT_LE(p99, histogram.max_ms()) << "trial " << trial;
    const LatencyStatsSnapshot snapshot = histogram.Snapshot();
    ASSERT_LE(snapshot.p50_ms, snapshot.p95_ms) << "trial " << trial;
    ASSERT_LE(snapshot.p95_ms, snapshot.p99_ms) << "trial " << trial;
    int64_t total = 0;
    for (int64_t b : snapshot.buckets) total += b;
    ASSERT_EQ(total, static_cast<int64_t>(snapshot.count));
  }
}

TEST(FormatServeStatsJsonTest, RendersParseableSnapshot) {
  ServeStatsSnapshot snapshot;
  snapshot.queue_depth = 3;
  snapshot.draining = true;
  snapshot.requests_total = 10;
  snapshot.evaluations_total = 6;
  snapshot.coalesced_total = 4;
  snapshot.rejected_overload_total = 1;
  snapshot.request_errors_total = 2;
  snapshot.responses_total = 13;
  snapshot.threads = 4;
  snapshot.latency_count = 10;
  snapshot.latency_mean_ms = 12.5;
  snapshot.latency_p99_ms = 80.0;
  snapshot.cache.hits = 7;
  snapshot.cache.misses = 3;
  snapshot.cache.size = 5;
  snapshot.cache_window.hits = 2;
  snapshot.cache_window.misses = 2;
  snapshot.response_cache.hits = 6;
  snapshot.response_cache.misses = 4;
  snapshot.response_cache.size = 3;
  snapshot.response_cache.evictions = 1;

  const std::string json = FormatServeStatsJson(snapshot);
  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << json;
  EXPECT_EQ(parsed->Find("queue_depth")->number_value(), 3.0);
  EXPECT_TRUE(parsed->Find("draining")->bool_value());
  EXPECT_EQ(parsed->Find("requests_total")->number_value(), 10.0);
  EXPECT_EQ(parsed->Find("coalesced_total")->number_value(), 4.0);
  EXPECT_EQ(parsed->Find("threads")->number_value(), 4.0);
  const JsonValue* latency = parsed->Find("latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Find("count")->number_value(), 10.0);
  EXPECT_EQ(latency->Find("mean")->number_value(), 12.5);
  EXPECT_EQ(latency->Find("p99")->number_value(), 80.0);
  const JsonValue* cache = parsed->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("hits")->number_value(), 7.0);
  EXPECT_EQ(cache->Find("hit_rate")->number_value(), 0.7);
  const JsonValue* window = parsed->Find("cache_window");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->Find("hit_rate")->number_value(), 0.5);
  const JsonValue* answers = parsed->Find("response_cache");
  ASSERT_NE(answers, nullptr);
  EXPECT_EQ(answers->Find("hits")->number_value(), 6.0);
  EXPECT_EQ(answers->Find("misses")->number_value(), 4.0);
  EXPECT_EQ(answers->Find("size")->number_value(), 3.0);
  EXPECT_EQ(answers->Find("evictions")->number_value(), 1.0);
  EXPECT_EQ(answers->Find("hit_rate")->number_value(), 0.6);
}

TEST(FormatServeStatsJsonTest, ReportsProtocolVersionAndCacheLifecycle) {
  ServeStatsSnapshot snapshot;
  snapshot.cache_shards = 8;
  snapshot.cache.hits = 6;
  snapshot.cache.misses = 2;
  snapshot.cache.size = 4;
  snapshot.cache.solves = 11;
  snapshot.cache.solve_iterations = 341;

  const std::string json = FormatServeStatsJson(snapshot);
  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << json;
  EXPECT_EQ(parsed->Find("protocol_version")->number_value(),
            static_cast<double>(kServeProtocolVersion));

  const JsonValue* cache = parsed->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("shards")->number_value(), 8.0);
  // Exactly these keys: no cache state is persisted, so there are no
  // checkpoint or recovery gauges.
  std::vector<std::string> keys;
  for (const auto& member : cache->object_members()) {
    keys.push_back(member.first);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "hits", "misses", "insertions", "evictions", "size",
                      "shards", "solves", "solve_iterations", "hit_rate"}));
  // Executed-solver-effort gauges: cumulative fixed-point solves run on
  // misses plus their damped-sweep total.
  EXPECT_EQ(cache->Find("solves")->number_value(), 11.0);
  EXPECT_EQ(cache->Find("solve_iterations")->number_value(), 341.0);
  EXPECT_EQ(cache->Find("hit_rate")->number_value(), 0.75);

  // The window sub-object reports only window counters: shard count and
  // solver-effort gauges live on the cumulative object.
  const JsonValue* window = parsed->Find("cache_window");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->Find("shards"), nullptr);
  EXPECT_EQ(window->Find("solves"), nullptr);
}

TEST(FormatServeStatsJsonTest, ReportsQosAndTransportCounters) {
  ServeStatsSnapshot snapshot;
  snapshot.rejected_quota_total = 4;
  snapshot.deadline_exceeded_total = 2;
  snapshot.event_loop_threads = 3;
  snapshot.event_loop_pending_tasks = 7;
  snapshot.connections_current = 11;
  snapshot.connections_total = 29;
  snapshot.metrics_requests_total = 5;
  auto& bulk =
      snapshot.latency_by_priority[static_cast<int>(RequestPriority::kBulk)];
  bulk.count = 9;
  bulk.mean_ms = 40.0;
  bulk.p99_ms = 200.0;
  auto& interactive = snapshot.latency_by_priority[static_cast<int>(
      RequestPriority::kInteractive)];
  interactive.count = 3;
  interactive.mean_ms = 5.0;
  interactive.p99_ms = 12.0;

  const std::string json = FormatServeStatsJson(snapshot);
  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << json;
  EXPECT_EQ(parsed->Find("rejected_quota_total")->number_value(), 4.0);
  EXPECT_EQ(parsed->Find("deadline_exceeded_total")->number_value(), 2.0);
  EXPECT_EQ(parsed->Find("event_loop_threads")->number_value(), 3.0);
  EXPECT_EQ(parsed->Find("event_loop_pending_tasks")->number_value(), 7.0);
  EXPECT_EQ(parsed->Find("connections")->number_value(), 11.0);
  EXPECT_EQ(parsed->Find("connections_total")->number_value(), 29.0);
  EXPECT_EQ(parsed->Find("metrics_requests_total")->number_value(), 5.0);

  const JsonValue* by_priority = parsed->Find("latency_by_priority");
  ASSERT_NE(by_priority, nullptr);
  const JsonValue* bulk_json = by_priority->Find("bulk");
  ASSERT_NE(bulk_json, nullptr);
  EXPECT_EQ(bulk_json->Find("count")->number_value(), 9.0);
  EXPECT_EQ(bulk_json->Find("p99")->number_value(), 200.0);
  const JsonValue* interactive_json = by_priority->Find("interactive");
  ASSERT_NE(interactive_json, nullptr);
  EXPECT_EQ(interactive_json->Find("count")->number_value(), 3.0);
  EXPECT_EQ(interactive_json->Find("mean")->number_value(), 5.0);
}

}  // namespace
}  // namespace mrperf
