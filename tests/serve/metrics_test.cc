#include "serve/metrics.h"

#include <gtest/gtest.h>

#include <string>

#include "serve/request.h"
#include "serve/stats.h"

namespace mrperf {
namespace {

ServeStatsSnapshot PopulatedSnapshot() {
  ServeStatsSnapshot snapshot;
  snapshot.queue_depth = 2;
  snapshot.draining = false;
  snapshot.requests_total = 100;
  snapshot.evaluations_total = 60;
  snapshot.coalesced_total = 40;
  snapshot.rejected_overload_total = 3;
  snapshot.rejected_shutdown_total = 1;
  snapshot.rejected_quota_total = 7;
  snapshot.deadline_exceeded_total = 2;
  snapshot.request_errors_total = 5;
  snapshot.responses_total = 118;
  snapshot.threads = 4;
  snapshot.event_loop_threads = 2;
  snapshot.event_loop_pending_tasks = 9;
  snapshot.connections_current = 12;
  snapshot.connections_total = 34;
  snapshot.metrics_requests_total = 6;
  snapshot.cache.hits = 80;
  snapshot.cache.misses = 20;
  snapshot.cache.size = 15;
  snapshot.cache.insertions = 20;
  snapshot.cache.evictions = 5;
  snapshot.cache.solves = 20;
  snapshot.cache.solve_iterations = 600;
  snapshot.cache_shards = 8;
  snapshot.response_cache.hits = 60;
  snapshot.response_cache.misses = 40;
  snapshot.response_cache.size = 33;
  snapshot.response_cache.evictions = 7;

  auto& bulk =
      snapshot.latency_by_priority[static_cast<int>(RequestPriority::kBulk)];
  bulk.count = 90;
  bulk.sum_ms = 4500.0;
  bulk.buckets[2] = 50;   // (2, 5]
  bulk.buckets[6] = 30;   // (50, 100]
  bulk.buckets[13] = 10;  // +Inf
  auto& interactive = snapshot.latency_by_priority[static_cast<int>(
      RequestPriority::kInteractive)];
  interactive.count = 10;
  interactive.sum_ms = 42.0;
  interactive.buckets[0] = 6;
  interactive.buckets[3] = 4;
  return snapshot;
}

TEST(PrometheusMetricsTest, ExpositionValidatesAndCarriesCoreFamilies) {
  const std::string body = FormatPrometheusMetrics(PopulatedSnapshot());
  const Status valid = ValidatePrometheusText(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << body;

  // Spot-check the families the scrape-config example documents.
  for (const char* needle : {
           "# TYPE predictd_requests_total counter",
           "predictd_requests_total 100",
           "# TYPE predictd_queue_depth gauge",
           "predictd_rejected_total{reason=\"quota\"} 7",
           "predictd_rejected_total{reason=\"overload\"} 3",
           "predictd_deadline_exceeded_total 2",
           "predictd_event_loop_threads 2",
           "predictd_event_loop_pending_tasks 9",
           "predictd_connections 12",
           "predictd_connections_total 34",
           "predictd_metrics_requests_total 6",
           "predictd_cache_lookups_total{result=\"hit\"} 80",
           "# TYPE predictd_response_cache_lookups_total counter",
           "predictd_response_cache_lookups_total{result=\"hit\"} 60",
           "predictd_response_cache_lookups_total{result=\"miss\"} 40",
           "# TYPE predictd_response_cache_entries gauge",
           "predictd_response_cache_entries 33",
           "predictd_response_cache_evictions_total 7",
           "# TYPE predictd_request_latency_milliseconds histogram",
           "predictd_request_latency_milliseconds_count{priority=\"bulk\"}"
           " 90",
           "predictd_request_latency_milliseconds_count{"
           "priority=\"interactive\"} 10",
       }) {
    EXPECT_NE(body.find(needle), std::string::npos)
        << "missing: " << needle << "\n"
        << body;
  }
  // No cache state is persisted, so there are no checkpoint/recover
  // families.
  for (const char* removed : {"predictd_cache_checkpoints_total",
                              "predictd_cache_recoveries_total"}) {
    EXPECT_EQ(body.find(removed), std::string::npos) << removed;
  }
}

TEST(PrometheusMetricsTest, HistogramBucketsAreCumulativeWithInf) {
  const std::string body = FormatPrometheusMetrics(PopulatedSnapshot());
  // bulk buckets: 50 in (2,5], 30 in (50,100], 10 beyond the last bound
  // => cumulative le="5" is 50, le="100" is 80, le="+Inf" is 90.
  EXPECT_NE(body.find("predictd_request_latency_milliseconds_bucket{"
                      "priority=\"bulk\",le=\"5\"} 50"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("predictd_request_latency_milliseconds_bucket{"
                      "priority=\"bulk\",le=\"100\"} 80"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("predictd_request_latency_milliseconds_bucket{"
                      "priority=\"bulk\",le=\"+Inf\"} 90"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("predictd_request_latency_milliseconds_sum{"
                      "priority=\"bulk\"} 4500"),
            std::string::npos)
      << body;
}

TEST(PrometheusMetricsTest, EmptySnapshotStillValidates) {
  const ServeStatsSnapshot empty;
  const std::string body = FormatPrometheusMetrics(empty);
  const Status valid = ValidatePrometheusText(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << body;
}

// ---- the validator itself (the bench gate reuses it) -------------------

TEST(ValidatePrometheusTextTest, AcceptsMinimalWellFormedExposition) {
  const Status ok = ValidatePrometheusText(
      "# HELP x_total a counter\n"
      "# TYPE x_total counter\n"
      "x_total 3\n"
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"+Inf\"} 2\n"
      "h_sum 1.5\n"
      "h_count 2\n");
  EXPECT_TRUE(ok.ok()) << ok.ToString();
}

TEST(ValidatePrometheusTextTest, RejectsSampleBeforeType) {
  EXPECT_FALSE(ValidatePrometheusText("x_total 3\n"
                                      "# TYPE x_total counter\n")
                   .ok());
}

TEST(ValidatePrometheusTextTest, RejectsDuplicateType) {
  EXPECT_FALSE(ValidatePrometheusText("# TYPE x gauge\n"
                                      "x 1\n"
                                      "# TYPE x gauge\n"
                                      "x 2\n")
                   .ok());
}

TEST(ValidatePrometheusTextTest, RejectsNonCumulativeHistogram) {
  EXPECT_FALSE(ValidatePrometheusText("# TYPE h histogram\n"
                                      "h_bucket{le=\"1\"} 5\n"
                                      "h_bucket{le=\"+Inf\"} 3\n"  // shrank
                                      "h_sum 1\n"
                                      "h_count 3\n")
                   .ok());
}

TEST(ValidatePrometheusTextTest, RejectsHistogramWithoutInfBucket) {
  EXPECT_FALSE(ValidatePrometheusText("# TYPE h histogram\n"
                                      "h_bucket{le=\"1\"} 1\n"
                                      "h_sum 1\n"
                                      "h_count 1\n")
                   .ok());
}

TEST(ValidatePrometheusTextTest, RejectsCountMismatchingInfBucket) {
  EXPECT_FALSE(ValidatePrometheusText("# TYPE h histogram\n"
                                      "h_bucket{le=\"+Inf\"} 2\n"
                                      "h_sum 1\n"
                                      "h_count 9\n")
                   .ok());
}

TEST(ValidatePrometheusTextTest, RejectsMalformedSampleLines) {
  EXPECT_FALSE(ValidatePrometheusText("# TYPE x gauge\n"
                                      "x notanumber\n")
                   .ok());
  EXPECT_FALSE(ValidatePrometheusText("just words\n").ok());
  EXPECT_FALSE(ValidatePrometheusText("# TYPE x gauge\n"
                                      "x{unclosed=\"1\n")
                   .ok());
}

}  // namespace
}  // namespace mrperf
