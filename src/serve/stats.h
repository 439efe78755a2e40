/// \file stats.h
/// \brief Observability for the prediction service: a fixed-bucket
/// latency histogram with percentile estimates, and the /stats snapshot
/// the wire protocol exposes.

#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/statistics.h"
#include "queueing/solve_cache.h"
#include "serve/request.h"

namespace mrperf {

struct LatencyStatsSnapshot;

/// \brief Streaming latency accumulator: exact count/mean/min/max via
/// RunningStats plus fixed log-spaced buckets for percentile estimates.
///
/// Percentiles interpolate linearly inside the bucket holding the
/// target rank, so they are estimates bounded by the bucket edges —
/// the standard operational-histogram trade-off (exact quantiles would
/// need every sample). Not internally synchronized: the service updates
/// it under its own stats mutex.
class LatencyHistogram {
 public:
  /// Bucket upper bounds, milliseconds; the last bucket is unbounded.
  static constexpr std::array<double, 13> kBucketBoundsMs = {
      1.0,    2.0,    5.0,    10.0,   25.0,    50.0,   100.0,
      250.0,  500.0,  1000.0, 2500.0, 5000.0,  10000.0};

  /// Bucket count including the unbounded last bucket.
  static constexpr size_t kBucketCount = kBucketBoundsMs.size() + 1;

  void Add(double latency_ms);

  /// Folds another histogram in (same fixed buckets, so the merge is
  /// exact). Used to derive the overall view from per-priority
  /// histograms without double-counting samples.
  void Merge(const LatencyHistogram& other);

  size_t count() const { return stats_.count(); }
  double mean_ms() const { return stats_.mean(); }
  double min_ms() const { return stats_.min(); }
  double max_ms() const { return stats_.max(); }
  /// Sum of all samples (the Prometheus histogram `_sum` series).
  double sum_ms() const { return stats_.sum(); }
  /// Per-bucket sample counts (NOT cumulative; renderers that need the
  /// Prometheus cumulative form sum as they walk).
  const std::array<int64_t, kBucketCount>& bucket_counts() const {
    return buckets_;
  }

  /// Estimated p-th percentile (0..100); 0 when empty. Clamped to the
  /// observed [min, max].
  double PercentileMs(double p) const;

  /// Point-in-time copy of every derived figure (see below).
  LatencyStatsSnapshot Snapshot() const;

 private:
  RunningStats stats_;
  std::array<int64_t, kBucketCount> buckets_ = {};
};

/// \brief Plain-data copy of a LatencyHistogram: moments, percentile
/// estimates and raw bucket counts. Snapshots are taken under the
/// service's stats mutex and rendered (JSON, Prometheus) outside it.
struct LatencyStatsSnapshot {
  size_t count = 0;
  double sum_ms = 0.0;
  double mean_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  std::array<int64_t, LatencyHistogram::kBucketCount> buckets = {};
};

/// \brief Response-cache counters (cumulative since startup).
struct ResponseCacheStats {
  /// Predicts answered from a stored answer, without evaluating.
  int64_t hits = 0;
  /// Predicts that found no stored answer (hits + misses ==
  /// requests_total): they queued for, or coalesced onto, an
  /// evaluation.
  int64_t misses = 0;
  /// Answers resident (bounded by the service's cache_max_entries).
  int64_t size = 0;
  /// Least-recently-used answers displaced to make room.
  int64_t evictions = 0;

  double hit_rate() const {
    const int64_t n = hits + misses;
    return n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

/// \brief One /stats response payload (all counters cumulative since
/// startup unless noted).
struct ServeStatsSnapshot {
  /// Operator-assigned replica identity (predictd --replica-id); empty
  /// for a standalone daemon. Filled by the transport_stats_hook.
  std::string replica_id;
  int64_t queue_depth = 0;
  bool draining = false;
  /// Admitted predict requests, including ones served by coalescing or
  /// from the response cache.
  int64_t requests_total = 0;
  /// Point evaluations actually dispatched (tasks completed).
  int64_t evaluations_total = 0;
  /// Requests served by sharing another request's in-flight evaluation.
  int64_t coalesced_total = 0;
  int64_t rejected_overload_total = 0;
  int64_t rejected_shutdown_total = 0;
  /// Requests answered `quota_exceeded` (per-client token bucket).
  int64_t rejected_quota_total = 0;
  /// Requests answered `deadline_exceeded` at dequeue — never silently
  /// dropped, so this counter reconciles against responses_total.
  int64_t deadline_exceeded_total = 0;
  /// Malformed / semantically invalid request lines.
  int64_t request_errors_total = 0;
  /// Responses built (success + error), predict and stats alike.
  int64_t responses_total = 0;
  int threads = 0;

  /// Transport gauges (zero when no event-loop transport reports them).
  int event_loop_threads = 0;
  /// Cross-thread tasks queued on the event loops (completion posts,
  /// drain posts) not yet run — the "event-loop depth" gauge.
  int64_t event_loop_pending_tasks = 0;
  int64_t connections_current = 0;
  int64_t connections_total = 0;
  /// GET /metrics scrapes served by the transport.
  int64_t metrics_requests_total = 0;

  /// Admission-to-response latency of predict requests — the overall
  /// view, merged across priorities (kept flat for /stats JSON
  /// stability).
  size_t latency_count = 0;
  double latency_mean_ms = 0.0;
  double latency_min_ms = 0.0;
  double latency_max_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;

  /// The same latency, split per dispatch class (indexed by
  /// RequestPriority; each priority owns its histogram, so a burst of
  /// slow bulk sweeps cannot skew the interactive percentiles).
  std::array<LatencyStatsSnapshot, kRequestPriorityCount>
      latency_by_priority = {};

  /// Answers served without evaluating (the response cache).
  ResponseCacheStats response_cache;

  /// Shared MVA-solve cache, cumulative since startup, including the
  /// solver-effort gauges.
  MvaCacheStats cache;
  /// Same counters since the last {"kind":"stats","reset_window":true}.
  MvaCacheStats cache_window;
  /// Lock shards of the shared cache: the worker count rounded up to a
  /// power of two.
  int cache_shards = 0;
};

/// \brief Renders the snapshot as a single-line JSON object (the value
/// of the response's "stats" key). Non-finite doubles follow the sweep
/// serializers' null rule.
std::string FormatServeStatsJson(const ServeStatsSnapshot& snapshot);

}  // namespace mrperf
