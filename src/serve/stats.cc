#include "serve/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "engine/sweep_format.h"
#include "serve/json.h"
#include "serve/request.h"

namespace mrperf {

void LatencyHistogram::Add(double latency_ms) {
  if (!(latency_ms >= 0.0)) latency_ms = 0.0;  // clocks can misbehave
  stats_.Add(latency_ms);
  size_t b = 0;
  while (b < kBucketBoundsMs.size() && latency_ms > kBucketBoundsMs[b]) {
    ++b;
  }
  ++buckets_[b];
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  stats_.Merge(other.stats_);
  for (size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
}

LatencyStatsSnapshot LatencyHistogram::Snapshot() const {
  LatencyStatsSnapshot snapshot;
  snapshot.count = count();
  snapshot.sum_ms = sum_ms();
  snapshot.mean_ms = mean_ms();
  snapshot.min_ms = min_ms();
  snapshot.max_ms = max_ms();
  snapshot.p50_ms = PercentileMs(50);
  snapshot.p95_ms = PercentileMs(95);
  snapshot.p99_ms = PercentileMs(99);
  snapshot.buckets = buckets_;
  return snapshot;
}

double LatencyHistogram::PercentileMs(double p) const {
  const int64_t n = static_cast<int64_t>(stats_.count());
  if (n == 0) return 0.0;
  p = std::min(100.0, std::max(0.0, p));
  // Rank of the target sample (1-based, nearest-rank definition).
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 * n)));
  int64_t cumulative = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const int64_t in_bucket = buckets_[b];
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    // Interpolate within [lower, upper) by the rank's position among
    // this bucket's samples. The unbounded last bucket has no upper
    // edge; the observed max is the only defensible estimate there.
    const double lower = b == 0 ? 0.0 : kBucketBoundsMs[b - 1];
    const double upper =
        b < kBucketBoundsMs.size() ? kBucketBoundsMs[b] : stats_.max();
    const double fraction =
        static_cast<double>(target - cumulative) / in_bucket;
    const double estimate = lower + (upper - lower) * fraction;
    return std::min(stats_.max(), std::max(stats_.min(), estimate));
  }
  return stats_.max();
}

namespace {

/// With `shards >= 1` (the cumulative "cache" object) the shard count
/// and solver-effort gauges are included; the window-scoped
/// "cache_window" object omits them (they are cumulative gauges, never
/// window counters).
void AppendCacheJson(std::string& out, const char* key,
                     const MvaCacheStats& cache, int shards = 0) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"%s\": {\"hits\": %lld, \"misses\": %lld, \"insertions\": %lld, "
      "\"evictions\": %lld, \"size\": %lld, ",
      key, static_cast<long long>(cache.hits),
      static_cast<long long>(cache.misses),
      static_cast<long long>(cache.insertions),
      static_cast<long long>(cache.evictions),
      static_cast<long long>(cache.size));
  out += buf;
  if (shards >= 1) {
    std::snprintf(buf, sizeof(buf),
                  "\"shards\": %d, \"solves\": %lld, "
                  "\"solve_iterations\": %lld, ",
                  shards, static_cast<long long>(cache.solves),
                  static_cast<long long>(cache.solve_iterations));
    out += buf;
  }
  out += "\"hit_rate\": ";
  AppendJsonDouble(out, cache.hit_rate());
  out += '}';
}

}  // namespace

std::string FormatServeStatsJson(const ServeStatsSnapshot& s) {
  std::string out;
  out.reserve(1536);
  char buf[1024];
  out += "{\"replica_id\": ";
  AppendJsonString(out, s.replica_id);
  out += ", ";
  std::snprintf(
      buf, sizeof(buf),
      "\"protocol_version\": %d, "
      "\"queue_depth\": %lld, \"draining\": %s, \"requests_total\": %lld, "
      "\"evaluations_total\": %lld, \"coalesced_total\": %lld, "
      "\"rejected_overload_total\": %lld, \"rejected_shutdown_total\": "
      "%lld, \"rejected_quota_total\": %lld, \"deadline_exceeded_total\": "
      "%lld, \"request_errors_total\": %lld, \"responses_total\": %lld, "
      "\"threads\": %d, \"event_loop_threads\": %d, "
      "\"event_loop_pending_tasks\": %lld, "
      "\"connections\": %lld, \"connections_total\": %lld, "
      "\"metrics_requests_total\": %lld, ",
      kServeProtocolVersion, static_cast<long long>(s.queue_depth),
      s.draining ? "true" : "false",
      static_cast<long long>(s.requests_total),
      static_cast<long long>(s.evaluations_total),
      static_cast<long long>(s.coalesced_total),
      static_cast<long long>(s.rejected_overload_total),
      static_cast<long long>(s.rejected_shutdown_total),
      static_cast<long long>(s.rejected_quota_total),
      static_cast<long long>(s.deadline_exceeded_total),
      static_cast<long long>(s.request_errors_total),
      static_cast<long long>(s.responses_total), s.threads,
      s.event_loop_threads,
      static_cast<long long>(s.event_loop_pending_tasks),
      static_cast<long long>(s.connections_current),
      static_cast<long long>(s.connections_total),
      static_cast<long long>(s.metrics_requests_total));
  out += buf;
  std::snprintf(buf, sizeof(buf), "\"latency_ms\": {\"count\": %lld, ",
                static_cast<long long>(s.latency_count));
  out += buf;
  const std::pair<const char*, double> latency_fields[] = {
      {"mean", s.latency_mean_ms}, {"min", s.latency_min_ms},
      {"max", s.latency_max_ms},   {"p50", s.latency_p50_ms},
      {"p95", s.latency_p95_ms},   {"p99", s.latency_p99_ms},
  };
  for (size_t i = 0; i < std::size(latency_fields); ++i) {
    out += '"';
    out += latency_fields[i].first;
    out += "\": ";
    AppendJsonDouble(out, latency_fields[i].second);
    out += i + 1 < std::size(latency_fields) ? ", " : "}, ";
  }
  out += "\"latency_by_priority\": {";
  for (int p = 0; p < kRequestPriorityCount; ++p) {
    const LatencyStatsSnapshot& l = s.latency_by_priority[p];
    out += '"';
    out += RequestPriorityName(static_cast<RequestPriority>(p));
    std::snprintf(buf, sizeof(buf), "\": {\"count\": %lld, ",
                  static_cast<long long>(l.count));
    out += buf;
    const std::pair<const char*, double> fields[] = {
        {"mean", l.mean_ms}, {"min", l.min_ms}, {"max", l.max_ms},
        {"p50", l.p50_ms},   {"p95", l.p95_ms}, {"p99", l.p99_ms},
    };
    for (size_t i = 0; i < std::size(fields); ++i) {
      out += '"';
      out += fields[i].first;
      out += "\": ";
      AppendJsonDouble(out, fields[i].second);
      if (i + 1 < std::size(fields)) out += ", ";
    }
    out += p + 1 < kRequestPriorityCount ? "}, " : "}}, ";
  }
  AppendCacheJson(out, "cache", s.cache, std::max(1, s.cache_shards));
  out += ", ";
  AppendCacheJson(out, "cache_window", s.cache_window);
  const ResponseCacheStats& r = s.response_cache;
  std::snprintf(buf, sizeof(buf),
                ", \"response_cache\": {\"hits\": %lld, \"misses\": %lld, "
                "\"size\": %lld, \"evictions\": %lld, \"hit_rate\": ",
                static_cast<long long>(r.hits),
                static_cast<long long>(r.misses),
                static_cast<long long>(r.size),
                static_cast<long long>(r.evictions));
  out += buf;
  AppendJsonDouble(out, r.hit_rate());
  out += "}}";
  return out;
}

}  // namespace mrperf
