#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "serve/json.h"

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double Rng::Exponential(double rate) {
  return -std::log1p(-Uniform()) / rate;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  return mix.Next();
}

std::vector<double> PoissonArrivals(Rng& rng, double rate_per_s,
                                    double duration_s) {
  std::vector<double> arrivals;
  for (double t = rng.Exponential(rate_per_s); t < duration_s;
       t += rng.Exponential(rate_per_s)) {
    arrivals.push_back(t);
  }
  return arrivals;
}

std::vector<WhatifPoint> WhatifPoints::Draw(size_t count) {
  std::vector<WhatifPoint> points;
  points.reserve(count);
  while (points.size() < count) {
    WhatifPoint p;
    p.nodes = kWhatifNodes;
    p.input_bytes = rng_.UniformInt(kWhatifMinInputBytes, kWhatifMaxInputBytes);
    if (drawn_.insert(p.input_bytes).second) points.push_back(p);
  }
  return points;
}

std::string WhatifRequestLine(const std::string& id, const WhatifPoint& point) {
  return "{\"kind\":\"predict\",\"id\":\"" + id +
         "\",\"nodes\":" + std::to_string(point.nodes) +
         ",\"input_bytes\":" + std::to_string(point.input_bytes) +
         ",\"jobs\":1}";
}

std::vector<size_t> SweepDrawOrder(Rng& rng, size_t choices, size_t count) {
  std::vector<size_t> order(count);
  for (size_t& o : order) {
    o = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(choices) - 1));
  }
  return order;
}

std::vector<size_t> SampleIndices(Rng& rng, size_t n, size_t count) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: the first `count` slots are the sample.
  const size_t take = std::min(count, n);
  for (size_t i = 0; i < take; ++i) {
    const size_t j = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(n) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(take);
  return all;
}

double MedianOf(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail HighestTail(std::vector<double> samples, size_t beyond) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n < 2 * beyond) {
    tail.percentile = 100.0;
    tail.value = samples.back();
    return tail;
  }
  const size_t rank = n - beyond;  // 1-based rank of the reported sample
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.value = samples[rank - 1];
  return tail;
}

double NearestRankPercentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const size_t rank = static_cast<size_t>(
      std::clamp(std::ceil(p / 100.0 * n), 1.0, n));
  return samples[rank - 1];
}

namespace {

mrperf::Result<int64_t> IntField(const mrperf::JsonValue& object,
                                 const std::string& key) {
  const mrperf::JsonValue* field = object.Find(key);
  if (field == nullptr || !field->is_number()) {
    return mrperf::Status::InvalidArgument("stats field '" + key +
                                           "' missing or not a number");
  }
  return static_cast<int64_t>(field->number_value());
}

}  // namespace

mrperf::Result<ServeCounters> ParseServeStats(const std::string& line) {
  MRPERF_ASSIGN_OR_RETURN(mrperf::JsonValue root, mrperf::ParseJson(line));
  const mrperf::JsonValue* ok = root.Find("ok");
  const mrperf::JsonValue* stats = root.Find("stats");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value() ||
      stats == nullptr || !stats->is_object()) {
    return mrperf::Status::InvalidArgument("not a successful stats response");
  }
  const mrperf::JsonValue* cache = stats->Find("cache");
  if (cache == nullptr || !cache->is_object()) {
    return mrperf::Status::InvalidArgument("stats response has no cache");
  }
  ServeCounters c;
  MRPERF_ASSIGN_OR_RETURN(c.requests_total, IntField(*stats, "requests_total"));
  MRPERF_ASSIGN_OR_RETURN(c.evaluations_total,
                          IntField(*stats, "evaluations_total"));
  MRPERF_ASSIGN_OR_RETURN(c.cache_hits, IntField(*cache, "hits"));
  MRPERF_ASSIGN_OR_RETURN(c.cache_misses, IntField(*cache, "misses"));
  return c;
}

std::string FormatDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    mrperf::AppendJsonString(out, metrics[i].name);
    out += ": {\"value\": ";
    // JSON has no NaN or infinity; a metric that could not be measured
    // is reported as 0, which the run's "correct": false already flags.
    out += std::isfinite(metrics[i].value) ? FormatDouble(metrics[i].value)
                                           : "0";
    out += ", \"unit\": ";
    mrperf::AppendJsonString(out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
