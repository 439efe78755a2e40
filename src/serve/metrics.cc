#include "serve/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "serve/request.h"

namespace mrperf {
namespace {

void AppendInt(std::string& out, int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  out += buf;
}

/// Prometheus float spelling: finite values round-trip via %.17g;
/// non-finite ones use the exposition format's +Inf/-Inf/NaN tokens
/// (printf's "inf"/"nan" are not valid exposition values).
void AppendDouble(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "NaN";
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void AppendLatencyHistogram(std::string& out, const char* family,
                            const ServeStatsSnapshot& s) {
  AppendFamilyHeader(
      out, family,
      "Admission-to-response latency of answered predict requests "
      "(evaluated, coalesced or cached), by dispatch priority.",
      "histogram");
  for (int p = 0; p < kRequestPriorityCount; ++p) {
    const LatencyStatsSnapshot& l = s.latency_by_priority[p];
    const char* priority =
        RequestPriorityName(static_cast<RequestPriority>(p));
    int64_t cumulative = 0;
    for (size_t b = 0; b < l.buckets.size(); ++b) {
      cumulative += l.buckets[b];
      out += family;
      out += "_bucket{priority=\"";
      out += priority;
      out += "\",le=\"";
      if (b < LatencyHistogram::kBucketBoundsMs.size()) {
        AppendDouble(out, LatencyHistogram::kBucketBoundsMs[b]);
      } else {
        out += "+Inf";
      }
      out += "\"} ";
      AppendInt(out, cumulative);
      out += '\n';
    }
    out += family;
    out += "_sum{priority=\"";
    out += priority;
    out += "\"} ";
    AppendDouble(out, l.sum_ms);
    out += '\n';
    out += family;
    out += "_count{priority=\"";
    out += priority;
    out += "\"} ";
    AppendInt(out, static_cast<int64_t>(l.count));
    out += '\n';
  }
}

}  // namespace

void AppendFamilyHeader(std::string& out, const char* name,
                        const char* help, const char* type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void AppendIntSample(std::string& out, const char* name,
                     const char* labels, int64_t value) {
  out += name;
  out += labels;
  out += ' ';
  AppendInt(out, value);
  out += '\n';
}

void AppendCounterFamily(std::string& out, const char* name,
                         const char* help, int64_t value) {
  AppendFamilyHeader(out, name, help, "counter");
  AppendIntSample(out, name, "", value);
}

void AppendGaugeFamily(std::string& out, const char* name,
                       const char* help, int64_t value) {
  AppendFamilyHeader(out, name, help, "gauge");
  AppendIntSample(out, name, "", value);
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string FormatPrometheusMetrics(const ServeStatsSnapshot& s) {
  std::string out;
  out.reserve(4096);

  AppendGaugeFamily(out, "predictd_protocol_version",
                    "Wire-protocol major this server speaks.",
                    kServeProtocolVersion);
  // Info-style gauge (value pinned to 1): the identity rides in the
  // label, the predictd_build_info idiom. Label values escape per the
  // exposition format.
  AppendFamilyHeader(out, "predictd_replica_info",
                     "Replica identity of this predictd process.", "gauge");
  const std::string info_labels =
      "{replica_id=\"" + EscapeLabelValue(s.replica_id) + "\"}";
  AppendIntSample(out, "predictd_replica_info", info_labels.c_str(), 1);
  AppendGaugeFamily(out, "predictd_queue_depth",
                    "Distinct evaluations queued for dispatch.",
                    s.queue_depth);
  AppendGaugeFamily(out, "predictd_draining",
                    "1 while the server drains, 0 while it serves.",
                    s.draining ? 1 : 0);

  AppendCounterFamily(
      out, "predictd_requests_total",
      "Admitted predict requests, including coalesced and cached ones.",
      s.requests_total);
  AppendCounterFamily(out, "predictd_evaluations_total",
                      "Point evaluations dispatched to the sweep engine.",
                      s.evaluations_total);
  AppendCounterFamily(
      out, "predictd_coalesced_total",
      "Requests served by an already in-flight duplicate evaluation.",
      s.coalesced_total);

  AppendFamilyHeader(out, "predictd_rejected_total",
                     "Requests rejected before evaluation, by reason.",
                     "counter");
  AppendIntSample(out, "predictd_rejected_total", "{reason=\"overload\"}",
                  s.rejected_overload_total);
  AppendIntSample(out, "predictd_rejected_total", "{reason=\"shutdown\"}",
                  s.rejected_shutdown_total);
  AppendIntSample(out, "predictd_rejected_total", "{reason=\"quota\"}",
                  s.rejected_quota_total);

  AppendCounterFamily(
      out, "predictd_deadline_exceeded_total",
      "Requests answered deadline_exceeded at dequeue (never dropped).",
      s.deadline_exceeded_total);
  AppendCounterFamily(out, "predictd_request_errors_total",
                      "Malformed or semantically invalid request lines.",
                      s.request_errors_total);
  AppendCounterFamily(out, "predictd_responses_total",
                      "Responses written, success and error alike.",
                      s.responses_total);

  AppendGaugeFamily(out, "predictd_worker_threads",
                    "Evaluation worker-pool threads.", s.threads);
  AppendGaugeFamily(out, "predictd_event_loop_threads",
                    "Transport event-loop threads.", s.event_loop_threads);
  AppendGaugeFamily(out, "predictd_event_loop_pending_tasks",
                    "Cross-thread tasks queued on the event loops.",
                    s.event_loop_pending_tasks);
  AppendGaugeFamily(out, "predictd_connections",
                    "Currently open client connections.",
                    s.connections_current);
  AppendCounterFamily(out, "predictd_connections_total",
                      "Connections accepted since startup.",
                      s.connections_total);
  AppendCounterFamily(out, "predictd_metrics_requests_total",
                      "GET /metrics scrapes served.",
                      s.metrics_requests_total);

  AppendFamilyHeader(out, "predictd_response_cache_lookups_total",
                     "Predict requests by response-cache result (a hit is "
                     "answered without evaluating).",
                     "counter");
  AppendIntSample(out, "predictd_response_cache_lookups_total",
                  "{result=\"hit\"}", s.response_cache.hits);
  AppendIntSample(out, "predictd_response_cache_lookups_total",
                  "{result=\"miss\"}", s.response_cache.misses);
  AppendGaugeFamily(out, "predictd_response_cache_entries",
                    "Resident response-cache answers.",
                    s.response_cache.size);
  AppendCounterFamily(out, "predictd_response_cache_evictions_total",
                      "Response-cache evictions.",
                      s.response_cache.evictions);

  AppendFamilyHeader(out, "predictd_cache_lookups_total",
                     "Shared solve-cache lookups, by result.", "counter");
  AppendIntSample(out, "predictd_cache_lookups_total", "{result=\"hit\"}",
                  s.cache.hits);
  AppendIntSample(out, "predictd_cache_lookups_total", "{result=\"miss\"}",
                  s.cache.misses);
  AppendGaugeFamily(out, "predictd_cache_entries",
                    "Resident solve-cache entries.", s.cache.size);
  AppendGaugeFamily(out, "predictd_cache_shards",
                    "Lock shards of the shared solve cache.",
                    s.cache_shards > 0 ? s.cache_shards : 1);
  AppendCounterFamily(out, "predictd_cache_insertions_total",
                      "Solve-cache insertions.", s.cache.insertions);
  AppendCounterFamily(out, "predictd_cache_evictions_total",
                      "Solve-cache evictions.", s.cache.evictions);
  AppendCounterFamily(out, "predictd_cache_solves_total",
                      "Fixed-point solves executed (one per miss).",
                      s.cache.solves);
  AppendCounterFamily(out, "predictd_cache_solve_iterations_total",
                      "Damped-sweep iterations across executed solves.",
                      s.cache.solve_iterations);

  AppendLatencyHistogram(out, "predictd_request_latency_milliseconds", s);
  return out;
}

namespace {

bool IsMetricNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsMetricNameChar(char c) {
  return IsMetricNameStart(c) || (c >= '0' && c <= '9');
}

bool IsLabelNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool IsLabelNameChar(char c) {
  return IsLabelNameStart(c) || (c >= '0' && c <= '9');
}

Status LineError(size_t lineno, const std::string& what) {
  return Status::InvalidArgument("metrics line " + std::to_string(lineno) +
                                 ": " + what);
}

/// One parsed sample line.
struct Sample {
  std::string name;
  /// Insertion-ordered (label order is part of the exposition).
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
};

/// Parses `name{labels} value [timestamp]`; nullopt-style failure via
/// Status. Label values un-escape \\, \" and \n.
Result<Sample> ParseSampleLine(const std::string& line, size_t lineno) {
  Sample sample;
  size_t i = 0;
  if (i >= line.size() || !IsMetricNameStart(line[i])) {
    return LineError(lineno, "sample must start with a metric name");
  }
  while (i < line.size() && IsMetricNameChar(line[i])) ++i;
  sample.name = line.substr(0, i);

  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      size_t name_start = i;
      if (!IsLabelNameStart(line[i])) {
        return LineError(lineno, "bad label name");
      }
      while (i < line.size() && IsLabelNameChar(line[i])) ++i;
      std::string label_name = line.substr(name_start, i - name_start);
      if (i >= line.size() || line[i] != '=') {
        return LineError(lineno, "label '" + label_name + "' missing '='");
      }
      ++i;
      if (i >= line.size() || line[i] != '"') {
        return LineError(lineno,
                         "label '" + label_name + "' value not quoted");
      }
      ++i;
      std::string value;
      bool closed = false;
      while (i < line.size()) {
        const char c = line[i];
        if (c == '\\') {
          if (i + 1 >= line.size()) {
            return LineError(lineno, "dangling escape in label value");
          }
          const char next = line[i + 1];
          if (next == '\\') {
            value += '\\';
          } else if (next == '"') {
            value += '"';
          } else if (next == 'n') {
            value += '\n';
          } else {
            return LineError(lineno, "bad escape in label value");
          }
          i += 2;
          continue;
        }
        if (c == '"') {
          closed = true;
          ++i;
          break;
        }
        value += c;
        ++i;
      }
      if (!closed) {
        return LineError(lineno, "unterminated label value");
      }
      sample.labels.emplace_back(std::move(label_name), std::move(value));
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') {
      return LineError(lineno, "unterminated label set");
    }
    ++i;
  }

  if (i >= line.size() || line[i] != ' ') {
    return LineError(lineno, "missing value separator");
  }
  while (i < line.size() && line[i] == ' ') ++i;
  size_t value_start = i;
  while (i < line.size() && line[i] != ' ') ++i;
  const std::string value_token = line.substr(value_start, i - value_start);
  if (value_token.empty()) {
    return LineError(lineno, "missing sample value");
  }
  char* end = nullptr;
  sample.value = std::strtod(value_token.c_str(), &end);
  if (end == value_token.c_str() || *end != '\0') {
    return LineError(lineno, "bad sample value '" + value_token + "'");
  }
  // Optional timestamp: an integer in milliseconds.
  while (i < line.size() && line[i] == ' ') ++i;
  if (i < line.size()) {
    size_t ts_start = i;
    if (line[i] == '-' || line[i] == '+') ++i;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') ++i;
    if (i != line.size() || i == ts_start) {
      return LineError(lineno, "trailing garbage after sample value");
    }
  }
  return sample;
}

/// Accumulated state of one histogram series (one label set).
struct HistogramSeries {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  bool has_sum = false;
  bool has_count = false;
  double count = 0.0;
  size_t first_lineno = 0;
};

std::string SeriesKey(const Sample& sample) {
  std::string key;
  for (const auto& [name, value] : sample.labels) {
    if (name == "le") continue;
    key += name;
    key += '=';
    key += value;
    key += '\x1f';
  }
  return key;
}

}  // namespace

Status ValidatePrometheusText(const std::string& body) {
  if (!body.empty() && body.back() != '\n') {
    return Status::InvalidArgument(
        "metrics body must end with a newline");
  }
  std::map<std::string, std::string> declared_type;
  std::set<std::string> sampled_families;
  // (family, series-key) -> accumulated histogram state.
  std::map<std::pair<std::string, std::string>, HistogramSeries> histograms;

  size_t lineno = 0;
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t nl = body.find('\n', pos);
    const std::string line = body.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    if (line.empty()) continue;

    if (line[0] == '#') {
      const bool is_help = line.compare(0, 7, "# HELP ") == 0;
      const bool is_type = line.compare(0, 7, "# TYPE ") == 0;
      if (!is_help && !is_type) continue;  // plain comment
      const size_t name_start = 7;
      size_t name_end = name_start;
      while (name_end < line.size() && IsMetricNameChar(line[name_end])) {
        ++name_end;
      }
      if (name_end == name_start) {
        return LineError(lineno, "comment names no metric");
      }
      const std::string name = line.substr(name_start, name_end - name_start);
      if (is_type) {
        if (name_end >= line.size() || line[name_end] != ' ') {
          return LineError(lineno, "TYPE line missing a type");
        }
        const std::string type = line.substr(name_end + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return LineError(lineno, "unknown metric type '" + type + "'");
        }
        if (declared_type.count(name) != 0) {
          return LineError(lineno, "duplicate TYPE for '" + name + "'");
        }
        if (sampled_families.count(name) != 0) {
          return LineError(
              lineno, "TYPE for '" + name + "' after its first sample");
        }
        declared_type[name] = type;
      }
      continue;
    }

    MRPERF_ASSIGN_OR_RETURN(const Sample sample,
                            ParseSampleLine(line, lineno));

    // Resolve the family: histogram samples spell base_{bucket,sum,count}.
    std::string family = sample.name;
    std::string suffix;
    for (const char* s : {"_bucket", "_sum", "_count"}) {
      const size_t len = std::strlen(s);
      if (family.size() > len &&
          family.compare(family.size() - len, len, s) == 0) {
        const std::string base = family.substr(0, family.size() - len);
        auto it = declared_type.find(base);
        if (it != declared_type.end() && it->second == "histogram") {
          family = base;
          suffix = s;
          break;
        }
      }
    }
    sampled_families.insert(family);

    auto type_it = declared_type.find(family);
    if (type_it != declared_type.end() && type_it->second == "histogram") {
      if (suffix.empty()) {
        return LineError(lineno, "histogram '" + family +
                                     "' sampled without a "
                                     "_bucket/_sum/_count suffix");
      }
      HistogramSeries& series =
          histograms[{family, SeriesKey(sample)}];
      if (series.first_lineno == 0) series.first_lineno = lineno;
      if (suffix == "_bucket") {
        const std::pair<std::string, std::string>* le = nullptr;
        for (const auto& label : sample.labels) {
          if (label.first == "le") le = &label;
        }
        if (le == nullptr) {
          return LineError(lineno, "histogram bucket without an le label");
        }
        double bound;
        if (le->second == "+Inf") {
          bound = std::numeric_limits<double>::infinity();
        } else {
          char* end = nullptr;
          bound = std::strtod(le->second.c_str(), &end);
          if (end == le->second.c_str() || *end != '\0') {
            return LineError(lineno, "bad le value '" + le->second + "'");
          }
        }
        series.buckets.emplace_back(bound, sample.value);
      } else if (suffix == "_sum") {
        series.has_sum = true;
      } else {
        series.has_count = true;
        series.count = sample.value;
      }
    }
  }

  for (const auto& [key, series] : histograms) {
    const std::string where =
        "histogram '" + key.first + "' (line " +
        std::to_string(series.first_lineno) + ")";
    if (series.buckets.empty()) {
      return Status::InvalidArgument(where + " has no buckets");
    }
    for (size_t b = 1; b < series.buckets.size(); ++b) {
      if (series.buckets[b].first <= series.buckets[b - 1].first) {
        return Status::InvalidArgument(where +
                                       " le bounds not strictly increasing");
      }
      if (series.buckets[b].second < series.buckets[b - 1].second) {
        return Status::InvalidArgument(where + " buckets not cumulative");
      }
    }
    if (!std::isinf(series.buckets.back().first)) {
      return Status::InvalidArgument(where + " missing the +Inf bucket");
    }
    if (!series.has_sum) {
      return Status::InvalidArgument(where + " missing _sum");
    }
    if (!series.has_count) {
      return Status::InvalidArgument(where + " missing _count");
    }
    if (series.count != series.buckets.back().second) {
      return Status::InvalidArgument(where +
                                     " _count does not equal the +Inf "
                                     "bucket");
    }
  }
  return Status::OK();
}

}  // namespace mrperf
