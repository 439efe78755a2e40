#include "workloads.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "fleet/scatter.h"
#include "serve/json.h"

namespace perfbench {

std::vector<std::string> DistinctPointLines(
    const std::vector<std::string>& sweep_lines) {
  std::vector<std::string> lines;
  std::unordered_set<std::string> keys;
  for (const std::string& sweep : sweep_lines) {
    mrperf::Result<mrperf::JsonValue> root = mrperf::ParseJson(sweep);
    if (!root.ok()) continue;
    mrperf::Result<mrperf::SweepExpansion> expansion =
        mrperf::ExpandSweepRequest(*root);
    if (!expansion.ok()) continue;
    for (size_t i = 0; i < expansion->point_lines.size(); ++i) {
      if (keys.insert(expansion->point_keys[i]).second) {
        lines.push_back(expansion->point_lines[i]);
      }
    }
  }
  return lines;
}

double SelfPeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double SelfCpuSeconds() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string NoteLine(const std::string& name, double value,
                     const std::string& unit, const std::string& detail) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  std::string line = name + " = " + buf + " " + unit;
  if (!detail.empty()) line += "  (" + detail + ")";
  return line;
}

std::vector<Metric> LayerMetrics(const Tracer& tracer,
                                 const ReplayCounts& counts,
                                 const WorkloadLayers& w) {
  std::vector<Metric> metrics = ReplayMetrics(tracer, counts);
  const std::vector<Metric> own = {
      {"queueing.solve_cache_hit_ratio", w.solve_cache_hit_ratio, "ratio"},
      {"engine.parallel_efficiency", w.parallel_efficiency, "ratio"},
      {"serve.queue_wait_ms", w.queue_wait_ms, "ms"},
      {"serve.batch_size_mean", w.batch_size_mean, "count"},
      {"serve.cpu_ms_per_request", w.cpu_ms_per_request, "ms"},
      {"serve.evaluations_per_request", w.evaluations_per_request, "ratio"},
      {"client.late_p99_ms", w.late_p99_ms, "ms"},
      {"client.sent", w.sent, "count"},
      {"client.failed", w.failed, "count"},
      {"trace.overhead_pct", w.overhead_pct, "%"}};
  metrics.insert(metrics.end(), own.begin(), own.end());
  return metrics;
}

void WriteSpans(const RunConfig& config, const Tracer& tracer, Outcome* out) {
  if (config.trace_dir.empty()) return;
  const std::string path = config.trace_dir + "/" + config.workload + "-" +
                           std::to_string(config.seed) + ".jsonl";
  const mrperf::Status written = tracer.WriteJsonLines(path);
  if (!written.ok()) {
    out->Problem("writing spans: " + written.ToString());
    return;
  }
  out->Note("spans written to " + path);
}

}  // namespace perfbench
