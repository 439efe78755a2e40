/// \file workloads.h
/// \brief The four workloads (README.md says why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "layers.h"
#include "trace.h"

namespace perfbench {

/// \brief One invocation of the benchmark.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time per phase; set-up and checks come on top.
  double seconds = 15.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Reference predictions of the offline grids (reference.txt).
  std::string reference_path;
  /// Where the traced run writes its spans.
  std::string trace_dir;
};

/// \brief What a run measured and whether its outputs were right.
struct Outcome {
  /// Output-check failures; the run is correct when this is empty.
  std::vector<std::string> problems;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line: the
  /// workload's own metrics (grid_s, error percentages, goodput, ...),
  /// sample counts and percentiles used.
  std::vector<std::string> notes;

  void Problem(const std::string& what) { problems.push_back(what); }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// \brief End-to-end metric names every workload reports, in order.
/// The tail latency is printed beside them on every run; it is not in
/// the result line because its run-to-run spread on the served
/// workloads (up to 0.26 of its median over ten seeds) reaches the
/// largest regression bound a metric may have (README.md).
inline const char* const kEndToEndMetrics[] = {"setup_s", "p50_ms",
                                               "points_per_s", "peak_rss_mb"};

/// \brief Per-layer metric names every traced run reports, in order.
inline const char* const kPerLayerMetrics[] = {
    "hadoop.model_input_ms", "model.solve_ms", "model.outer_iterations",
    "model.timeline_ms", "model.overlap_ms", "model.tree_ms",
    "model.forkjoin_ms", "model.tripathi_ms", "model.replay_coverage",
    "distributions.max_moments_calls", "queueing.mva_ms",
    "queueing.mva_sweeps", "sim.repetition_ms", "sim.events",
    "serve.parse_us", "serve.canonical_key_us", "serve.evaluation_ms",
    "serve.response_us", "fleet.expand_us", "fleet.route_us",
    "fleet.merge_us", "fleet.replica_imbalance",
    "queueing.solve_cache_hit_ratio", "engine.parallel_efficiency",
    "serve.queue_wait_ms", "serve.batch_size_mean",
    "serve.cpu_ms_per_request", "serve.evaluations_per_request",
    "client.late_p99_ms", "client.sent", "client.failed",
    "trace.overhead_pct"};

/// \brief Per-layer metrics a workload measures itself rather than
/// through the replay (see README.md for their definitions).
struct WorkloadLayers {
  double solve_cache_hit_ratio = 0.0;
  double parallel_efficiency = 0.0;
  double queue_wait_ms = 0.0;
  double batch_size_mean = 0.0;
  double cpu_ms_per_request = 0.0;
  double evaluations_per_request = 0.0;
  double late_p99_ms = 0.0;
  double sent = 0.0;
  double failed = 0.0;
  double overhead_pct = 0.0;
};

/// \brief Every per-layer metric, in kPerLayerMetrics order.
std::vector<Metric> LayerMetrics(const Tracer& tracer,
                                 const ReplayCounts& counts,
                                 const WorkloadLayers& workload);

Outcome RunModelGrid(const RunConfig& config);
Outcome RunPaperGrid(const RunConfig& config);
Outcome RunWhatif(const RunConfig& config);
Outcome RunFleetSweep(const RunConfig& config);

/// \brief Evaluates both offline grids once and writes reference.txt.
int WriteReference(const std::string& path);

/// \brief Distinct id-less predict lines of `sweep_lines`, in expansion
/// order.
std::vector<std::string> DistinctPointLines(
    const std::vector<std::string>& sweep_lines);

/// \brief High-water RSS of this process, MiB.
double SelfPeakRssMb();

/// \brief User + system CPU seconds of this process so far.
double SelfCpuSeconds();

/// \brief "name = value unit" note line.
std::string NoteLine(const std::string& name, double value,
                     const std::string& unit, const std::string& detail = "");

/// \brief Writes `tracer`'s spans to <trace_dir>/<workload>-<seed>.jsonl
/// and notes where they went.
void WriteSpans(const RunConfig& config, const Tracer& tracer, Outcome* out);

}  // namespace perfbench
