/// \file figure_common.h
/// \brief Shared driver for the figure-reproduction benches: expands the
/// figure's parameter grid, fans it out through the engine's SweepRunner
/// (simulator "HadoopSetup" + both model estimators per point), and
/// prints the series of the corresponding paper figure.

#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "engine/sweep_csv.h"
#include "engine/sweep_grid.h"
#include "engine/sweep_json.h"
#include "engine/sweep_runner.h"
#include "experiments/experiment.h"
#include "experiments/report.h"

namespace mrperf::bench {

/// Persists sweep results to `out_path` when non-empty (sweep_csv.h);
/// returns false (after printing the error) when the write fails.
inline bool MaybeWriteCsv(const std::string& out_path,
                          const std::vector<ExperimentResult>& results) {
  if (out_path.empty()) return true;
  const Status status = WriteSweepCsv(out_path, results);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", out_path.c_str(),
                 status.ToString().c_str());
    return false;
  }
  std::printf("wrote %zu rows to %s\n", results.size(), out_path.c_str());
  return true;
}

/// Persists sweep results as JSON when `json_path` is non-empty
/// (sweep_json.h); returns false (after printing) when the write fails.
inline bool MaybeWriteJson(const std::string& json_path,
                           const std::vector<ExperimentResult>& results) {
  if (json_path.empty()) return true;
  const Status status = WriteSweepJson(json_path, results);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", json_path.c_str(),
                 status.ToString().c_str());
    return false;
  }
  std::printf("wrote %zu records to %s\n", results.size(),
              json_path.c_str());
  return true;
}

/// Runs a figure grid through the sweep engine and prints its table;
/// `out_path` / `json_path` optionally persist the series as CSV
/// (--out=) and JSON (--json-out=).
inline int RunFigureSweep(const std::string& title, const SweepGrid& grid,
                          const std::vector<double>& x_values,
                          const std::string& x_label, int num_threads,
                          const std::string& out_path = std::string(),
                          const std::string& json_path = std::string()) {
  SweepOptions sweep_opts;
  sweep_opts.num_threads = num_threads;
  sweep_opts.experiment = DefaultExperimentOptions();
  // Figures reproduce the calibrated measurement stream: the §5
  // calibration was fit at the default base seed, and simulated medians
  // are seed-sensitive. Parallelism stays byte-deterministic either way.
  sweep_opts.derive_point_seeds = false;
  SweepRunner runner(sweep_opts);

  SweepReport report = runner.Run(grid);
  if (!report.all_ok()) {
    const std::vector<ExperimentPoint> points = grid.Expand();
    for (size_t i = 0; i < report.results.size(); ++i) {
      if (!report.results[i].ok()) {
        std::fprintf(stderr, "experiment %s failed: %s\n",
                     PointLabel(points[i]).c_str(),
                     report.results[i].status().ToString().c_str());
      }
    }
    return 1;
  }
  const std::vector<ExperimentResult> results = report.values();
  PrintFigureTable(std::cout, title, x_label, x_values, results);
  PrintErrorSummary(std::cout, title + " — error summary",
                    SummarizeErrors(results));
  PrintSweepStats(std::cout, results.size(), report.threads_used,
                  report.wall_seconds, report.cache_stats.hits,
                  report.cache_stats.lookups());
  if (!MaybeWriteCsv(out_path, results)) return 1;
  if (!MaybeWriteJson(json_path, results)) return 1;
  return 0;
}

/// Runs a node sweep at fixed input size / job count (Figures 10-13, 15).
inline int RunNodeSweepFigure(const std::string& title, double input_gb,
                              int num_jobs, int64_t block_size_bytes,
                              int num_threads = 0,
                              const std::string& out_path = std::string(),
                              const std::string& json_path = std::string()) {
  const std::vector<int> nodes = {4, 6, 8};
  SweepGrid grid;
  grid.Nodes(nodes)
      .InputGigabytes({input_gb})
      .Jobs({num_jobs})
      .BlockSizes({block_size_bytes});
  return RunFigureSweep(title, grid,
                        std::vector<double>(nodes.begin(), nodes.end()),
                        "nodes", num_threads, out_path, json_path);
}

/// Runs a concurrency sweep at fixed nodes / input size (Figure 14).
inline int RunJobSweepFigure(const std::string& title, int nodes,
                             double input_gb, int num_threads = 0,
                             const std::string& out_path = std::string(),
                             const std::string& json_path = std::string()) {
  const std::vector<int> jobs = {1, 2, 3, 4};
  SweepGrid grid;
  grid.Nodes({nodes}).InputGigabytes({input_gb}).Jobs(jobs);
  return RunFigureSweep(title, grid,
                        std::vector<double>(jobs.begin(), jobs.end()),
                        "jobs", num_threads, out_path, json_path);
}

}  // namespace mrperf::bench
