/// \file calibration_sweep.cpp
/// \brief Calibration explorer: sweeps the simulator's task-duration
/// variability (task_cv) and the model's intra-job overlap scale (the
/// tuning knob the paper's conclusions single out), reporting
/// model-vs-simulator errors on representative workload points. The values
/// chosen from this sweep are the defaults DefaultExperimentOptions sets
/// (experiments/experiment.cc); the same sweep is how a user would fit the
/// model to their own cluster.
///
/// The full (task_cv × alpha × point) grid is flattened into one task
/// list and fanned out through the engine's SweepRunner; the shared MVA
/// cache deduplicates the model solves that repeat across task_cv values
/// (task_cv only perturbs the simulator side).
///
/// Usage: calibration_sweep [task_cv...]   (defaults: 0.9 1.0 1.1)

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "engine/sweep_runner.h"
#include "experiments/experiment.h"
#include "experiments/report.h"

int main(int argc, char** argv) {
  using namespace mrperf;

  const auto point = [](int nodes, int64_t input_bytes, int jobs) {
    ExperimentPoint p;
    p.num_nodes = nodes;
    p.input_bytes = input_bytes;
    p.num_jobs = jobs;
    return p;
  };
  const std::vector<ExperimentPoint> points = {
      point(4, 1 * kGiB, 1), point(8, 1 * kGiB, 1), point(4, 5 * kGiB, 1),
      point(8, 5 * kGiB, 1), point(4, 1 * kGiB, 4), point(4, 5 * kGiB, 4),
  };
  const char* labels[] = {"1GBx1j n4", "1GBx1j n8", "5GBx1j n4",
                          "5GBx1j n8", "1GBx4j n4", "5GBx4j n4"};

  std::vector<double> cvs;
  for (int i = 1; i < argc; ++i) cvs.push_back(std::atof(argv[i]));
  if (cvs.empty()) cvs = {0.9, 1.0, 1.1};
  const std::vector<double> alphas = {0.6, 0.8, 1.0};

  // Flatten the whole (cv, alpha, point) grid into one parallel batch.
  std::vector<SweepRunner::Task> tasks;
  tasks.reserve(cvs.size() * alphas.size() * points.size());
  for (double cv : cvs) {
    for (double alpha : alphas) {
      for (const ExperimentPoint& point : points) {
        SweepRunner::Task task;
        task.point = point;
        task.options = DefaultExperimentOptions();
        task.options.sim.task_cv = cv;
        task.options.model.overlap.alpha_scale = alpha;
        task.options.model.overlap.beta_scale = alpha;
        task.options.repetitions = 3;
        // Pin the calibrated seed so the measured series is held fixed
        // while alpha varies — the comparison the calibration reads —
        // and stays aligned with DefaultExperimentOptions' calibration.
        task.derive_seed = false;
        tasks.push_back(task);
      }
    }
  }

  SweepRunner runner;
  SweepReport report = runner.RunTasks(tasks);

  size_t idx = 0;
  for (double cv : cvs) {
    for (double alpha : alphas) {
      std::printf("--- task_cv %.2f  alpha_scale %.2f ---\n", cv, alpha);
      for (size_t i = 0; i < points.size(); ++i, ++idx) {
        const auto& r = report.results[idx];
        if (!r.ok()) {
          std::fprintf(stderr, "%s: %s\n", labels[i],
                       r.status().ToString().c_str());
          continue;
        }
        std::printf(
            "%-10s measured %7.1f  FJ %7.1f (%+5.1f%%)  Tri %7.1f (%+5.1f%%)\n",
            labels[i], r->measured_sec, r->forkjoin_sec,
            r->forkjoin_error * 100, r->tripathi_sec,
            r->tripathi_error * 100);
      }
    }
  }
  PrintSweepStats(std::cout, tasks.size(), report.threads_used,
                  report.wall_seconds, report.cache_stats.hits,
                  report.cache_stats.lookups());
  return 0;
}
