/// \file experiment.h
/// \brief Experiment driver: runs the cluster simulator ("HadoopSetup",
/// the measured series of Figures 10–15) against the analytic model's
/// Fork/Join and Tripathi estimates for one workload point, and computes
/// the relative errors the paper reports in §5.2.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "experiments/scenario.h"
#include "hadoop/config.h"
#include "hadoop/job_profile.h"
#include "model/model.h"
#include "sim/cluster_sim.h"

namespace mrperf {

/// \brief One point of the evaluation grid: the paper's numeric §5.1
/// parameters plus the scenario axes (scheduler × workload profile ×
/// cluster shape) the paper held fixed. A default scenario reproduces
/// the paper baseline byte-identically; a non-empty scenario.cluster
/// overrides num_nodes with the shape's total node count.
struct ExperimentPoint {
  int num_nodes = 4;
  int64_t input_bytes = 1 * kGiB;
  int num_jobs = 1;
  int64_t block_size_bytes = 128 * kMiB;
  int num_reducers = 2;
  ScenarioSpec scenario;
};

bool operator==(const ExperimentPoint& a, const ExperimentPoint& b);
bool operator!=(const ExperimentPoint& a, const ExperimentPoint& b);

/// \brief Nodes the point actually runs on: the scenario cluster
/// shape's total when one is set (num_nodes is superseded then), else
/// num_nodes. Labels and serializers report this count.
int PointNodeCount(const ExperimentPoint& point);

/// \brief Compact human-readable label, e.g. "n4 1.0GB j1 b128MB r2";
/// non-default scenarios append their label, e.g. "… [tetris/terasort/
/// 2x65536MBx12c+2x16384MBx4c]".
std::string PointLabel(const ExperimentPoint& point);

/// \brief Run configuration.
struct ExperimentOptions {
  /// Simulator repetitions; the paper repeats each experiment 5 times and
  /// takes the median (§5.1). 0 makes RunExperiment model-only (the
  /// serving layer's "model" mode): the simulator is skipped and
  /// measured_sec plus both error fields come back NaN — which the sweep
  /// serializers emit as JSON null / CSV nan.
  int repetitions = 5;
  uint64_t base_seed = 1234;
  /// Simulator knobs. `sim.scheduler` is superseded per point by
  /// ExperimentPoint::scenario.scheduler (default: capacity FIFO).
  SimOptions sim;
  ModelOptions model;
  /// Workload profile, superseded per point by a non-empty
  /// ExperimentPoint::scenario.profile.
  JobProfile profile;
};

/// \brief Measured-vs-predicted outcome for one point.
struct ExperimentResult {
  ExperimentPoint point;
  /// Median (over repetitions) of the simulator's mean job response.
  double measured_sec = 0.0;
  double forkjoin_sec = 0.0;
  double tripathi_sec = 0.0;
  /// Signed relative errors (positive = overestimate).
  double forkjoin_error = 0.0;
  double tripathi_error = 0.0;
  int model_iterations = 0;
  bool model_converged = false;
  int tree_depth = 0;
  /// A4 solver effort of the model run (ModelResult::mva_iterations):
  /// damped MVA sweeps executed across the outer loop.
  int64_t mva_iterations = 0;
};

/// \brief Default options with the paper's WordCount calibration.
ExperimentOptions DefaultExperimentOptions();

/// \brief Runs simulator + model for one grid point.
Result<ExperimentResult> RunExperiment(const ExperimentPoint& point,
                                       const ExperimentOptions& options);

/// \brief Runs only the simulator side (used by calibration and tests).
Result<double> RunSimulatedMeasurement(const ExperimentPoint& point,
                                       const ExperimentOptions& options);

/// \brief Runs repetition `rep` alone (seed = base_seed + rep·7919) and
/// returns its mean job response. RunSimulatedMeasurement is the median
/// over reps 0..repetitions−1 of exactly these values, so evaluating
/// repetitions as parallel sub-tasks (the sweep engine's small-grid
/// fan-out) and assembling with AssembleExperimentResult reproduces
/// RunExperiment byte for byte.
Result<double> RunSimulatedRepetition(const ExperimentPoint& point,
                                      const ExperimentOptions& options,
                                      int rep);

/// \brief Combines a model prediction with per-repetition simulator
/// means into the final result. Empty `rep_means` is the model-only
/// mode: measured_sec and both error fields come back NaN. Shared by
/// RunExperiment and the sweep engine's repetition fan-out.
Result<ExperimentResult> AssembleExperimentResult(
    const ExperimentPoint& point, const ModelResult& model,
    const std::vector<double>& rep_means);

/// \brief Runs only the model side.
Result<ModelResult> RunModelPrediction(const ExperimentPoint& point,
                                       const ExperimentOptions& options);

}  // namespace mrperf
