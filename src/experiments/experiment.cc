#include "experiments/experiment.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/statistics.h"
#include "model/input.h"
#include "workload/wordcount.h"

namespace mrperf {
namespace {

Status ValidatePoint(const ExperimentPoint& point) {
  if (point.num_nodes < 1) {
    return Status::InvalidArgument("num_nodes must be >= 1");
  }
  if (point.input_bytes <= 0) {
    return Status::InvalidArgument("input_bytes must be positive");
  }
  if (point.num_jobs < 1) {
    return Status::InvalidArgument("num_jobs must be >= 1");
  }
  if (point.block_size_bytes <= 0) {
    return Status::InvalidArgument("block_size_bytes must be positive");
  }
  if (point.num_reducers < 0) {
    return Status::InvalidArgument("num_reducers must be >= 0");
  }
  return ValidateScenario(point.scenario);
}

HadoopConfig ConfigFor(const ExperimentPoint& point) {
  return PaperHadoopConfig(point.block_size_bytes, point.num_reducers);
}

/// Cluster for the point: the uniform paper cluster, or — with a
/// scenario cluster shape — its node groups (num_nodes then follows the
/// shape's total so every consumer sees a consistent count).
ClusterConfig ClusterFor(const ExperimentPoint& point) {
  ClusterConfig cluster = PaperCluster(point.num_nodes);
  if (!point.scenario.cluster.empty()) {
    cluster.node_groups = point.scenario.cluster;
    cluster.num_nodes = cluster.TotalNodes();
  }
  return cluster;
}

/// Workload profile for the point: the scenario's named profile, or the
/// experiment options' profile when the scenario leaves it unset.
Result<JobProfile> ProfileFor(const ExperimentPoint& point,
                              const ExperimentOptions& options) {
  if (point.scenario.profile.empty()) return options.profile;
  return WorkloadProfileByName(point.scenario.profile);
}

}  // namespace

bool operator==(const ExperimentPoint& a, const ExperimentPoint& b) {
  return a.num_nodes == b.num_nodes && a.input_bytes == b.input_bytes &&
         a.num_jobs == b.num_jobs &&
         a.block_size_bytes == b.block_size_bytes &&
         a.num_reducers == b.num_reducers && a.scenario == b.scenario;
}

bool operator!=(const ExperimentPoint& a, const ExperimentPoint& b) {
  return !(a == b);
}

int PointNodeCount(const ExperimentPoint& point) {
  if (point.scenario.cluster.empty()) return point.num_nodes;
  int total = 0;
  for (const ClusterNodeGroup& g : point.scenario.cluster) {
    total += g.count;
  }
  return total;
}

std::string PointLabel(const ExperimentPoint& point) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                // lint:allow-next-line(double-format): label, not serialized
                "n%d %.1fGB j%d b%lldMB r%d",
                PointNodeCount(point),
                static_cast<double>(point.input_bytes) / kGiB,
                point.num_jobs,
                static_cast<long long>(point.block_size_bytes / kMiB),
                point.num_reducers);
  std::string label = buf;
  if (!point.scenario.IsDefault()) {
    label += " [" + ScenarioLabel(point.scenario) + "]";
  }
  return label;
}

ExperimentOptions DefaultExperimentOptions() {
  ExperimentOptions opts;
  opts.profile = WordCountProfile();
  // Calibration, fitted with examples/calibration_sweep.cpp: task-duration
  // variability of the simulated testbed, damped overlap factors (the
  // tuning the paper's conclusions point at), and slightly heavy-tailed
  // leaf responses for the Tripathi estimator.
  opts.sim.task_cv = 1.3;
  opts.model.overlap.alpha_scale = 0.6;
  opts.model.overlap.beta_scale = 0.4;
  opts.model.estimator.leaf_cv = 1.10;
  return opts;
}

Result<double> RunSimulatedRepetition(const ExperimentPoint& point,
                                      const ExperimentOptions& options,
                                      int rep) {
  MRPERF_RETURN_NOT_OK(ValidatePoint(point));
  if (rep < 0) {
    return Status::InvalidArgument("rep must be >= 0");
  }
  const ClusterConfig cluster = ClusterFor(point);
  const HadoopConfig config = ConfigFor(point);
  MRPERF_ASSIGN_OR_RETURN(const JobProfile profile,
                          ProfileFor(point, options));
  SimOptions sim_opts = options.sim;
  sim_opts.seed = options.base_seed + static_cast<uint64_t>(rep) * 7919;
  sim_opts.scheduler = point.scenario.scheduler;
  ClusterSimulator sim(cluster, sim_opts);
  for (int j = 0; j < point.num_jobs; ++j) {
    SimJobSpec spec;
    spec.profile = profile;
    spec.config = config;
    spec.input_bytes = point.input_bytes;
    spec.submit_time = 0.0;  // §5.1: jobs executed simultaneously
    MRPERF_RETURN_NOT_OK(sim.SubmitJob(spec));
  }
  MRPERF_ASSIGN_OR_RETURN(SimResult result, sim.Run());
  return result.MeanJobResponse();
}

Result<double> RunSimulatedMeasurement(const ExperimentPoint& point,
                                       const ExperimentOptions& options) {
  MRPERF_RETURN_NOT_OK(ValidatePoint(point));
  if (options.repetitions < 1) {
    return Status::InvalidArgument("repetitions must be >= 1");
  }
  std::vector<double> means;
  means.reserve(options.repetitions);
  for (int rep = 0; rep < options.repetitions; ++rep) {
    MRPERF_ASSIGN_OR_RETURN(double mean,
                            RunSimulatedRepetition(point, options, rep));
    means.push_back(mean);
  }
  return Median(means);
}

Result<ModelResult> RunModelPrediction(const ExperimentPoint& point,
                                       const ExperimentOptions& options) {
  MRPERF_RETURN_NOT_OK(ValidatePoint(point));
  const ClusterConfig cluster = ClusterFor(point);
  const HadoopConfig config = ConfigFor(point);
  MRPERF_ASSIGN_OR_RETURN(const JobProfile profile,
                          ProfileFor(point, options));
  // The analytic model always assumes the capacity scheduler's FIFO
  // placement (§4.2.2); under a Tetris scenario the measured-vs-model gap
  // quantifies how far that assumption carries.
  MRPERF_ASSIGN_OR_RETURN(
      ModelInput input,
      ModelInputFromHerodotou(cluster, config, profile, point.input_bytes,
                              point.num_jobs));
  return SolveModel(input, options.model);
}

Result<ExperimentResult> AssembleExperimentResult(
    const ExperimentPoint& point, const ModelResult& model,
    const std::vector<double>& rep_means) {
  ExperimentResult out;
  out.point = point;
  out.forkjoin_sec = model.forkjoin_response;
  out.tripathi_sec = model.tripathi_response;
  out.model_iterations = model.iterations;
  out.model_converged = model.converged;
  out.tree_depth = model.tree_depth;
  out.mva_iterations = model.mva_iterations;
  if (rep_means.empty()) {
    // No measurement to compare against: the errors are undefined, and
    // the serializers' non-finite rule turns them into JSON null.
    out.measured_sec = std::numeric_limits<double>::quiet_NaN();
    out.forkjoin_error = std::numeric_limits<double>::quiet_NaN();
    out.tripathi_error = std::numeric_limits<double>::quiet_NaN();
    return out;
  }
  out.measured_sec = Median(rep_means);
  MRPERF_ASSIGN_OR_RETURN(
      out.forkjoin_error,
      SignedRelativeError(out.forkjoin_sec, out.measured_sec));
  MRPERF_ASSIGN_OR_RETURN(
      out.tripathi_error,
      SignedRelativeError(out.tripathi_sec, out.measured_sec));
  return out;
}

Result<ExperimentResult> RunExperiment(const ExperimentPoint& point,
                                       const ExperimentOptions& options) {
  std::vector<double> rep_means;
  if (options.repetitions != 0) {
    if (options.repetitions < 1) {
      return Status::InvalidArgument("repetitions must be >= 1");
    }
    MRPERF_RETURN_NOT_OK(ValidatePoint(point));
    rep_means.reserve(options.repetitions);
    for (int rep = 0; rep < options.repetitions; ++rep) {
      MRPERF_ASSIGN_OR_RETURN(double mean,
                              RunSimulatedRepetition(point, options, rep));
      rep_means.push_back(mean);
    }
  }
  MRPERF_ASSIGN_OR_RETURN(ModelResult model,
                          RunModelPrediction(point, options));
  return AssembleExperimentResult(point, model, rep_means);
}

}  // namespace mrperf
