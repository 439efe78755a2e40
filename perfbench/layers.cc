#include "layers.h"

#include <algorithm>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "engine/sweep_json.h"
#include "experiments/experiment.h"
#include "fleet/ring.h"
#include "fleet/scatter.h"
#include "model/estimators.h"
#include "model/input.h"
#include "model/model.h"
#include "model/overlap.h"
#include "model/precedence_tree.h"
#include "model/timeline.h"
#include "queueing/mva_overlap.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/service.h"
#include "sim/cluster_sim.h"
#include "workload/wordcount.h"

namespace perfbench {
namespace {

using mrperf::ExperimentOptions;
using mrperf::ExperimentPoint;

/// Replica count of the ring fleet.route places points on: the
/// fleet_sweep workload's fleet.
constexpr size_t kRingReplicas = 2;

/// A4 problem of one outer iteration, built the way model/model.cc's
/// file-local builder does: cpu, disk and net centers per node, one
/// demand row per task class group placed on its node.
mrperf::GroupedOverlapMvaProblem BuildGroupedProblem(
    const mrperf::ModelInput& input, mrperf::GroupedOverlapFactors&& overlap) {
  mrperf::GroupedOverlapMvaProblem problem;
  const int nodes = input.NodeCount();
  for (int n = 0; n < nodes; ++n) {
    problem.centers.push_back({"cpu" + std::to_string(n),
                               mrperf::CenterType::kQueueing, input.NodeCpu(n)});
    problem.centers.push_back({"disk" + std::to_string(n),
                               mrperf::CenterType::kQueueing,
                               input.NodeDisk(n)});
    problem.centers.push_back(
        {"net" + std::to_string(n), mrperf::CenterType::kQueueing, 1});
  }
  const size_t k = problem.centers.size();
  for (const mrperf::OverlapGroup& g : overlap.groups) {
    mrperf::OverlapTaskGroup group;
    group.count = g.count;
    group.demand.assign(k, 0.0);
    const size_t base = static_cast<size_t>(g.node) * 3;
    group.demand[base] = g.demand.cpu;
    group.demand[base + 1] = g.demand.disk;
    group.demand[base + 2] = g.demand.network;
    if (g.demand.Total() <= 0) group.demand[base] = 1e-12;
    problem.groups.push_back(std::move(group));
  }
  problem.overlap = std::move(overlap.theta);
  problem.task_group = std::move(overlap.task_group);
  return problem;
}

/// One simulator repetition of a default-scenario point, as
/// RunSimulatedRepetition runs it; returns the mean job response.
mrperf::Result<double> SimulateRepetition(const ExperimentPoint& point,
                                          const ExperimentOptions& options,
                                          int rep, Tracer& tracer,
                                          int64_t parent,
                                          const std::string& subject,
                                          ReplayCounts* counts) {
  mrperf::SimOptions sim_options = options.sim;
  sim_options.seed = options.base_seed + static_cast<uint64_t>(rep) * 7919;
  sim_options.scheduler = point.scenario.scheduler;
  mrperf::ClusterSimulator sim(mrperf::PaperCluster(point.num_nodes),
                               sim_options);
  for (int j = 0; j < point.num_jobs; ++j) {
    mrperf::SimJobSpec spec;
    spec.profile = options.profile;
    spec.config =
        mrperf::PaperHadoopConfig(point.block_size_bytes, point.num_reducers);
    spec.input_bytes = point.input_bytes;
    MRPERF_RETURN_NOT_OK(sim.SubmitJob(spec));
  }
  ScopedSpan span(tracer, "sim.repetition", parent, subject);
  MRPERF_ASSIGN_OR_RETURN(mrperf::SimResult result, sim.Run());
  ++counts->sim_repetitions;
  counts->sim_events += result.events_executed;
  return result.MeanJobResponse();
}

int CountParallelNodes(const mrperf::PrecedenceTree& tree) {
  int n = 0;
  for (const mrperf::TreeNode& node : tree.nodes) {
    if (node.op == mrperf::TreeOp::kParallel) ++n;
  }
  return n;
}

/// One outer iteration (A2-A5) replayed from the converged state and
/// weighted by the iteration count.
mrperf::Status ReplayPhases(const mrperf::ModelInput& input,
                            const mrperf::ModelResult& model,
                            const mrperf::ModelOptions& options,
                            Tracer& tracer, const std::string& subject,
                            mrperf::MvaKernelScratch* scratch,
                            ReplayCounts* counts) {
  const double weight = model.iterations;
  mrperf::TaskDurations durations;
  durations.map = model.map_response;
  durations.merge = model.merge_response;
  const int nodes = input.NodeCount();
  const double remote_maps =
      nodes > 1 ? input.map_tasks * (1.0 - 1.0 / static_cast<double>(nodes))
                : 0.0;
  // The converged network inflation is not exported; the uninflated
  // per-map cost gives a timeline of the same shape.
  durations.shuffle_per_remote_map = input.shuffle_per_remote_map_sec;
  durations.shuffle_sort_base =
      std::max(0.0, model.shuffle_sort_response -
                        remote_maps * durations.shuffle_per_remote_map);

  mrperf::Timeline timeline;
  {
    ScopedSpan span(tracer, "model.timeline", 0, subject);
    span.set_weight(weight);
    MRPERF_ASSIGN_OR_RETURN(timeline, mrperf::BuildTimeline(input, durations));
  }
  mrperf::GroupedOverlapFactors overlap;
  {
    ScopedSpan span(tracer, "model.overlap", 0, subject);
    span.set_weight(weight);
    MRPERF_ASSIGN_OR_RETURN(overlap, mrperf::ComputeGroupedOverlapFactors(
                                         timeline, options.overlap));
  }
  mrperf::OverlapMvaSolution mva;
  {
    ScopedSpan span(tracer, "queueing.mva", 0, subject);
    span.set_weight(weight);
    mrperf::OverlapMvaOptions mva_options = options.mva;
    mva_options.assume_valid = true;
    mva_options.initial_residence = nullptr;
    const mrperf::GroupedOverlapMvaProblem problem =
        BuildGroupedProblem(input, std::move(overlap));
    MRPERF_ASSIGN_OR_RETURN(
        mva, mrperf::SolveGroupedOverlapMva(problem, mva_options, scratch));
  }
  const auto leaf = [&mva](int task_id) { return mva.response[task_id]; };
  mrperf::TreeOptions tree_options;
  tree_options.balance = options.balance_tree;
  for (int job = 0; job < input.num_jobs; ++job) {
    mrperf::PrecedenceTree tree;
    {
      ScopedSpan span(tracer, "model.tree", 0, subject);
      span.set_weight(weight);
      MRPERF_ASSIGN_OR_RETURN(
          tree, mrperf::BuildPrecedenceTree(timeline, job, tree_options));
    }
    counts->max_moments_calls +=
        static_cast<int64_t>(CountParallelNodes(tree)) * model.iterations;
    {
      ScopedSpan span(tracer, "model.forkjoin", 0, subject);
      span.set_weight(weight);
      MRPERF_RETURN_NOT_OK(
          mrperf::EstimateForkJoin(tree, leaf, options.estimator).status());
    }
    {
      ScopedSpan span(tracer, "model.tripathi", 0, subject);
      span.set_weight(weight);
      MRPERF_RETURN_NOT_OK(
          mrperf::EstimateTripathi(tree, leaf, options.estimator).status());
    }
  }
  return mrperf::Status::OK();
}

/// Replays one predict line; returns the result object the replica
/// would have serialized for it.
mrperf::Result<std::string> ReplayPredictLine(
    const std::string& line, const mrperf::HashRing& ring,
    mrperf::SolveCache* cache, mrperf::MvaKernelScratch* scratch,
    Tracer& tracer, size_t* owner, ReplayCounts* counts) {
  mrperf::ServeRequest request;
  {
    ScopedSpan span(tracer, "serve.parse");
    MRPERF_ASSIGN_OR_RETURN(request, mrperf::ParseServeRequest(line));
  }
  std::string key;
  {
    ScopedSpan span(tracer, "serve.canonical_key");
    key = mrperf::CanonicalPredictKey(request.predict);
  }
  {
    ScopedSpan span(tracer, "fleet.route");
    *owner = ring.PreferenceOrder(key).front();
  }
  const mrperf::SweepRunner::Task task = mrperf::TaskForRequest(
      request.predict, mrperf::DefaultExperimentOptions());
  const ExperimentPoint& point = task.point;
  const std::string subject = mrperf::PointLabel(point);
  mrperf::ModelOptions model_options = task.options.model;
  model_options.mva_cache = cache;
  model_options.mva_scratch = scratch;

  mrperf::ModelInput input;
  mrperf::ModelResult model;
  std::vector<double> rep_means;
  {
    ScopedSpan evaluation(tracer, "serve.evaluation", 0, subject);
    for (int rep = 0; rep < task.options.repetitions; ++rep) {
      MRPERF_ASSIGN_OR_RETURN(
          const double mean,
          SimulateRepetition(point, task.options, rep, tracer, evaluation.id(),
                             subject, counts));
      rep_means.push_back(mean);
    }
    {
      ScopedSpan span(tracer, "hadoop.model_input", evaluation.id(), subject);
      MRPERF_ASSIGN_OR_RETURN(
          input, mrperf::ModelInputFromHerodotou(
                     mrperf::PaperCluster(point.num_nodes),
                     mrperf::PaperHadoopConfig(point.block_size_bytes,
                                               point.num_reducers),
                     task.options.profile, point.input_bytes,
                     point.num_jobs));
    }
    {
      ScopedSpan span(tracer, "model.solve", evaluation.id(), subject);
      MRPERF_ASSIGN_OR_RETURN(model, mrperf::SolveModel(input, model_options));
    }
  }
  if (task.options.repetitions == 0) {
    MRPERF_RETURN_NOT_OK(
        SimulateRepetition(point, task.options, 0, tracer, 0, subject, counts)
            .status());
  }
  ++counts->points;
  counts->outer_iterations += model.iterations;
  counts->mva_sweeps += model.mva_iterations;
  MRPERF_RETURN_NOT_OK(ReplayPhases(input, model, task.options.model, tracer,
                                    subject, scratch, counts));
  MRPERF_ASSIGN_OR_RETURN(
      const mrperf::ExperimentResult result,
      mrperf::AssembleExperimentResult(point, model, rep_means));
  {
    ScopedSpan span(tracer, "serve.response", 0, subject);
    const std::string response = mrperf::MakePredictResponse(request.id, result);
    if (response.empty()) return mrperf::Status::Internal("empty response");
  }
  std::string object;
  mrperf::AppendSweepResultJsonObject(object, result);
  return object;
}

}  // namespace

mrperf::Status ReplaySweeps(const std::vector<std::string>& sweep_lines,
                            Tracer& tracer, ReplayCounts* counts) {
  const mrperf::HashRing ring(kRingReplicas);
  const std::unique_ptr<mrperf::SolveCache> cache =
      mrperf::MakeSolveCache(1, 4096);
  mrperf::MvaKernelScratch scratch;
  std::unordered_map<std::string, std::pair<std::string, size_t>> replayed;
  for (const std::string& sweep_line : sweep_lines) {
    mrperf::SweepExpansion expansion;
    {
      ScopedSpan span(tracer, "fleet.expand");
      MRPERF_ASSIGN_OR_RETURN(const mrperf::JsonValue root,
                              mrperf::ParseJson(sweep_line));
      MRPERF_ASSIGN_OR_RETURN(expansion, mrperf::ExpandSweepRequest(root));
    }
    std::vector<std::string> objects;
    std::vector<size_t> per_replica(kRingReplicas, 0);
    for (size_t i = 0; i < expansion.point_lines.size(); ++i) {
      auto it = replayed.find(expansion.point_keys[i]);
      if (it == replayed.end()) {
        size_t owner = 0;
        MRPERF_ASSIGN_OR_RETURN(
            std::string object,
            ReplayPredictLine(expansion.point_lines[i], ring, cache.get(),
                              &scratch, tracer, &owner, counts));
        it = replayed
                 .emplace(expansion.point_keys[i],
                          std::make_pair(std::move(object), owner))
                 .first;
      }
      objects.push_back(it->second.first);
      ++per_replica[it->second.second];
    }
    {
      ScopedSpan span(tracer, "fleet.merge");
      const std::string merged =
          mrperf::MakeSweepResponse(expansion.id, objects);
      if (merged.empty()) return mrperf::Status::Internal("empty sweep");
    }
    const double mean = static_cast<double>(expansion.point_lines.size()) /
                        static_cast<double>(kRingReplicas);
    counts->replica_imbalance_sum +=
        static_cast<double>(
            *std::max_element(per_replica.begin(), per_replica.end())) /
        mean;
    ++counts->sweeps;
  }
  return mrperf::Status::OK();
}

mrperf::Result<ServiceReplay> ReplayThroughService(
    const std::vector<std::string>& lines, const std::vector<double>& offsets_s,
    int workers, Tracer& tracer) {
  std::mutex mu;
  std::vector<std::pair<Clock::time_point, size_t>> batches;
  mrperf::PredictServiceOptions options;
  options.num_threads = workers;
  options.dispatch_hook = [&](size_t size) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    batches.emplace_back(now, size);
  };
  std::vector<Clock::time_point> submitted(lines.size());
  std::vector<std::future<std::string>> responses;
  ServiceReplay replay;
  {
    mrperf::PredictService service(options);
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < lines.size(); ++i) {
      if (!offsets_s.empty()) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offsets_s[i])));
      }
      submitted[i] = Clock::now();
      responses.push_back(service.Submit(lines[i]));
    }
    for (std::future<std::string>& r : responses) {
      const std::string line = r.get();
      if (line.find("\"ok\": true") == std::string::npos) {
        return mrperf::Status::Internal("service replay failed: " + line);
      }
    }
    const mrperf::ServeStatsSnapshot stats = service.Stats();
    replay.evaluations_per_request =
        stats.requests_total > 0
            ? static_cast<double>(stats.evaluations_total) /
                  static_cast<double>(stats.requests_total)
            : 0.0;
  }
  size_t next = 0;
  for (const auto& [dispatched, size] : batches) {
    for (size_t j = 0; j < size && next < lines.size(); ++j, ++next) {
      tracer.Add("serve.queue_wait", submitted[next], dispatched);
      replay.queue_wait_ms_sum += MsBetween(submitted[next], dispatched);
    }
  }
  if (next != lines.size()) {
    return mrperf::Status::Internal("dispatched batches do not cover every "
                                    "request; were points repeated?");
  }
  replay.requests = static_cast<int64_t>(lines.size());
  replay.batches = static_cast<int64_t>(batches.size());
  return replay;
}

std::vector<Metric> ReplayMetrics(const Tracer& tracer,
                                  const ReplayCounts& counts) {
  const double points = std::max<int64_t>(1, counts.points);
  const auto per_point_ms = [&](const char* span) {
    return tracer.WeightedMs(span) / points;
  };
  const auto mean_us = [&](const char* span) {
    const size_t n = tracer.Count(span);
    return n == 0 ? 0.0 : 1000.0 * tracer.WeightedMs(span) /
                              static_cast<double>(n);
  };
  const double solve_ms = tracer.WeightedMs("model.solve");
  double replayed_ms = 0.0;
  for (const char* phase : {"model.timeline", "model.overlap", "queueing.mva",
                            "model.tree", "model.forkjoin", "model.tripathi"}) {
    replayed_ms += tracer.WeightedMs(phase);
  }
  const double reps = std::max<int64_t>(1, counts.sim_repetitions);
  const double sweeps = std::max<int64_t>(1, counts.sweeps);
  return {
      {"hadoop.model_input_ms", per_point_ms("hadoop.model_input"), "ms"},
      {"model.solve_ms", solve_ms / points, "ms"},
      {"model.outer_iterations", counts.outer_iterations / points, "count"},
      {"model.timeline_ms", per_point_ms("model.timeline"), "ms"},
      {"model.overlap_ms", per_point_ms("model.overlap"), "ms"},
      {"model.tree_ms", per_point_ms("model.tree"), "ms"},
      {"model.forkjoin_ms", per_point_ms("model.forkjoin"), "ms"},
      {"model.tripathi_ms", per_point_ms("model.tripathi"), "ms"},
      {"model.replay_coverage", solve_ms > 0 ? replayed_ms / solve_ms : 0.0,
       "ratio"},
      {"distributions.max_moments_calls", counts.max_moments_calls / points,
       "count"},
      {"queueing.mva_ms", per_point_ms("queueing.mva"), "ms"},
      {"queueing.mva_sweeps", counts.mva_sweeps / points, "count"},
      {"sim.repetition_ms", tracer.WeightedMs("sim.repetition") / reps, "ms"},
      {"sim.events", counts.sim_events / reps, "count"},
      {"serve.parse_us", mean_us("serve.parse"), "us"},
      {"serve.canonical_key_us", mean_us("serve.canonical_key"), "us"},
      {"serve.evaluation_ms", per_point_ms("serve.evaluation"), "ms"},
      {"serve.response_us", mean_us("serve.response"), "us"},
      {"fleet.expand_us", mean_us("fleet.expand"), "us"},
      {"fleet.route_us", mean_us("fleet.route"), "us"},
      {"fleet.merge_us", mean_us("fleet.merge"), "us"},
      {"fleet.replica_imbalance", counts.replica_imbalance_sum / sweeps,
       "ratio"},
  };
}

}  // namespace perfbench
