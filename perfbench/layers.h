/// \file layers.h
/// \brief The traced run's in-process replays: the benchmark calls each
/// layer's public functions itself, inside spans, on the same inputs
/// the workload sends, so every layer is timed without instrumenting
/// the program.
///
/// Per predict line (a grid point, a what-if request or a sweep point):
///   serve.parse            ParseServeRequest
///   serve.canonical_key    CanonicalPredictKey
///   fleet.route            HashRing::PreferenceOrder on a 2-replica ring
///   serve.evaluation       what RunExperiment of TaskForRequest does:
///     sim.repetition         ClusterSimulator::Run, one per repetition
///     hadoop.model_input     ModelInputFromHerodotou (A1)
///     model.solve            SolveModel (A2-A6 outer loop)
///   model.timeline, model.overlap, queueing.mva, model.tree,
///   model.forkjoin, model.tripathi
///                          one outer iteration replayed from the
///                          converged state, weighted by
///                          ModelResult::iterations
///   serve.response         MakePredictResponse
/// A model-only point runs no simulator in its evaluation; it gets one
/// sim.repetition span outside serve.evaluation so the simulator's cost
/// on those inputs is still on record.
///
/// Per sweep line: fleet.expand (ParseJson + ExpandSweepRequest) before
/// the points and fleet.merge (MakeSweepResponse) after them.
///
/// A4's problem builder is file-local to model/model.cc; the replay
/// rebuilds it from ModelInput (per-node cpu/disk/net centers), and it
/// solves without the solve cache, so queueing.mva is what A4 costs on
/// a cache miss.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/status.h"
#include "trace.h"

namespace perfbench {

/// \brief Work counts of a replay.
struct ReplayCounts {
  int64_t points = 0;
  int64_t outer_iterations = 0;
  int64_t mva_sweeps = 0;
  /// P-nodes of every job's precedence tree x outer iterations: the
  /// max-moment integrations EstimateTripathi runs.
  int64_t max_moments_calls = 0;
  int64_t sim_repetitions = 0;
  int64_t sim_events = 0;
  int64_t sweeps = 0;
  /// Sum over sweeps of (points on the busiest replica / mean points
  /// per replica).
  double replica_imbalance_sum = 0.0;
};

/// \brief Replays `sweep_lines` ({"kind":"sweep"} requests) through
/// every layer (see file comment). Points repeated across sweeps are
/// replayed once.
mrperf::Status ReplaySweeps(const std::vector<std::string>& sweep_lines,
                            Tracer& tracer, ReplayCounts* counts);

/// \brief Outcome of an in-process PredictService replay.
struct ServiceReplay {
  int64_t requests = 0;
  int64_t batches = 0;
  double queue_wait_ms_sum = 0.0;
  double evaluations_per_request = 0.0;
};

/// \brief Submits `lines` to an in-process PredictService with
/// `workers` evaluation threads, line i at `offsets_s[i]` seconds after
/// the start (all at once when `offsets_s` is empty), and waits for
/// every response. The service's dispatch_hook timestamps each
/// micro-batch; requests are dispatched FIFO, so request i's queue wait
/// is its batch's dispatch time minus its submit time. Lines must carry
/// distinct points (no coalescing).
mrperf::Result<ServiceReplay> ReplayThroughService(
    const std::vector<std::string>& lines, const std::vector<double>& offsets_s,
    int workers, Tracer& tracer);

/// \brief Per-layer metrics of a replay recorded in `tracer`.
std::vector<Metric> ReplayMetrics(const Tracer& tracer,
                                  const ReplayCounts& counts);

}  // namespace perfbench
