/// \file offline.cc
/// \brief model_grid and paper_grid: a grid evaluated through
/// SweepRunner in this process, pass after pass, each pass on a fresh
/// runner (so a fresh solve cache).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "engine/sweep_runner.h"
#include "experiments/experiment.h"
#include "layers.h"
#include "serve/request.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mrperf::ExperimentPoint;
using mrperf::ExperimentResult;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Relative tolerance on Tripathi predictions: loose enough for a
/// closed-form max-moments integral (quadrature error is ~1e-9), tight
/// enough that any change to the estimator's logic fails.
constexpr double kTripathiTolerance = 1e-3;

struct Grid {
  std::string name;
  /// The grid as {"kind":"sweep"} requests: what the traced run
  /// replays, and the source of `points`.
  std::vector<std::string> sweep_lines;
  /// Distinct points in expansion order.
  std::vector<ExperimentPoint> points;
  int workers = 1;
  int repetitions = 0;
};

/// nodes {4,6,8} x input {1,5} GB x jobs {1,2,4}, model only: the
/// capacity-planning grid ROADMAP.md measures model speed on.
Grid MakeModelGrid() {
  Grid grid;
  grid.name = "model_grid";
  grid.sweep_lines = {
      R"({"kind":"sweep","id":"model_grid","nodes":[4,6,8],)"
      R"("input_gb":[1.0,5.0],"jobs":[1,2,4],"model_only":true})"};
  grid.workers = 1;
  grid.repetitions = 0;
  return grid;
}

/// The 17 distinct points of Figures 10-15 at 5 repetitions.
Grid MakePaperGrid() {
  Grid grid;
  grid.name = "paper_grid";
  grid.sweep_lines = {
      R"({"kind":"sweep","id":"fig10","nodes":[4,6,8],"input_gb":1.0,"jobs":1})",
      R"({"kind":"sweep","id":"fig11","nodes":[4,6,8],"input_gb":1.0,"jobs":4})",
      R"({"kind":"sweep","id":"fig12","nodes":[4,6,8],"input_gb":5.0,"jobs":1})",
      R"({"kind":"sweep","id":"fig13","nodes":[4,6,8],"input_gb":5.0,"jobs":4})",
      R"({"kind":"sweep","id":"fig14","nodes":4,"input_gb":5.0,"jobs":[1,2,3,4]})",
      R"({"kind":"sweep","id":"fig15","nodes":[4,6,8],"input_gb":5.0,"jobs":1,)"
      R"("block_mb":64})"};
  grid.workers = 2;
  grid.repetitions = 5;
  return grid;
}

/// Map tasks across the point's jobs: the cost proxy of the pass order.
int64_t MapTasks(const ExperimentPoint& p) {
  const int64_t maps = (p.input_bytes + p.block_size_bytes - 1) / p.block_size_bytes;
  return maps * p.num_jobs;
}

/// Distinct points, most expensive first (most map tasks, then fewest
/// nodes). SweepRunner hands chunks to idle workers in index order, so
/// with the heavy points first the last chunks are the cheap ones and
/// two workers finish together. In figure order a 1-2 s point could
/// start last on either worker, which moved paper_grid's pass time by
/// 20% between passes of one run.
mrperf::Status ExpandPoints(Grid* grid) {
  grid->points.clear();
  for (const std::string& line : DistinctPointLines(grid->sweep_lines)) {
    MRPERF_ASSIGN_OR_RETURN(const mrperf::ServeRequest request,
                            mrperf::ParseServeRequest(line));
    grid->points.push_back(request.predict.point);
  }
  std::stable_sort(grid->points.begin(), grid->points.end(),
                   [](const ExperimentPoint& a, const ExperimentPoint& b) {
                     if (MapTasks(a) != MapTasks(b)) {
                       return MapTasks(a) > MapTasks(b);
                     }
                     return a.num_nodes < b.num_nodes;
                   });
  return grid->points.empty()
             ? mrperf::Status::Internal(grid->name + " has no points")
             : mrperf::Status::OK();
}

mrperf::SweepOptions PassOptions(const Grid& grid) {
  mrperf::SweepOptions options;
  options.num_threads = grid.workers;
  options.experiment = mrperf::DefaultExperimentOptions();
  options.experiment.repetitions = grid.repetitions;
  // The figure benches' pinned calibration seed, which is also what a
  // served request carries by default.
  options.derive_point_seeds = false;
  return options;
}

std::string ReferenceKey(const std::string& workload,
                         const ExperimentPoint& point) {
  std::string label = mrperf::PointLabel(point);
  for (char& c : label) {
    if (c == ' ') c = '_';
  }
  return workload + " " + label;
}

struct Expected {
  double forkjoin = 0.0;
  double tripathi = 0.0;
  double measured = 0.0;
};

using Reference = std::map<std::string, Expected>;

mrperf::Result<Reference> LoadReference(const std::string& path,
                                        const std::string& workload) {
  std::ifstream in(path);
  if (!in) return mrperf::Status::NotFound("cannot read " + path);
  Reference reference;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, label, fj, tri, measured;
    if (!(fields >> name >> label >> fj >> tri >> measured)) {
      return mrperf::Status::InvalidArgument("bad reference line: " + line);
    }
    if (name != workload) continue;
    reference[name + " " + label] = {std::strtod(fj.c_str(), nullptr),
                                     std::strtod(tri.c_str(), nullptr),
                                     std::strtod(measured.c_str(), nullptr)};
  }
  if (reference.empty()) {
    return mrperf::Status::NotFound("no " + workload + " lines in " + path);
  }
  return reference;
}

bool SameDouble(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

/// Fork/Join and the simulated median must match the reference exactly;
/// Tripathi within kTripathiTolerance.
void CheckAgainstReference(const Grid& grid, const Reference& reference,
                           const mrperf::SweepReport& report, Outcome* out) {
  for (size_t i = 0; i < grid.points.size(); ++i) {
    const std::string key = ReferenceKey(grid.name, grid.points[i]);
    if (!report.results[i].ok()) {
      out->Problem(key + ": " + report.results[i].status().ToString());
      continue;
    }
    const ExperimentResult& r = *report.results[i];
    const auto it = reference.find(key);
    if (it == reference.end()) {
      out->Problem(key + ": no reference value");
      continue;
    }
    const Expected& want = it->second;
    if (!SameDouble(r.forkjoin_sec, want.forkjoin)) {
      out->Problem(key + ": forkjoin " + FormatDouble(r.forkjoin_sec) +
                   " != reference " + FormatDouble(want.forkjoin));
    }
    if (!SameDouble(r.measured_sec, want.measured)) {
      out->Problem(key + ": measured " + FormatDouble(r.measured_sec) +
                   " != reference " + FormatDouble(want.measured));
    }
    if (!(std::abs(r.tripathi_sec - want.tripathi) <=
          kTripathiTolerance * std::abs(want.tripathi))) {
      out->Problem(key + ": tripathi " + FormatDouble(r.tripathi_sec) +
                   " outside " + FormatDouble(kTripathiTolerance) +
                   " of reference " + FormatDouble(want.tripathi));
    }
  }
}

/// Passes of one measurement phase.
struct Passes {
  std::vector<double> ms;
  /// Time from the previous pass's end (or the phase start) to each
  /// pass's start, which includes checking the previous pass: how late
  /// the benchmark issued it.
  std::vector<double> gap_ms;
  int64_t points = 0;
  int64_t failed_points = 0;
  double cpu_s = 0.0;
  mrperf::MvaCacheStats cache;
  /// Mean absolute relative error (%) of each estimator against the
  /// simulated median over the last pass (NaN for model-only grids).
  double forkjoin_error_pct = 0.0;
  double tripathi_error_pct = 0.0;
};

Passes RunPasses(const Grid& grid, const Reference& reference, double seconds,
                 Tracer& tracer, Outcome* out) {
  Passes passes;
  const mrperf::SweepOptions options = PassOptions(grid);
  const double cpu_start = SelfCpuSeconds();
  const Clock::time_point start = Clock::now();
  Clock::time_point last_end = start;
  // Two passes at least, so the gaps include one check between passes.
  while (passes.ms.size() < 2 || MsBetween(start, Clock::now()) < seconds * 1e3) {
    const Clock::time_point pass_start = Clock::now();
    mrperf::SweepReport report;
    {
      ScopedSpan span(tracer, "engine.sweep", 0, grid.name);
      mrperf::SweepRunner runner(options);
      report = runner.Run(grid.points);
    }
    const Clock::time_point pass_end = Clock::now();
    passes.ms.push_back(MsBetween(pass_start, pass_end));
    passes.gap_ms.push_back(MsBetween(last_end, pass_start));
    last_end = pass_end;
    passes.points += static_cast<int64_t>(grid.points.size());
    for (const auto& r : report.results) {
      if (!r.ok()) ++passes.failed_points;
    }
    passes.cache.hits += report.cache_stats.hits;
    passes.cache.misses += report.cache_stats.misses;
    CheckAgainstReference(grid, reference, report, out);
    double fj = 0.0, tri = 0.0;
    for (const auto& r : report.results) {
      if (!r.ok()) continue;
      fj += std::abs(r->forkjoin_error);
      tri += std::abs(r->tripathi_error);
    }
    passes.forkjoin_error_pct = 100.0 * fj / grid.points.size();
    passes.tripathi_error_pct = 100.0 * tri / grid.points.size();
  }
  passes.cpu_s = SelfCpuSeconds() - cpu_start;
  return passes;
}

Outcome RunGrid(const RunConfig& config, Grid (*make)()) {
  Outcome out;
  Grid grid;
  Reference reference;
  std::vector<double> setup_s;
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point t0 = Clock::now();
    grid = make();
    const mrperf::Status expanded = ExpandPoints(&grid);
    mrperf::Result<Reference> loaded =
        LoadReference(config.reference_path, grid.name);
    if (!expanded.ok() || !loaded.ok()) {
      out.Problem(!expanded.ok() ? expanded.ToString()
                                 : loaded.status().ToString());
      return out;
    }
    reference = std::move(*loaded);
    // Warm-up on a runner of its own: the paper's baseline point (4
    // nodes, 1 GB, 1 job), which both grids contain. A cheaper point made
    // set-up a few milliseconds of thread wake-ups, bimodal from run to
    // run.
    mrperf::SweepRunner warm(PassOptions(grid));
    const bool warm_ok = warm.Run({ExperimentPoint{}}).all_ok();
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    if (!warm_ok) out.Problem("warm-up evaluation failed");
  }
  const double points = static_cast<double>(grid.points.size());

  if (!config.trace) {
    Tracer off(false);
    const Passes passes = RunPasses(grid, reference, config.seconds, off, &out);
    const double p50 = MedianOf(passes.ms);
    const Tail tail = HighestTail(passes.ms);
    out.attempted = passes.points;
    out.failed = passes.failed_points;
    out.metrics = {{"setup_s", MedianOf(setup_s), "s"},
                   {"p50_ms", p50, "ms"},
                   {"points_per_s", points / (p50 / 1e3), "1/s"},
                   {"peak_rss_mb", SelfPeakRssMb(), "MiB"}};
    out.Note(NoteLine("grid_s", p50 / 1e3, "s",
                      "median of " + std::to_string(passes.ms.size()) +
                          " passes, " + std::to_string(grid.points.size()) +
                          " points, " + std::to_string(grid.workers) +
                          " worker(s)"));
    out.Note(NoteLine("tail_ms", tail.value, "ms",
                      "p" + FormatDouble(tail.percentile) + " of " +
                          std::to_string(tail.samples) + " passes"));
    std::string each;
    for (double ms : passes.ms) each += " " + FormatDouble(ms);
    out.Note("pass_ms =" + each);
    if (grid.repetitions > 0) {
      out.Note(NoteLine("forkjoin_error_pct", passes.forkjoin_error_pct, "%",
                        "mean |relative error| vs the simulated median"));
      out.Note(NoteLine("tripathi_error_pct", passes.tripathi_error_pct, "%",
                        "mean |relative error| vs the simulated median"));
    }
    return out;
  }

  // Traced run: half the time untraced, half traced, then the replays.
  Tracer off(false);
  const Passes plain = RunPasses(grid, reference, config.seconds / 2, off, &out);
  Tracer tracer(true);
  const Passes traced =
      RunPasses(grid, reference, config.seconds / 2, tracer, &out);
  ReplayCounts counts;
  const mrperf::Status replayed =
      ReplaySweeps(grid.sweep_lines, tracer, &counts);
  if (!replayed.ok()) out.Problem("replay: " + replayed.ToString());
  const mrperf::Result<ServiceReplay> service = ReplayThroughService(
      DistinctPointLines(grid.sweep_lines), {}, grid.workers, tracer);
  if (!service.ok()) out.Problem("service replay: " + service.status().ToString());
  const ServiceReplay sr = service.ok() ? *service : ServiceReplay{};

  const double traced_p50 = MedianOf(traced.ms);
  const double plain_p50 = MedianOf(plain.ms);
  WorkloadLayers w;
  const int64_t lookups = traced.cache.hits + traced.cache.misses;
  w.solve_cache_hit_ratio =
      lookups > 0 ? static_cast<double>(traced.cache.hits) / lookups : 0.0;
  w.parallel_efficiency = tracer.WeightedMs("serve.evaluation") /
                          std::max<int64_t>(1, counts.points) * points /
                          (traced_p50 * grid.workers);
  w.queue_wait_ms = sr.queue_wait_ms_sum / std::max<int64_t>(1, sr.requests);
  w.batch_size_mean = static_cast<double>(sr.requests) /
                      std::max<int64_t>(1, sr.batches);
  w.cpu_ms_per_request = 1e3 * traced.cpu_s / std::max<int64_t>(1, traced.points);
  w.evaluations_per_request = sr.evaluations_per_request;
  w.late_p99_ms = NearestRankPercentile(traced.gap_ms, 99);
  w.sent = static_cast<double>(traced.points);
  w.failed = static_cast<double>(traced.failed_points);
  w.overhead_pct = 100.0 * (traced_p50 - plain_p50) / plain_p50;
  out.attempted = plain.points + traced.points;
  out.failed = plain.failed_points + traced.failed_points;
  out.metrics = LayerMetrics(tracer, counts, w);
  out.Note(NoteLine("grid_s untraced", plain_p50 / 1e3, "s"));
  out.Note(NoteLine("grid_s traced", traced_p50 / 1e3, "s"));
  WriteSpans(config, tracer, &out);
  return out;
}

}  // namespace

Outcome RunModelGrid(const RunConfig& config) {
  return RunGrid(config, MakeModelGrid);
}

Outcome RunPaperGrid(const RunConfig& config) {
  return RunGrid(config, MakePaperGrid);
}

int WriteReference(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "# Reference predictions of the offline grids: workload, point,\n"
         "# Fork/Join seconds, Tripathi seconds, simulated median seconds\n"
         "# (nan for model-only points). Regenerate with\n"
         "#   perfbench --write-reference=perfbench/reference.txt\n"
         "# only when a change is meant to alter predictions.\n";
  for (Grid (*make)() : {MakeModelGrid, MakePaperGrid}) {
    Grid grid = make();
    const mrperf::Status expanded = ExpandPoints(&grid);
    if (!expanded.ok()) {
      std::fprintf(stderr, "%s\n", expanded.ToString().c_str());
      return 1;
    }
    mrperf::SweepRunner runner(PassOptions(grid));
    const mrperf::SweepReport report = runner.Run(grid.points);
    for (size_t i = 0; i < grid.points.size(); ++i) {
      if (!report.results[i].ok()) {
        std::fprintf(stderr, "%s failed\n",
                     mrperf::PointLabel(grid.points[i]).c_str());
        return 1;
      }
      const ExperimentResult& r = *report.results[i];
      out << ReferenceKey(grid.name, grid.points[i]) << " "
          << FormatDouble(r.forkjoin_sec) << " "
          << FormatDouble(r.tripathi_sec) << " "
          << FormatDouble(r.measured_sec) << "\n";
    }
  }
  return out ? 0 : 1;
}

}  // namespace perfbench
