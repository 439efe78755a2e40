/// Scenario-grid sweep — the first model scenarios the paper never
/// measured. The §5 evaluation varies only numeric knobs (nodes, input,
/// jobs, block size) with scheduler, workload and cluster shape pinned;
/// this bench sweeps exactly those structural axes through the same
/// engine: capacity-FIFO vs Tetris packing (§2.1/§4.2.2), two workload
/// profiles (balanced wordcount vs shuffle-heavy terasort), and
/// {uniform, 2-tier heterogeneous} cluster shapes, at a fixed fig11-like
/// numeric point. Under Tetris the analytic model keeps its capacity-FIFO
/// placement assumption, so those rows quantify how far the paper's model
/// carries beyond its own scheduler; heterogeneous rows exercise the
/// §4.2.2 lowest-occupancy placement over mixed-capacity nodes.
///
/// Flags: --threads=N (0 = auto), --out=CSV, --json-out=JSON,
/// --progress (per-point stderr stream), --smoke (small grid + a
/// determinism gate: the sweep must be byte-identical at 1 worker and at
/// the requested worker count — the CI Release perf-smoke configuration).

#include <cstdio>
#include <string>
#include <vector>

#include "engine/sweep_csv.h"
#include "engine/sweep_grid.h"
#include "engine/sweep_runner.h"
#include "experiments/experiment.h"
#include "experiments/report.h"
#include "figure_common.h"
#include "workload/wordcount.h"

int main(int argc, char** argv) {
  using namespace mrperf;

  Flags args(argc, argv);
  const int num_threads = args.IntFlag("--threads", 0);
  const bool smoke = args.BoolFlag("--smoke");
  const bool show_progress = args.BoolFlag("--progress");
  const std::string out_path = args.StringFlag("--out");
  const std::string json_path = args.StringFlag("--json-out");
  if (!args.Validate()) return 2;

  // 2-tier heterogeneous shape: half big paper-testbed nodes, half
  // small nodes with a quarter of the memory and a third of the cores.
  const ClusterShape two_tier = {ClusterNodeGroup{2, Resource{64 * kGiB, 12}},
                                 ClusterNodeGroup{2, Resource{16 * kGiB, 4}}};

  SweepGrid grid;
  grid.Schedulers(
          {SchedulerKind::kCapacityFifo, SchedulerKind::kTetrisPacking})
      .Profiles({"wordcount", "terasort"})
      .ClusterShapes({{}, two_tier})
      .Nodes({4})
      .InputGigabytes({smoke ? 0.5 : 1.0})
      .Jobs({2});

  SweepOptions sweep_opts;
  sweep_opts.num_threads = num_threads;
  sweep_opts.experiment = DefaultExperimentOptions();
  sweep_opts.experiment.repetitions = smoke ? 2 : 3;
  // Pin the calibrated measurement stream, as the figure benches do.
  sweep_opts.derive_point_seeds = false;
  if (show_progress) {
    sweep_opts.progress = [](const SweepProgress& p) {
      std::fprintf(stderr,
                   "\rpoint %zu/%zu done (MVA cache: %lld/%lld hits)",
                   p.points_done, p.points_total,
                   static_cast<long long>(p.cache.hits),
                   static_cast<long long>(p.cache.lookups()));
      if (p.points_done == p.points_total) std::fprintf(stderr, "\n");
    };
  }

  SweepRunner runner(sweep_opts);
  SweepReport report = runner.Run(grid);
  if (!report.all_ok()) {
    const auto points = grid.Expand();
    for (size_t i = 0; i < report.results.size(); ++i) {
      if (!report.results[i].ok()) {
        std::fprintf(stderr, "scenario %s failed: %s\n",
                     PointLabel(points[i]).c_str(),
                     report.results[i].status().ToString().c_str());
      }
    }
    return 1;
  }
  const std::vector<ExperimentResult> results = report.values();

  std::printf("%-9s | %-9s | %-26s | %9s | %9s (%6s) | %9s (%6s)\n",
              "scheduler", "profile", "cluster", "measured", "forkjoin",
              "err", "tripathi", "err");
  for (const ExperimentResult& r : results) {
    const ScenarioSpec& sc = r.point.scenario;
    std::printf(
        "%-9s | %-9s | %-26s | %9.1f | %9.1f (%+5.1f%%) | %9.1f "
        "(%+5.1f%%)\n",
        SchedulerKindToString(sc.scheduler), sc.profile.c_str(),
        ClusterShapeLabel(sc.cluster).c_str(), r.measured_sec,
        r.forkjoin_sec, r.forkjoin_error * 100, r.tripathi_sec,
        r.tripathi_error * 100);
  }
  PrintSweepStats(std::cout, results.size(), report.threads_used,
                  report.wall_seconds, report.cache_stats.hits,
                  report.cache_stats.lookups());

  if (smoke) {
    // Determinism gate: the scenario grid must expand and evaluate to
    // byte-identical serialized results at any worker count. Re-run on a
    // single worker and diff the CSV bytes (which cover every point
    // coordinate, scenario column and %.17g double).
    SweepOptions serial_opts = sweep_opts;
    serial_opts.num_threads = 1;
    serial_opts.progress = nullptr;
    SweepRunner serial_runner(serial_opts);
    SweepReport serial = serial_runner.Run(grid);
    if (!serial.all_ok()) {
      std::fprintf(stderr, "smoke: serial re-run failed: %s\n",
                   serial.first_error().ToString().c_str());
      return 1;
    }
    if (FormatSweepCsv(results) != FormatSweepCsv(serial.values())) {
      std::fprintf(stderr,
                   "smoke: scenario sweep is NOT byte-identical across "
                   "worker counts\n");
      return 1;
    }
    std::printf("smoke: byte-identical at %d worker(s) vs 1 worker\n",
                report.threads_used);
  }

  if (!bench::MaybeWriteCsv(out_path, results)) return 1;
  if (!bench::MaybeWriteJson(json_path, results)) return 1;
  std::printf(
      "\nExpected shape: Tetris rows keep the model's capacity-FIFO\n"
      "assumption, so their errors bound how far the paper's model\n"
      "carries under a packing scheduler (§2.1). The 2-tier cluster has\n"
      "less aggregate capacity than 4 uniform big nodes, so measured\n"
      "responses rise; the model tracks it via per-node slots/vcores and\n"
      "the lowest-occupancy placement rule (§4.2.2).\n");
  return 0;
}
