/// Generality check beyond the paper's evaluation: model-vs-simulator
/// accuracy across four canonical MapReduce job types (the Shi et al.
/// taxonomy the paper cites when motivating WordCount [8]) — map-heavy
/// (grep), balanced (wordcount), shuffle-heavy (terasort) and
/// expansion+combine (inverted index) — swept over cluster sizes 4/6/8
/// on 1 GB single-job points. All workload × nodes cells are evaluated
/// concurrently through the engine's SweepRunner (--threads=N, default
/// auto), which is also this bench's parallel-speedup yardstick.
/// `--progress` streams per-point completion (and the MVA-cache hit
/// rate) to stderr while the sweep runs; `--out=` / `--json-out=`
/// persist the results as CSV / JSON.

#include <cstdio>
#include <vector>

#include "engine/sweep_runner.h"
#include "experiments/experiment.h"
#include "experiments/report.h"
#include "figure_common.h"
#include "workload/wordcount.h"

int main(int argc, char** argv) {
  using namespace mrperf;
  Flags args(argc, argv);
  const int num_threads = args.IntFlag("--threads", 0);
  const bool show_progress = args.BoolFlag("--progress");
  const std::string out_path = args.StringFlag("--out");
  const std::string json_path = args.StringFlag("--json-out");
  if (!args.Validate()) return 2;

  struct Entry {
    const char* name;
    JobProfile profile;
  };
  const Entry entries[] = {
      {"grep (map-heavy)", GrepProfile()},
      {"wordcount (paper)", WordCountProfile()},
      {"inverted-index", InvertedIndexProfile()},
      {"terasort (shuffle-heavy)", TeraSortProfile()},
  };
  const int node_counts[] = {4, 6, 8};

  // One task per workload × nodes cell; SweepRunner re-derives each
  // task's seed from its index, so results do not depend on the worker
  // count or completion order.
  std::vector<SweepRunner::Task> tasks;
  for (const Entry& e : entries) {
    for (int nodes : node_counts) {
      SweepRunner::Task task;
      task.options = DefaultExperimentOptions();
      task.options.profile = e.profile;
      task.options.repetitions = 3;
      task.point.num_nodes = nodes;
      task.point.input_bytes = 1 * kGiB;
      task.point.num_jobs = 1;
      // Pin the calibrated seed (§5 calibration stream) so the
      // accuracy table matches the serial seed-repo numbers.
      task.derive_seed = false;
      tasks.push_back(task);
    }
  }

  SweepOptions sweep_opts;
  sweep_opts.num_threads = num_threads;
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
  SweepReport report = runner.RunTasks(tasks);
  if (!report.all_ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 report.first_error().ToString().c_str());
    return 1;
  }

  std::printf("%-26s | %5s | %9s | %9s (%6s) | %9s (%6s)\n", "workload",
              "nodes", "measured", "forkjoin", "err", "tripathi", "err");
  size_t idx = 0;
  for (const Entry& e : entries) {
    for (int nodes : node_counts) {
      const ExperimentResult& r = *report.results[idx++];
      std::printf(
          "%-26s | %5d | %9.1f | %9.1f (%+5.1f%%) | %9.1f (%+5.1f%%)\n",
          e.name, nodes, r.measured_sec, r.forkjoin_sec,
          r.forkjoin_error * 100, r.tripathi_sec, r.tripathi_error * 100);
    }
  }
  PrintSweepStats(std::cout, tasks.size(), report.threads_used,
                  report.wall_seconds, report.cache_stats.hits,
                  report.cache_stats.lookups());
  if (!bench::MaybeWriteCsv(out_path, report.values())) return 1;
  if (!bench::MaybeWriteJson(json_path, report.values())) return 1;
  std::printf(
      "\nExpected shape: the calibration was fit on WordCount only; the\n"
      "other job types stress different resource mixes. Errors stay within\n"
      "roughly +/-25%% off-calibration; shuffle-heavy jobs are\n"
      "underestimated (the timeline's single per-remote-map term abstracts\n"
      "the simulator's segment-level in-cast contention), which also flips\n"
      "the fork/join-vs-Tripathi ordering where both undershoot.\n");
  return 0;
}
