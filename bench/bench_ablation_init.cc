/// Ablation: initialization of task response times (§4.2.1). The paper
/// argues initializing from the Herodotou static model converges faster
/// than sample-based (profile-history) initialization. We compare the
/// static initialization against deliberately poor starting points and
/// report iterations to convergence and the fixed point reached.

#include <cstdio>

#include "experiments/experiment.h"
#include "model/input.h"
#include "model/model.h"
#include "workload/wordcount.h"

int main() {
  using namespace mrperf;
  ExperimentPoint point;
  point.num_nodes = 4;
  point.input_bytes = 5 * kGiB;
  point.num_jobs = 2;

  auto base = ModelInputFromHerodotou(PaperCluster(point.num_nodes),
                                      PaperHadoopConfig(), WordCountProfile(),
                                      point.input_bytes, point.num_jobs);
  if (!base.ok()) {
    std::fprintf(stderr, "input failed\n");
    return 1;
  }

  const ModelOptions opts = DefaultExperimentOptions().model;
  std::printf("%-28s | %9s %9s %6s %9s\n", "initialization", "forkjoin",
              "tripathi", "iters", "mva swps");
  struct Variant {
    const char* name;
    double scale;
  };
  for (const Variant& v : {Variant{"herodotou static (paper)", 1.0},
                           Variant{"pessimistic sample (x5)", 5.0},
                           Variant{"optimistic sample (x0.2)", 0.2}}) {
    ModelInput in = *base;
    in.init_map_response *= v.scale;
    in.init_shuffle_sort_response *= v.scale;
    in.init_merge_response *= v.scale;
    auto r = SolveModel(in, opts);
    if (!r.ok()) {
      std::fprintf(stderr, "model failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    std::printf("%-28s | %9.1f %9.1f %6d %9lld\n", v.name,
                r->forkjoin_response, r->tripathi_response, r->iterations,
                static_cast<long long>(r->mva_iterations));
  }
  std::printf(
      "\nExpected shape: every initialization converges to the same fixed\n"
      "point (robustness), with iteration counts within a few of each\n"
      "other — the damped update forgets the starting point geometrically.\n"
      "The paper's preference for the static initialization (§4.2.1) is\n"
      "about avoiding a profiling pass, which this reproduces: no history\n"
      "is needed to produce the x1.0 row.\n");
  return 0;
}
