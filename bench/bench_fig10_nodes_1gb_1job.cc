/// Reproduces Figure 10: job response time vs number of nodes (4, 6, 8)
/// for WordCount on 1 GB input, 1 job in the cluster. Series: HadoopSetup
/// (simulated testbed), Fork/join, Tripathi.

#include "figure_common.h"

int main(int argc, char** argv) {
  mrperf::Flags args(argc, argv);
  const int threads = args.IntFlag("--threads", 0);
  const std::string out = args.StringFlag("--out");
  const std::string json_out = args.StringFlag("--json-out");
  if (!args.Validate()) return 2;
  return mrperf::bench::RunNodeSweepFigure(
      "Figure 10: Input 1GB; #jobs 1", /*input_gb=*/1.0, /*num_jobs=*/1,
      /*block_size_bytes=*/128 * mrperf::kMiB,
      threads, out, json_out);
}
