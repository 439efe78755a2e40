/// Reproduces Figure 15: job response time vs number of nodes for
/// WordCount on 5 GB input with the block size reduced from 128 MB to
/// 64 MB (doubling the number of map tasks, deepening the precedence
/// tree). The paper observes the largest estimation errors here (17%
/// fork/join, 25% Tripathi).

#include "figure_common.h"

int main(int argc, char** argv) {
  mrperf::Flags args(argc, argv);
  const int threads = args.IntFlag("--threads", 0);
  const std::string out = args.StringFlag("--out");
  const std::string json_out = args.StringFlag("--json-out");
  if (!args.Validate()) return 2;
  return mrperf::bench::RunNodeSweepFigure(
      "Figure 15: Block 64MB; Input 5GB; #jobs 1", /*input_gb=*/5.0,
      /*num_jobs=*/1, /*block_size_bytes=*/64 * mrperf::kMiB,
      threads, out, json_out);
}
