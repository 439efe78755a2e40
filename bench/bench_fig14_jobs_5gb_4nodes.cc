/// Reproduces Figure 14: job response time vs number of concurrent jobs
/// (1-4) for WordCount on 5 GB input, 4 nodes.

#include "figure_common.h"

int main(int argc, char** argv) {
  mrperf::Flags args(argc, argv);
  const int threads = args.IntFlag("--threads", 0);
  const std::string out = args.StringFlag("--out");
  const std::string json_out = args.StringFlag("--json-out");
  if (!args.Validate()) return 2;
  return mrperf::bench::RunJobSweepFigure(
      "Figure 14: #Nodes 4; Input 5GB", /*nodes=*/4, /*input_gb=*/5.0,
      threads, out, json_out);
}
