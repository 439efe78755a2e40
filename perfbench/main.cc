/// perfbench — the repository's end-to-end benchmark binary (see
/// README.md). Usually started through run.py, which builds it first:
///
///   perfbench --workload <model_grid|paper_grid|whatif|fleet_sweep>
///             --seed <n> --seconds <s> --trace <0|1>
///             --reference <reference.txt> [--trace-dir <dir>]
///   perfbench --write-reference <reference.txt>
///
/// Prints human-readable lines, then one JSON result line. Exits 1 when
/// an output check fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "children.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Value of `--name value` or `--name=value`; `fallback` when absent.
std::string Flag(int argc, char** argv, const char* name,
                 const std::string& fallback) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) != 0) continue;
    if (argv[i][len] == '=') return argv[i] + len + 1;
    if (argv[i][len] == '\0' && i + 1 < argc) return argv[i + 1];
  }
  return fallback;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0' && std::isfinite(*out);
}

/// Problems with the metric set itself: every expected name, once,
/// finite.
std::vector<std::string> MetricSetProblems(const std::vector<Metric>& metrics,
                                           bool trace) {
  std::vector<std::string> problems;
  std::set<std::string> expected;
  if (trace) {
    for (const char* name : kPerLayerMetrics) expected.insert(name);
  } else {
    for (const char* name : kEndToEndMetrics) expected.insert(name);
  }
  std::set<std::string> seen;
  for (const Metric& m : metrics) {
    if (!expected.count(m.name)) problems.push_back("unexpected metric " + m.name);
    if (!seen.insert(m.name).second) problems.push_back("duplicate " + m.name);
    if (!std::isfinite(m.value)) problems.push_back(m.name + " is not finite");
  }
  for (const std::string& name : expected) {
    if (!seen.count(name)) problems.push_back("missing metric " + name);
  }
  return problems;
}

}  // namespace

int main(int argc, char** argv) {
  InstallChildCleanup();
  const std::string reference_out = Flag(argc, argv, "--write-reference", "");
  if (!reference_out.empty()) return WriteReference(reference_out);

  RunConfig config;
  config.workload = Flag(argc, argv, "--workload", "");
  config.reference_path = Flag(argc, argv, "--reference", "");
  config.trace_dir = Flag(argc, argv, "--trace-dir", "");
  double seed = 0.0, seconds = 0.0, trace = 0.0;
  if (!ParseNumber(Flag(argc, argv, "--seed", "1"), &seed) || seed < 0 ||
      !ParseNumber(Flag(argc, argv, "--seconds", "15"), &seconds) ||
      seconds <= 0 || seconds > 600 ||
      !ParseNumber(Flag(argc, argv, "--trace", "0"), &trace) ||
      (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "perfbench: bad --seed, --seconds or --trace\n");
    return 2;
  }
  config.seed = static_cast<uint64_t>(seed);
  config.seconds = seconds;
  config.trace = trace == 1;

  const std::map<std::string, Outcome (*)(const RunConfig&)> workloads = {
      {"model_grid", RunModelGrid},
      {"paper_grid", RunPaperGrid},
      {"whatif", RunWhatif},
      {"fleet_sweep", RunFleetSweep}};
  const auto it = workloads.find(config.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr,
                 "perfbench: --workload must be model_grid, paper_grid, "
                 "whatif or fleet_sweep\n");
    return 2;
  }
  Outcome out = it->second(config);
  for (const std::string& problem : MetricSetProblems(out.metrics, config.trace)) {
    out.Problem(problem);
  }

  std::printf("# %s seed=%llu seconds=%g trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& m : out.metrics) {
    std::printf("# %s = %s %s\n", m.name.c_str(), FormatDouble(m.value).c_str(),
                m.unit.c_str());
  }
  size_t shown = 0;
  for (const std::string& problem : out.problems) {
    if (++shown > 20) break;
    std::printf("# CHECK FAILED: %s\n", problem.c_str());
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  const bool correct = out.problems.empty();
  std::printf("%s\n",
              ResultLine(correct, out.attempted, out.failed, out.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
