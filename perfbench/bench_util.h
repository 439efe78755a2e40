/// \file bench_util.h
/// \brief Pure helpers of the benchmark: seeded input generation,
/// percentile selection, /stats parsing and the result line. Nothing
/// here touches a clock, a socket or a process, so bench_util_test.cc
/// covers all of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// \brief SplitMix64 stream. The benchmark's only source of randomness:
/// its own arithmetic, so one seed gives the same inputs on every
/// standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform();
  /// Uniform integer in [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Exponential with the given rate (mean 1 / rate).
  double Exponential(double rate);

 private:
  uint64_t state_;
};

/// \brief Independent stream `stream` of the run seed, so adding draws
/// to one input (say, more arrivals) never shifts another (the points).
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// \brief Streams of StreamSeed.
enum Stream : uint64_t {
  kArrivalStream = 1,
  kPointStream = 2,
  kSweepOrderStream = 3,
  kSampleStream = 4,
};

/// \brief Arrival offsets, seconds from the schedule start, of a Poisson
/// process at `rate_per_s` over [0, duration_s).
std::vector<double> PoissonArrivals(Rng& rng, double rate_per_s,
                                    double duration_s);

/// \brief One what-if query: one WordCount job on `nodes` nodes.
struct WhatifPoint {
  int nodes = 4;
  int64_t input_bytes = 0;
};

/// \brief The what-if cost mode: one job on 4 nodes with 0.88-1.0 GiB
/// of input, i.e. 8 map tasks, converges in 11 outer iterations (a
/// 35-39 ms model solve on the reference box). Mixing 4, 5 and 6 nodes
/// gave three cost levels 20% apart, and the latency median moved
/// between them with the mix a seed drew; more input adds map tasks and
/// up to 60% more cost; 8 nodes at 1 GiB converges in 2 iterations.
inline constexpr int kWhatifNodes = 4;
inline constexpr int64_t kWhatifMinInputBytes = 944892806;    // 0.88 GiB
inline constexpr int64_t kWhatifMaxInputBytes = 1073741824;   // 1.0 GiB

/// \brief What-if points of the cost mode above. No point is drawn
/// twice by one source, so every request of a run is distinct.
class WhatifPoints {
 public:
  explicit WhatifPoints(uint64_t seed) : rng_(seed) {}
  /// The next `count` points.
  std::vector<WhatifPoint> Draw(size_t count);

 private:
  Rng rng_;
  std::set<int64_t> drawn_;
};

/// \brief A default predict request line (5 simulator repetitions at
/// the default seed) for `point`.
std::string WhatifRequestLine(const std::string& id, const WhatifPoint& point);

/// \brief `count` indices into a set of `choices` sweeps.
std::vector<size_t> SweepDrawOrder(Rng& rng, size_t choices, size_t count);

/// \brief `count` distinct indices of [0, n) in draw order (all of them
/// when count >= n).
std::vector<size_t> SampleIndices(Rng& rng, size_t n, size_t count);

/// \brief Median (mean of the middle pair for even counts); 0 if empty.
double MedianOf(std::vector<double> samples);

/// \brief The tail a latency is reported at: the highest percentile
/// with at least `beyond` samples above it, i.e. the (n - beyond)-th
/// smallest sample. Below 2 * beyond samples no percentile at or above
/// the median qualifies, and the tail is the maximum (percentile 100).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
};
Tail HighestTail(std::vector<double> samples, size_t beyond = 10);

/// \brief p-th percentile (0..100) by nearest rank; 0 if empty.
double NearestRankPercentile(std::vector<double> samples, double p);

/// \brief Counters of one predictd /stats response this benchmark uses.
struct ServeCounters {
  int64_t requests_total = 0;
  int64_t evaluations_total = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// \brief Parses a {"kind":"stats"} response line of predictd.
mrperf::Result<ServeCounters> ParseServeStats(const std::string& line);

/// \brief One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief The result line the benchmark prints last: one JSON object
/// with "correct", "attempted", "failed" and "metrics". Values carry
/// every digit (%.17g).
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

/// \brief %.17g, the round-trip form of a double.
std::string FormatDouble(double value);

}  // namespace perfbench
