#include "bench_util.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "serve/json.h"
#include "serve/request.h"
#include "serve/stats.h"

namespace perfbench {
namespace {

/// Text form of a schedule: one line per arrival, "%.17g nodes
/// input_bytes". Two schedules are the same exactly when these agree.
std::string FormatSchedule(const std::vector<double>& arrivals,
                           const std::vector<WhatifPoint>& points) {
  std::string out;
  for (size_t i = 0; i < arrivals.size() && i < points.size(); ++i) {
    out += FormatDouble(arrivals[i]) + " " + std::to_string(points[i].nodes) +
           " " + std::to_string(points[i].input_bytes) + "\n";
  }
  return out;
}

/// The whatif inputs of one seed: arrival schedule plus distinct points.
std::string WhatifSchedule(uint64_t seed) {
  Rng arrivals(StreamSeed(seed, kArrivalStream));
  WhatifPoints points(StreamSeed(seed, kPointStream));
  const std::vector<double> at = PoissonArrivals(arrivals, 10.0, 9.0);
  return FormatSchedule(at, points.Draw(at.size()));
}

TEST(SeededInputs, WhatifScheduleRepeatsByteForByte) {
  const std::string a = WhatifSchedule(7);
  EXPECT_EQ(a, WhatifSchedule(7));
  EXPECT_NE(a, WhatifSchedule(8));
  EXPECT_GT(a.size(), 0u);
}

TEST(SeededInputs, GeneratorIsPinned) {
  // A change here changes every workload's inputs: the benchmark's
  // baseline must then be measured again.
  WhatifPoints points(StreamSeed(1, kPointStream));
  WhatifPoints again(StreamSeed(1, kPointStream));
  EXPECT_EQ(FormatSchedule({0, 0, 0}, points.Draw(3)),
            FormatSchedule({0, 0, 0}, again.Draw(3)));
  Rng draw(StreamSeed(1, kSweepOrderStream));
  Rng draw_again(StreamSeed(1, kSweepOrderStream));
  EXPECT_EQ(SweepDrawOrder(draw, 4, 64), SweepDrawOrder(draw_again, 4, 64));
  Rng fixed(42);
  EXPECT_EQ(fixed.Next(), 0xBDD732262FEB6E95ULL);
}

TEST(SeededInputs, PoissonArrivalsHaveTheRequestedRate) {
  Rng rng(StreamSeed(3, kArrivalStream));
  const std::vector<double> at = PoissonArrivals(rng, 10.0, 1000.0);
  EXPECT_NEAR(static_cast<double>(at.size()), 10000.0, 400.0);
  for (size_t i = 1; i < at.size(); ++i) ASSERT_LT(at[i - 1], at[i]);
  EXPECT_LT(at.back(), 1000.0);
}

TEST(SeededInputs, WhatifPointsAreDistinctAndInTheCostMode) {
  WhatifPoints source(StreamSeed(5, kPointStream));
  std::vector<WhatifPoint> points = source.Draw(8);
  const std::vector<WhatifPoint> more = source.Draw(2000);
  points.insert(points.end(), more.begin(), more.end());
  std::set<std::pair<int, int64_t>> seen;
  for (const WhatifPoint& p : points) {
    EXPECT_TRUE(seen.insert({p.nodes, p.input_bytes}).second);
    EXPECT_EQ(p.nodes, kWhatifNodes);
    EXPECT_GE(p.input_bytes, kWhatifMinInputBytes);
    EXPECT_LE(p.input_bytes, kWhatifMaxInputBytes);
  }
}

TEST(SeededInputs, WhatifLinesParseAsDefaultPredictRequests) {
  const WhatifPoint point{5, 1000000007};
  const mrperf::Result<mrperf::ServeRequest> request =
      mrperf::ParseServeRequest(WhatifRequestLine("w1", point));
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(*request->id, "w1");
  EXPECT_EQ(request->predict.point.num_nodes, 5);
  EXPECT_EQ(request->predict.point.input_bytes, 1000000007);
  EXPECT_EQ(request->predict.repetitions, 5);
  EXPECT_EQ(request->predict.seed, 1234u);
}

TEST(SeededInputs, SampleIndicesAreDistinctAndBounded) {
  Rng rng(9);
  const std::vector<size_t> sample = SampleIndices(rng, 50, 12);
  EXPECT_EQ(sample.size(), 12u);
  EXPECT_EQ(std::set<size_t>(sample.begin(), sample.end()).size(), 12u);
  for (size_t i : sample) EXPECT_LT(i, 50u);
  Rng small(9);
  EXPECT_EQ(SampleIndices(small, 3, 12).size(), 3u);
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(HighestTail, LeavesTenSamplesBeyond) {
  const Tail tail = HighestTail(OneTo(100));
  EXPECT_EQ(tail.samples, 100u);
  EXPECT_DOUBLE_EQ(tail.value, 90.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
  const Tail bigger = HighestTail(OneTo(1000));
  EXPECT_DOUBLE_EQ(bigger.value, 990.0);
  EXPECT_DOUBLE_EQ(bigger.percentile, 99.0);
}

TEST(HighestTail, SmallSamplesReportTheMaximum) {
  const Tail tail = HighestTail(OneTo(19));
  EXPECT_DOUBLE_EQ(tail.value, 19.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 100.0);
  const Tail twenty = HighestTail(OneTo(20));
  EXPECT_DOUBLE_EQ(twenty.value, 10.0);
  EXPECT_DOUBLE_EQ(twenty.percentile, 50.0);
  EXPECT_EQ(HighestTail({}).samples, 0u);
}

TEST(Percentiles, MedianAndNearestRank) {
  EXPECT_DOUBLE_EQ(MedianOf({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(MedianOf({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(MedianOf({}), 0.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(OneTo(100), 99), 99.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(OneTo(3), 99), 3.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile({7}, 0), 7.0);
}

TEST(ParseServeStats, ReadsTheCountersOfARealStatsResponse) {
  mrperf::ServeStatsSnapshot snapshot;
  snapshot.requests_total = 41;
  snapshot.evaluations_total = 40;
  snapshot.cache.hits = 1234;
  snapshot.cache.misses = 56;
  snapshot.cache_shards = 8;
  const std::string line = mrperf::MakeStatsResponse(
      std::nullopt, mrperf::FormatServeStatsJson(snapshot));
  const mrperf::Result<ServeCounters> counters = ParseServeStats(line);
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  EXPECT_EQ(counters->requests_total, 41);
  EXPECT_EQ(counters->evaluations_total, 40);
  EXPECT_EQ(counters->cache_hits, 1234);
  EXPECT_EQ(counters->cache_misses, 56);
}

TEST(ParseServeStats, RejectsOtherLines) {
  EXPECT_FALSE(ParseServeStats("not json").ok());
  EXPECT_FALSE(ParseServeStats(R"({"id": null, "ok": true, "result": {}})").ok());
  EXPECT_FALSE(ParseServeStats(
                   R"({"id": null, "ok": false, "error": {"code": "internal"}})")
                   .ok());
}

TEST(ResultLine, IsOneJsonObjectWithEveryDigit) {
  const std::string line = ResultLine(
      true, 12, 0, {{"p50_ms", 1.0 / 3.0, "ms"}, {"setup_s", 2.5, "s"}});
  const mrperf::Result<mrperf::JsonValue> root = mrperf::ParseJson(line);
  ASSERT_TRUE(root.ok()) << line;
  EXPECT_TRUE(root->Find("correct")->bool_value());
  EXPECT_EQ(root->Find("attempted")->number_value(), 12);
  EXPECT_EQ(root->Find("failed")->number_value(), 0);
  const mrperf::JsonValue* p50 = root->Find("metrics")->Find("p50_ms");
  ASSERT_NE(p50, nullptr);
  EXPECT_EQ(p50->Find("value")->number_value(), 1.0 / 3.0);
  EXPECT_EQ(p50->Find("unit")->string_value(), "ms");
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace perfbench
