#include "fleet/scatter.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/json.h"
#include "serve/request.h"

namespace mrperf {
namespace {

JsonValue Parse(const std::string& text) {
  Result<JsonValue> parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ValueOrDie();
}

Result<SweepExpansion> Expand(const std::string& text) {
  return ExpandSweepRequest(Parse(text));
}

TEST(IsSweepRequestTest, MatchesOnlyTheSweepKind) {
  EXPECT_TRUE(IsSweepRequest(Parse(R"({"kind": "sweep"})")));
  EXPECT_FALSE(IsSweepRequest(Parse(R"({"kind": "predict"})")));
  EXPECT_FALSE(IsSweepRequest(Parse(R"({"kind": "stats"})")));
  EXPECT_FALSE(IsSweepRequest(Parse(R"({})")));
  EXPECT_FALSE(IsSweepRequest(Parse(R"([1, 2])")));
}

TEST(ExpandSweepRequestTest, RowMajorCrossProductLastAxisFastest) {
  const auto expanded = Expand(
      R"({"kind": "sweep", "id": "s", "nodes": [2, 4], "reducers": [1, 2, 3]})");
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  const SweepExpansion& expansion = expanded.ValueOrDie();
  ASSERT_EQ(expansion.point_lines.size(), 6u);
  ASSERT_EQ(expansion.point_keys.size(), 6u);
  EXPECT_EQ(expansion.id, "s");
  // Row-major: reducers (the later axis) varies fastest.
  EXPECT_EQ(expansion.point_lines[0],
            "{\"kind\": \"predict\", \"nodes\": 2, \"reducers\": 1}");
  EXPECT_EQ(expansion.point_lines[1],
            "{\"kind\": \"predict\", \"nodes\": 2, \"reducers\": 2}");
  EXPECT_EQ(expansion.point_lines[3],
            "{\"kind\": \"predict\", \"nodes\": 4, \"reducers\": 1}");
  // Every synthesized line parses to the canonical key recorded for it.
  for (size_t i = 0; i < expansion.point_lines.size(); ++i) {
    Result<ServeRequest> parsed = ParseServeRequest(expansion.point_lines[i]);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(CanonicalPredictKey(parsed.ValueOrDie().predict),
              expansion.point_keys[i]);
  }
}

TEST(ExpandSweepRequestTest, ScalarKnobsAndQoSCopyIntoEveryPoint) {
  const auto expanded = Expand(
      R"({"kind": "sweep", "nodes": [2, 4], "jobs": 3, "repetitions": 0,)"
      R"( "priority": "interactive", "deadline_ms": 250})");
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  const SweepExpansion& expansion = expanded.ValueOrDie();
  ASSERT_EQ(expansion.point_lines.size(), 2u);
  EXPECT_EQ(expansion.priority, RequestPriority::kInteractive);
  EXPECT_FALSE(expansion.id.has_value());
  for (const std::string& line : expansion.point_lines) {
    EXPECT_NE(line.find("\"jobs\": 3"), std::string::npos) << line;
    EXPECT_NE(line.find("\"priority\": \"interactive\""), std::string::npos);
    EXPECT_NE(line.find("\"deadline_ms\": 250"), std::string::npos);
    Result<ServeRequest> parsed = ParseServeRequest(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed.ValueOrDie().predict.deadline_ms, 250);
  }
  // QoS is excluded from the canonical key: the same grid without the
  // QoS fields yields identical point keys.
  const auto plain =
      Expand(R"({"kind": "sweep", "nodes": [2, 4], "jobs": 3,)"
             R"( "repetitions": 0})");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.ValueOrDie().point_keys, expansion.point_keys);
}

TEST(ExpandSweepRequestTest, AllScalarSweepIsOnePoint) {
  const auto expanded = Expand(R"({"kind": "sweep", "nodes": 4})");
  ASSERT_TRUE(expanded.ok());
  ASSERT_EQ(expanded.ValueOrDie().point_lines.size(), 1u);
  EXPECT_EQ(expanded.ValueOrDie().point_lines[0],
            "{\"kind\": \"predict\", \"nodes\": 4}");
}

TEST(ExpandSweepRequestTest, AliasConflictIsRejected) {
  const auto expanded = Expand(
      R"({"kind": "sweep", "input_gb": [1.0], "input_bytes": [1073741824]})");
  ASSERT_FALSE(expanded.ok());
  EXPECT_TRUE(expanded.status().IsInvalidArgument());
}

TEST(ExpandSweepRequestTest, BadPointsFailTheWholeExpansion) {
  // The per-point validation is predictd's own ParseServeRequest, so a
  // grid containing an invalid point (nodes = 0) errors up front.
  const auto expanded = Expand(R"({"kind": "sweep", "nodes": [0, 4]})");
  ASSERT_FALSE(expanded.ok());
}

TEST(ExpandSweepRequestTest, RejectsNonAxisArraysEmptyAxesAndHugeGrids) {
  EXPECT_FALSE(Expand(R"({"kind": "sweep", "seed": [1, 2]})").ok());
  EXPECT_FALSE(Expand(R"({"kind": "sweep", "nodes": []})").ok());
  EXPECT_FALSE(
      Expand(R"({"kind": "sweep", "nodes": [1, "two"]})").ok());
  // 9 * 9 * 9 * 9 = 6561 > kMaxSweepPoints.
  std::string big = R"({"kind": "sweep", "nodes": [1,2,3,4,5,6,7,8,9],)";
  big += R"( "jobs": [1,2,3,4,5,6,7,8,9],)";
  big += R"( "reducers": [1,2,3,4,5,6,7,8,9],)";
  big += R"( "input_gb": [1,2,3,4,5,6,7,8,9]})";
  const auto expanded = Expand(big);
  ASSERT_FALSE(expanded.ok());
  EXPECT_NE(expanded.status().message().find("grid"), std::string::npos);
}

TEST(ExpandSweepRequestTest, UnknownFieldsAreRejectedByPointValidation) {
  EXPECT_FALSE(Expand(R"({"kind": "sweep", "nodez": [2, 4]})").ok());
}

TEST(ClassifyPointResponseTest, SuccessSlicesResultBytesExactly) {
  const std::string result_object =
      R"({"nodes": 2, "predicted_makespan_s": 12.5})";
  const PointOutcome outcome = ClassifyPointResponse(
      R"({"id": null, "ok": true, "result": )" + result_object + "}");
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.result_object, result_object);
}

TEST(ClassifyPointResponseTest, StructuredErrorsCarryCodeAndMessage) {
  const PointOutcome outcome = ClassifyPointResponse(
      R"({"id": null, "ok": false, "error": {"code": "deadline_exceeded",)"
      R"( "message": "deadline passed"}})");
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, ServeErrorCode::kDeadlineExceeded);
  EXPECT_EQ(outcome.error_message, "deadline passed");
}

TEST(ClassifyPointResponseTest, MalformedLinesMapToInternal) {
  const PointOutcome outcome = ClassifyPointResponse("garbage");
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, ServeErrorCode::kInternal);
  EXPECT_EQ(outcome.error_message, "malformed replica response");
}

TEST(MakeSweepResponseTest, AssemblesResultsInIndexOrder)
{
  EXPECT_EQ(MakeSweepResponse(std::nullopt, {}),
            "{\"id\": null, \"ok\": true, \"results\": []}");
  EXPECT_EQ(MakeSweepResponse(std::string("s\"1"), {"{\"a\": 1}", "{\"b\": 2}"}),
            "{\"id\": \"s\\\"1\", \"ok\": true, \"results\": "
            "[{\"a\": 1}, {\"b\": 2}]}");
}

}  // namespace
}  // namespace mrperf
