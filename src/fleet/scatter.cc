#include "fleet/scatter.h"

#include <array>
#include <cstdio>
#include <iterator>
#include <utility>

namespace mrperf {
namespace {

/// The grid axes, in row-major enumeration order. Aliased spellings
/// ("input_gb"/"input_bytes", "block_mb"/"block_size_bytes") share an
/// axis position; ParseServeRequest rejects setting both.
constexpr const char* kAxisKeys[] = {
    "nodes", "input_gb", "input_bytes", "jobs", "block_mb",
    "block_size_bytes", "reducers",
};
constexpr int kAxisOf[] = {0, 1, 1, 2, 3, 3, 4};
constexpr size_t kAxisCount = 5;

bool IsAxisKey(const std::string& key, size_t* axis) {
  for (size_t i = 0; i < std::size(kAxisKeys); ++i) {
    if (key == kAxisKeys[i]) {
      *axis = static_cast<size_t>(kAxisOf[i]);
      return true;
    }
  }
  return false;
}

/// Serializes one scalar JsonValue back onto a synthesized line.
/// Numbers print via %.17g, which round-trips every double exactly, so
/// re-serialization can never perturb a knob.
Status AppendScalar(std::string& out, const std::string& key,
                    const JsonValue& value) {
  if (value.is_number()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value.number_value());
    out += buf;
    return Status::OK();
  }
  if (value.is_string()) {
    AppendJsonString(out, value.string_value());
    return Status::OK();
  }
  if (value.is_bool()) {
    out += value.bool_value() ? "true" : "false";
    return Status::OK();
  }
  return Status::InvalidArgument("sweep field '" + key +
                                 "' must be a number, string or boolean");
}

}  // namespace

bool IsSweepRequest(const JsonValue& root) {
  if (!root.is_object()) return false;
  const JsonValue* kind = root.Find("kind");
  return kind != nullptr && kind->is_string() &&
         kind->string_value() == "sweep";
}

Result<SweepExpansion> ExpandSweepRequest(const JsonValue& root) {
  if (!IsSweepRequest(root)) {
    return Status::InvalidArgument("not a sweep request");
  }

  SweepExpansion expansion;
  // Per-axis element values, serialized. A scalar axis contributes one
  // element; an absent axis contributes the empty marker (the key is
  // simply not emitted, predictd's default applies).
  std::array<std::vector<std::string>, kAxisCount> axis_values;
  std::array<std::string, kAxisCount> axis_key;
  // Non-axis fields, serialized "key": value fragments in declaration
  // order (closest to forwarding the original line verbatim).
  std::vector<std::string> scalar_fragments;

  for (const auto& [key, value] : root.object_members()) {
    if (key == "kind") continue;  // rewritten to "predict"
    if (key == "id") {
      if (!value.is_string()) {
        return Status::InvalidArgument("field 'id' must be a string");
      }
      expansion.id = value.string_value();
      continue;
    }
    size_t axis = 0;
    if (IsAxisKey(key, &axis)) {
      if (!axis_values[axis].empty()) {
        return Status::InvalidArgument(
            "'" + axis_key[axis] + "' and '" + key +
            "' are aliases — set only one");
      }
      axis_key[axis] = key;
      if (value.is_array()) {
        if (value.array_items().empty()) {
          return Status::InvalidArgument("sweep axis '" + key +
                                         "' must not be an empty array");
        }
        for (const JsonValue& item : value.array_items()) {
          if (!item.is_number()) {
            return Status::InvalidArgument(
                "sweep axis '" + key + "' elements must be numbers");
          }
          std::string serialized;
          MRPERF_RETURN_NOT_OK(AppendScalar(serialized, key, item));
          axis_values[axis].push_back(std::move(serialized));
        }
      } else {
        std::string serialized;
        MRPERF_RETURN_NOT_OK(AppendScalar(serialized, key, value));
        axis_values[axis].push_back(std::move(serialized));
      }
      continue;
    }
    if (value.is_array()) {
      return Status::InvalidArgument(
          "sweep field '" + key +
          "' cannot be an array (only the grid knobs sweep)");
    }
    std::string fragment = "\"" + key + "\": ";
    MRPERF_RETURN_NOT_OK(AppendScalar(fragment, key, value));
    scalar_fragments.push_back(std::move(fragment));
  }

  // Grid size: product of present axis widths (absent axes are width 1
  // with no emitted key).
  size_t total = 1;
  for (size_t a = 0; a < kAxisCount; ++a) {
    const size_t width = axis_values[a].empty() ? 1 : axis_values[a].size();
    if (total > kMaxSweepPoints / width) {
      return Status::InvalidArgument(
          "sweep grid exceeds " + std::to_string(kMaxSweepPoints) +
          " points");
    }
    total *= width;
  }

  expansion.point_lines.reserve(total);
  expansion.point_keys.reserve(total);
  std::array<size_t, kAxisCount> index = {};
  for (size_t i = 0; i < total; ++i) {
    std::string line = "{\"kind\": \"predict\"";
    for (size_t a = 0; a < kAxisCount; ++a) {
      if (axis_values[a].empty()) continue;
      line += ", \"";
      line += axis_key[a];
      line += "\": ";
      line += axis_values[a][index[a]];
    }
    for (const std::string& fragment : scalar_fragments) {
      line += ", ";
      line += fragment;
    }
    line += '}';

    // The synthesized line goes through the identical strict parse
    // predictd applies, so validation cannot drift between the router
    // and its replicas — and the canonical key falls out of it.
    Result<ServeRequest> parsed = ParseServeRequest(line);
    if (!parsed.ok()) return parsed.status();
    if (parsed.ValueOrDie().kind != ServeRequest::Kind::kPredict) {
      return Status::Internal("sweep expansion produced a non-predict line");
    }
    expansion.priority = parsed.ValueOrDie().predict.priority;
    expansion.point_keys.push_back(
        CanonicalPredictKey(parsed.ValueOrDie().predict));
    expansion.point_lines.push_back(std::move(line));

    // Row-major increment: last axis varies fastest.
    for (size_t a = kAxisCount; a-- > 0;) {
      const size_t width = axis_values[a].empty() ? 1 : axis_values[a].size();
      if (++index[a] < width) break;
      index[a] = 0;
    }
  }
  return expansion;
}

PointOutcome ClassifyPointResponse(const std::string& response_line) {
  PointOutcome outcome;
  // The per-point lines carry no id, so a success response is exactly
  // this envelope (MakePredictResponse with a null id); slicing the
  // envelope off preserves the replica's result bytes untouched.
  static constexpr char kSuccessPrefix[] =
      "{\"id\": null, \"ok\": true, \"result\": ";
  constexpr size_t kPrefixLen = sizeof(kSuccessPrefix) - 1;
  if (response_line.size() > kPrefixLen + 1 &&
      response_line.compare(0, kPrefixLen, kSuccessPrefix) == 0 &&
      response_line.back() == '}') {
    outcome.ok = true;
    outcome.result_object = response_line.substr(
        kPrefixLen, response_line.size() - kPrefixLen - 1);
    return outcome;
  }
  // Anything else should be a structured error envelope; carry its
  // code and message through. An unparseable line maps to internal.
  outcome.error_message = "malformed replica response";
  const Result<JsonValue> parsed = ParseJson(response_line);
  if (!parsed.ok() || !parsed.ValueOrDie().is_object()) return outcome;
  const JsonValue* error = parsed.ValueOrDie().Find("error");
  if (error == nullptr || !error->is_object()) return outcome;
  const JsonValue* code = error->Find("code");
  const JsonValue* message = error->Find("message");
  if (code != nullptr && code->is_string()) {
    outcome.error_code = ServeErrorCodeFromName(code->string_value());
  }
  if (message != nullptr && message->is_string()) {
    outcome.error_message = message->string_value();
  }
  return outcome;
}

std::string MakeSweepResponse(const std::optional<std::string>& id,
                              const std::vector<std::string>& result_objects) {
  std::string out;
  size_t payload = 64;
  for (const std::string& object : result_objects) {
    payload += object.size() + 2;
  }
  out.reserve(payload);
  out += "{\"id\": ";
  if (id.has_value()) {
    AppendJsonString(out, *id);
  } else {
    out += "null";
  }
  out += ", \"ok\": true, \"results\": [";
  for (size_t i = 0; i < result_objects.size(); ++i) {
    if (i > 0) out += ", ";
    out += result_objects[i];
  }
  out += "]}";
  return out;
}

}  // namespace mrperf
