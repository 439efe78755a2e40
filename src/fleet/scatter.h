/// \file scatter.h
/// \brief Scatter-gather expansion of one sweep request into per-point
/// predict lines.
///
/// The router accepts a fleet-level request kind the single daemon
/// does not speak:
///
///   {"kind": "sweep", "id": "s1", "nodes": [2, 4, 8, 16],
///    "input_gb": [1.0, 5.0], "jobs": 1, ...}
///
/// Any of the grid knobs ("nodes", "input_gb"/"input_bytes", "jobs",
/// "block_mb"/"block_size_bytes", "reducers") may be an array; the
/// grid is their row-major cross product in that fixed axis order —
/// the same order SweepGrid enumerates, so point index i here is point
/// index i of the equivalent offline sweep. Every other field
/// (scheduler, profile, cluster, repetitions, seed, model_only,
/// priority, deadline_ms, version) must stay scalar and is copied into
/// every per-point line, so QoS metadata propagates to each replica
/// untouched.
///
/// Expansion synthesizes one id-less {"kind": "predict", ...} line per
/// point and validates it through ParseServeRequest — the identical
/// strict validation predictd applies — yielding the canonical key
/// that places the point on the ring, exactly where the same predict
/// sent alone lands. Byte-identity of the merged response is inherited
/// from per-point determinism.
///
/// Pure data transformation: no sockets, no threads. The router owns
/// fan-out and gathering; tests drive this layer directly.

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/json.h"
#include "serve/request.h"

namespace mrperf {

/// \brief Cap on points in one sweep request: bounds router memory and
/// replica fan-out amplification from a single line.
inline constexpr size_t kMaxSweepPoints = 4096;

/// \brief One expanded sweep request.
struct SweepExpansion {
  /// The sweep request's own id (echoed in the merged response).
  std::optional<std::string> id;
  /// Dispatch class shared by every point (routing uses the
  /// per-priority upstream connection).
  RequestPriority priority = RequestPriority::kBulk;
  /// Synthesized id-less predict lines, grid row-major, index-aligned
  /// with point_keys.
  std::vector<std::string> point_lines;
  /// CanonicalPredictKey of each point (its ring placement).
  std::vector<std::string> point_keys;
};

/// \brief True when the parsed request line is the router's sweep kind
/// (`"kind": "sweep"`). A false return says nothing about validity.
bool IsSweepRequest(const JsonValue& root);

/// \brief Expands a sweep request (see file comment). Errors carry the
/// same strict-field semantics as ParseServeRequest: unknown keys, bad
/// types, empty axes and grids beyond kMaxSweepPoints are
/// InvalidArgument.
Result<SweepExpansion> ExpandSweepRequest(const JsonValue& root);

/// \brief One per-point replica response, classified.
struct PointOutcome {
  bool ok = false;
  /// Success: the raw result-object bytes (exactly as the replica
  /// serialized them).
  std::string result_object;
  /// Failure: the replica's structured code and message.
  ServeErrorCode error_code = ServeErrorCode::kInternal;
  std::string error_message;
};

/// \brief Classifies one replica response line for a gathered point.
/// Success extracts the result object byte-exactly (the merged sweep
/// response must be byte-identical to unsplit evaluation); failure
/// carries the replica's structured error through.
PointOutcome ClassifyPointResponse(const std::string& response_line);

/// \brief Assembles the merged sweep response from per-point result
/// objects in index order:
///   {"id": <id>, "ok": true, "results": [<obj0>, <obj1>, ...]}
std::string MakeSweepResponse(const std::optional<std::string>& id,
                              const std::vector<std::string>& result_objects);

}  // namespace mrperf
