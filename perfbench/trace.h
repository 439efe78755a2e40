/// \file trace.h
/// \brief In-memory spans of the traced run. The benchmark opens a span
/// around each of its own calls into a layer's public functions; spans
/// are written out once, when the run ends, so recording costs two clock
/// reads and a vector append.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// \brief Milliseconds between two clock readings.
inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// \brief One closed span.
struct Span {
  std::string name;
  int64_t id = 0;
  /// Enclosing span's id; 0 at the top level.
  int64_t parent = 0;
  /// The point or request the span worked on ("" for none).
  std::string subject;
  double start_ms = 0.0;
  double end_ms = 0.0;
  /// Times the measured interval stands for: a replayed phase of the
  /// model's outer loop is timed once and weighted by the iteration
  /// count (see layers.h).
  double weight = 1.0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// \brief Span recorder. Disabled recorders record nothing (the
/// untraced run). Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span; returns its id (0 when disabled).
  int64_t Begin(const std::string& name, int64_t parent = 0,
                const std::string& subject = std::string());
  /// Closes span `id` with `weight`.
  void End(int64_t id, double weight = 1.0);
  /// Records a span measured elsewhere.
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end, int64_t parent = 0,
           const std::string& subject = std::string(), double weight = 1.0);

  /// Closed spans named `name`: their count, and the sum of weighted
  /// durations.
  size_t Count(const std::string& name) const;
  double WeightedMs(const std::string& name) const;

  /// Writes one JSON object per closed span.
  mrperf::Status WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  int64_t next_id_ = 1;
  /// Opened spans, indexed by id - 1; end_ms < 0 while open.
  std::vector<Span> spans_;
};

/// \brief RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int64_t parent = 0,
             const std::string& subject = std::string())
      : tracer_(tracer), id_(tracer.Begin(name, parent, subject)) {}
  ~ScopedSpan() { tracer_.End(id_, weight_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void set_weight(double weight) { weight_ = weight; }

 private:
  Tracer& tracer_;
  const int64_t id_;
  double weight_ = 1.0;
};

}  // namespace perfbench
