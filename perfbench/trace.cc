#include "trace.h"

#include <fstream>

#include "bench_util.h"
#include "serve/json.h"

namespace perfbench {

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      const std::string& subject) {
  if (!enabled_) return 0;
  const double now = MsBetween(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = parent;
  span.subject = subject;
  span.start_ms = now;
  span.end_ms = -1.0;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t id, double weight) {
  if (!enabled_ || id <= 0) return;
  const double now = MsBetween(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id - 1)];
  span.end_ms = now;
  span.weight = weight;
}

void Tracer::Add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int64_t parent,
                 const std::string& subject, double weight) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = parent;
  span.subject = subject;
  span.start_ms = MsBetween(origin_, start);
  span.end_ms = MsBetween(origin_, end);
  span.weight = weight;
  spans_.push_back(std::move(span));
}

size_t Tracer::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Span& s : spans_) {
    if (s.end_ms >= 0 && s.name == name) ++n;
  }
  return n;
}

double Tracer::WeightedMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.end_ms >= 0 && s.name == name) total += s.duration_ms() * s.weight;
  }
  return total;
}

mrperf::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return mrperf::Status::Internal("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  for (const Span& s : spans_) {
    if (s.end_ms < 0) continue;
    line = "{\"name\": ";
    mrperf::AppendJsonString(line, s.name);
    line += ", \"id\": " + std::to_string(s.id);
    line += ", \"parent\": " + std::to_string(s.parent);
    line += ", \"subject\": ";
    mrperf::AppendJsonString(line, s.subject);
    line += ", \"start_ms\": " + FormatDouble(s.start_ms);
    line += ", \"end_ms\": " + FormatDouble(s.end_ms);
    line += ", \"weight\": " + FormatDouble(s.weight) + "}\n";
    out << line;
  }
  out.flush();
  return out ? mrperf::Status::OK()
             : mrperf::Status::Internal("short write to " + path);
}

}  // namespace perfbench
