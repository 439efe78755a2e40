/// \file gate_table.h
/// \brief The phase runner of the serving acceptance benches
/// (bench_serve_load, bench_fleet_load): every phase runs even after
/// an earlier one failed, and the run ends with one pass/fail table,
/// so a single failure never hides what the later phases would show.

#pragma once

#include <cstdarg>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace mrperf::bench {

/// \brief A failed gate's Status with a printf-formatted message.
inline Status GateFailure(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

inline Status GateFailure(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  const int length = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  std::string message(length > 0 ? static_cast<size_t>(length) : 0, '\0');
  if (length > 0) {
    std::vsnprintf(message.data(), message.size() + 1, format, args);
  }
  va_end(args);
  return Status::Internal(message);
}

/// \brief Runs named gates in order and records each outcome.
class GateTable {
 public:
  /// Runs `gate` and records its outcome; a failure is also printed to
  /// stderr as it happens. Returns whether the gate passed.
  bool Run(const std::string& name, const std::function<Status()>& gate) {
    Status outcome;
    try {
      outcome = gate();
    } catch (const std::exception& e) {
      outcome = Status::Internal(std::string("exception: ") + e.what());
    }
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s gate FAILED: %s\n", name.c_str(),
                   outcome.message().c_str());
    }
    rows_.push_back({name, outcome.ok(), outcome.message()});
    return outcome.ok();
  }

  /// Prints the table, then "<bench>: all gates passed" or the failure
  /// count; true iff every gate passed.
  bool PrintSummary(const char* bench) const {
    int failed = 0;
    std::printf("\n%-22s %s\n", "gate", "result");
    for (const Row& row : rows_) {
      if (row.passed) {
        std::printf("%-22s pass\n", row.name.c_str());
        continue;
      }
      ++failed;
      // The first line of the reason; the full text went to stderr.
      const std::string reason =
          row.failure.substr(0, row.failure.find('\n'));
      std::printf("%-22s FAIL  %s\n", row.name.c_str(), reason.c_str());
    }
    if (failed == 0) {
      std::printf("%s: all gates passed\n", bench);
    } else {
      std::printf("%s: %d of %zu gates FAILED\n", bench, failed,
                  rows_.size());
    }
    return failed == 0;
  }

 private:
  struct Row {
    std::string name;
    bool passed = false;
    std::string failure;
  };
  std::vector<Row> rows_;
};

}  // namespace mrperf::bench
