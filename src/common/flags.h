/// \file flags.h
/// \brief The command-line flag parser of the benches and of the
/// predictd and predict_router daemons.
///
/// Both `--flag=value` and `--flag value` spellings are accepted, and
/// the parser records which arguments a typed accessor consumed.
/// `Validate()` rejects everything left over with one uniform error
/// message, so a typo like `--thread=8` or a flag the binary no longer
/// has fails the run instead of silently running with the default.
///
/// Usage: construct from (argc, argv), read every flag the binary
/// understands, then call Validate() last — it reports precisely the
/// arguments no accessor consumed.

#pragma once

#include <string>
#include <vector>

namespace mrperf {

/// \brief Command-line flag parser (see file comment).
class Flags {
 public:
  Flags(int argc, char** argv);

  /// `--flag=N` / `--flag N`; `fallback` when absent. A malformed value
  /// parses as 0/0.0 (atoi semantics) — bound it at the call site.
  int IntFlag(const char* flag, int fallback);
  double DoubleFlag(const char* flag, double fallback);
  /// `--flag=S` / `--flag S`; `fallback` when absent.
  std::string StringFlag(const char* flag,
                         const std::string& fallback = std::string());
  /// Bare `--flag` presence.
  bool BoolFlag(const char* flag);

  /// Call after reading every known flag: prints one uniform error per
  /// argument nothing consumed and returns false if there were any.
  bool Validate() const;

 private:
  /// Finds `flag` in either spelling, marks what it consumes, returns
  /// whether it was present (value in *value).
  bool Consume(const char* flag, std::string* value);

  std::string program_;
  std::vector<std::string> args_;
  std::vector<bool> used_;
};

}  // namespace mrperf
