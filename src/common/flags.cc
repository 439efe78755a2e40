#include "common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mrperf {

Flags::Flags(int argc, char** argv)
    : program_(argc > 0 ? argv[0] : "mrperf") {
  args_.reserve(static_cast<size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  used_.assign(args_.size(), false);
}

bool Flags::Consume(const char* flag, std::string* value) {
  const size_t len = std::strlen(flag);
  for (size_t i = 0; i < args_.size(); ++i) {
    const std::string& arg = args_[i];
    if (arg.compare(0, len, flag) == 0 && arg.size() > len &&
        arg[len] == '=') {
      used_[i] = true;
      *value = arg.substr(len + 1);
      return true;
    }
    if (arg == flag && i + 1 < args_.size()) {
      used_[i] = true;
      used_[i + 1] = true;
      *value = args_[i + 1];
      return true;
    }
  }
  return false;
}

int Flags::IntFlag(const char* flag, int fallback) {
  std::string value;
  return Consume(flag, &value) ? std::atoi(value.c_str()) : fallback;
}

double Flags::DoubleFlag(const char* flag, double fallback) {
  std::string value;
  return Consume(flag, &value) ? std::atof(value.c_str()) : fallback;
}

std::string Flags::StringFlag(const char* flag,
                              const std::string& fallback) {
  std::string value;
  return Consume(flag, &value) ? value : fallback;
}

bool Flags::BoolFlag(const char* flag) {
  for (size_t i = 0; i < args_.size(); ++i) {
    if (args_[i] == flag) {
      used_[i] = true;
      return true;
    }
  }
  return false;
}

bool Flags::Validate() const {
  bool ok = true;
  for (size_t i = 0; i < args_.size(); ++i) {
    if (!used_[i]) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", program_.c_str(),
                   args_[i].c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace mrperf
