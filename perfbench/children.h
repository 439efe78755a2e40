/// \file children.h
/// \brief The predictd / predict_router processes a served workload
/// starts. Every child is killed on every exit path of the benchmark:
/// its destructor, a fatal signal to the benchmark (InstallChildCleanup),
/// or the benchmark dying outright (the child asks the kernel for
/// SIGKILL when its parent exits), so no orphan keeps a core busy into
/// the next run.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// \brief Routes SIGTERM, SIGINT, SIGHUP and SIGQUIT to a handler that
/// kills and reaps every live child, then re-raises the signal.
void InstallChildCleanup();

/// \brief One running child daemon.
class ChildProcess {
 public:
  /// Starts `path` with `args`, reads its banner line from stdout and
  /// parses the bound port with `banner_format` (one %d). Fails if the
  /// banner does not arrive within 10 seconds.
  static mrperf::Result<std::unique_ptr<ChildProcess>> Spawn(
      const std::string& path, const std::vector<std::string>& args,
      const char* banner_format);

  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  int port() const { return port_; }

  /// High-water resident set size (VmHWM), MiB; -1 once reaped.
  double PeakRssMb() const;
  /// User + system CPU seconds consumed so far; -1 once reaped.
  double CpuSeconds() const;

  /// SIGTERM (predictd drains), then SIGKILL if the child is still
  /// running 5 s later. True when it exited 0 on its own.
  bool Terminate();

 private:
  ChildProcess(pid_t pid, int port) : pid_(pid), port_(port) {}
  void Kill();

  pid_t pid_ = -1;
  int port_ = 0;
};

/// \brief Directory holding this executable (the daemons are built
/// beside it).
std::string ExecutableDir();

}  // namespace perfbench
