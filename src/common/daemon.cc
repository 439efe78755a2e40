#include "common/daemon.h"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <string>

namespace mrperf {
namespace {

/// The self-pipe's ends. Lock-free atomics, so the handler may read the
/// write end.
std::atomic<int> g_signal_read_fd{-1};
std::atomic<int> g_signal_write_fd{-1};

extern "C" void HandleShutdownSignal(int signo) {
  const unsigned char byte = static_cast<unsigned char>(signo);
  // write() is async-signal-safe; a full pipe just means a shutdown is
  // already pending.
  [[maybe_unused]] ssize_t n = write(g_signal_write_fd.load(), &byte, 1);
}

}  // namespace

void RaiseFdLimit() {
  struct rlimit limit = {};
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= limit.rlim_max) return;
  limit.rlim_cur = limit.rlim_max;
  (void)setrlimit(RLIMIT_NOFILE, &limit);
}

Status InstallShutdownSignals() {
  int fds[2];
  if (pipe(fds) != 0) {
    return Status::Internal(std::string("pipe() failed: ") +
                            std::strerror(errno));
  }
  g_signal_read_fd.store(fds[0]);
  g_signal_write_fd.store(fds[1]);
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  return Status::OK();
}

int WaitForShutdownSignal() {
  unsigned char signo = 0;
  while (read(g_signal_read_fd.load(), &signo, 1) < 0 && errno == EINTR) {
  }
  return signo;
}

}  // namespace mrperf
