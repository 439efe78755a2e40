#include "children.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {
namespace {

/// Live child pids, read by the signal handler (lock-free atomics are
/// async-signal-safe; a mutex would not be).
constexpr size_t kMaxChildren = 32;
std::array<std::atomic<pid_t>, kMaxChildren> g_children{};

void Register(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

extern "C" void KillChildrenAndReraise(int signo) {
  for (std::atomic<pid_t>& slot : g_children) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
  signal(signo, SIG_DFL);
  raise(signo);
}

/// Value of a "Key:   123 kB" line of /proc/<pid>/status, or -1.
long StatusFieldKb(pid_t pid, const char* key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtol(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return -1;
}

}  // namespace

void InstallChildCleanup() {
  struct sigaction action = {};
  action.sa_handler = KillChildrenAndReraise;
  sigemptyset(&action.sa_mask);
  for (int signo : {SIGTERM, SIGINT, SIGHUP, SIGQUIT}) {
    sigaction(signo, &action, nullptr);
  }
  // A daemon that dies mid-write must not kill the benchmark.
  signal(SIGPIPE, SIG_IGN);
}

mrperf::Result<std::unique_ptr<ChildProcess>> ChildProcess::Spawn(
    const std::string& path, const std::vector<std::string>& args,
    const char* banner_format) {
  int out_pipe[2];
  if (pipe(out_pipe) != 0) {
    return mrperf::Status::Internal(std::string("pipe: ") +
                                    std::strerror(errno));
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    return mrperf::Status::Internal(std::string("fork: ") +
                                    std::strerror(errno));
  }
  if (pid == 0) {
    // Die with the benchmark, even if it is SIGKILLed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    std::vector<char*> argv_exec;
    argv_exec.push_back(const_cast<char*>(path.c_str()));
    for (const std::string& arg : args) {
      argv_exec.push_back(const_cast<char*>(arg.c_str()));
    }
    argv_exec.push_back(nullptr);
    execv(path.c_str(), argv_exec.data());
    _exit(127);
  }
  Register(pid);
  std::unique_ptr<ChildProcess> child(new ChildProcess(pid, 0));
  close(out_pipe[1]);
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool got_line = false;
  while (!got_line) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd pfd = {out_pipe[0], POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left.count())) <= 0) break;
    char c = 0;
    if (read(out_pipe[0], &c, 1) != 1) break;
    if (c == '\n') {
      got_line = true;
    } else {
      line += c;
    }
  }
  close(out_pipe[0]);
  int port = 0;
  if (!got_line || std::sscanf(line.c_str(), banner_format, &port) != 1 ||
      port <= 0) {
    return mrperf::Status::Internal("no banner from " + path + ": '" + line +
                                    "'");
  }
  child->port_ = port;
  return child;
}

ChildProcess::~ChildProcess() { Kill(); }

double ChildProcess::PeakRssMb() const {
  if (pid_ <= 0) return -1.0;
  const long kb = StatusFieldKb(pid_, "VmHWM");
  return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

double ChildProcess::CpuSeconds() const {
  if (pid_ <= 0) return -1.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return -1.0;
  const char* p = stat.c_str() + close_paren + 1;
  unsigned long utime = 0, stime = 0;
  if (std::sscanf(p,
                  " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %lu %lu",
                  &utime, &stime) != 2) {
    return -1.0;
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool ChildProcess::Terminate() {
  if (pid_ <= 0) return false;
  kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int status = 0;
  for (;;) {
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      Unregister(pid_);
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Kill();
  return false;
}

void ChildProcess::Kill() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
  Unregister(pid_);
  pid_ = -1;
}

std::string ExecutableDir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<size_t>(n));
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

}  // namespace perfbench
