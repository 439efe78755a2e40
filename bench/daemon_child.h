/// \file daemon_child.h
/// \brief Child-daemon plumbing of the serving acceptance benches
/// (bench_serve_load, bench_fleet_load): spawn a predictd or
/// predict_router and read its bound port from the banner, stop it
/// with SIGTERM (drain) or SIGKILL (crash), and read its /stats and
/// HTTP endpoints. RaiseFdLimit (common/daemon.h) comes along for the
/// benches that hold many client sockets.

#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/daemon.h"
#include "serve/client.h"
#include "serve/json.h"

namespace mrperf::bench {

/// \brief A spawned daemon. The destructor SIGKILLs and reaps one that
/// is still running, so no exit path of a gate leaks it.
struct DaemonChild {
  pid_t pid = -1;
  int port = 0;

  DaemonChild() = default;
  DaemonChild(const DaemonChild&) = delete;
  DaemonChild& operator=(const DaemonChild&) = delete;
  ~DaemonChild() { Kill(); }

  void Kill() {
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }
};

/// \brief Forks `path` with `args`, reads the first stdout line and
/// parses the bound port out of `banner_format` (which must contain one
/// %d, e.g. "predictd listening on 127.0.0.1:%d").
inline bool SpawnChild(const std::string& path,
                       const std::vector<std::string>& args,
                       const char* banner_format, DaemonChild* child) {
  int out_pipe[2];
  if (pipe(out_pipe) != 0) {
    std::fprintf(stderr, "pipe() failed: %s\n", std::strerror(errno));
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "fork() failed: %s\n", std::strerror(errno));
    return false;
  }
  if (pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    std::vector<char*> argv_exec;
    argv_exec.push_back(const_cast<char*>(path.c_str()));
    for (const std::string& arg : args) {
      argv_exec.push_back(const_cast<char*>(arg.c_str()));
    }
    argv_exec.push_back(nullptr);
    execv(path.c_str(), argv_exec.data());
    std::fprintf(stderr, "execv(%s) failed: %s\n", path.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  close(out_pipe[1]);
  std::string line;
  char c;
  while (read(out_pipe[0], &c, 1) == 1 && c != '\n') line += c;
  close(out_pipe[0]);
  int port = 0;
  if (std::sscanf(line.c_str(), banner_format, &port) != 1 || port <= 0) {
    std::fprintf(stderr, "unexpected banner from %s: '%s'\n", path.c_str(),
                 line.c_str());
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return false;
  }
  child->pid = pid;
  child->port = port;
  return true;
}

/// \brief SIGTERMs `child` and reaps it; true iff it drained and exited
/// 0.
inline bool StopChildGracefully(DaemonChild* child) {
  if (child->pid <= 0) return false;
  kill(child->pid, SIGTERM);
  int wait_status = 0;
  const bool ok = waitpid(child->pid, &wait_status, 0) == child->pid &&
                  WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0;
  child->pid = -1;
  return ok;
}

/// \brief Extracts stats.<key> from a stats response line; -1 when
/// absent.
inline double StatsField(const std::string& response,
                         const std::string& key) {
  Result<JsonValue> parsed = ParseJson(response);
  if (!parsed.ok()) return -1.0;
  const JsonValue* stats = parsed->Find("stats");
  const JsonValue* field = stats ? stats->Find(key) : nullptr;
  if (field == nullptr || !field->is_number()) return -1.0;
  return field->number_value();
}

/// \brief Minimal HTTP GET (the daemons serve /metrics and /stats
/// one-shot); true on a complete response, with the status line and
/// body returned.
inline bool HttpGet(int port, const std::string& path,
                    std::string* status_line, std::string* body) {
  PredictClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return false;
  if (!client.SendLine("GET " + path + " HTTP/1.1").ok()) return false;
  if (!client.SendLine("Host: localhost").ok()) return false;
  if (!client.SendLine("").ok()) return false;
  std::vector<std::string> lines;
  for (;;) {
    Result<std::string> line = client.ReadLine();
    if (!line.ok()) break;  // the daemon closes after the response
    std::string text = *line;
    if (!text.empty() && text.back() == '\r') text.pop_back();
    lines.push_back(text);
  }
  if (lines.empty()) return false;
  *status_line = lines[0];
  size_t at = 1;
  while (at < lines.size() && !lines[at].empty()) ++at;  // headers
  ++at;                                                  // blank separator
  body->clear();
  for (; at < lines.size(); ++at) {
    *body += lines[at];
    *body += '\n';
  }
  return true;
}

}  // namespace mrperf::bench
