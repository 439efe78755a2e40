/// \file listener.h
/// \brief Nonblocking IPv4 TCP listener on an event loop, owned by the
/// line server that fronts predictd and the fleet router.
///
/// Open() binds and listens synchronously (so a port-in-use error
/// surfaces from Start(), not from a log line); Register() arms the
/// listener on an event loop, whose readiness callback accepts until
/// EAGAIN and hands each accepted socket — already nonblocking and
/// close-on-exec — to the owner's callback together with its
/// "ip:port" peer string. The owner decides what a connection is;
/// the listener owns only the listening socket.
///
/// Register() and Shutdown() follow the EventLoop registration
/// discipline: loop thread only (Post from elsewhere). Shutdown() is
/// also callable before Register() — e.g. when a later Start() step
/// fails — and is idempotent.

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "serve/event_loop.h"

namespace mrperf {

/// \brief One nonblocking listening socket (see file comment).
class TcpListener : public EventLoop::Handler {
 public:
  /// Receives one accepted connection: a nonblocking socket the
  /// callback now owns, and the peer's "ip:port". Runs on the loop
  /// thread that the listener registered on.
  using AcceptCallback = std::function<void(int fd, std::string peer)>;

  TcpListener() = default;
  /// Closes the socket if still open (Shutdown() is the orderly path).
  ~TcpListener() override;

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Creates, binds and listens. `port` 0 picks an ephemeral port;
  /// read it back via port(). Errors (bad address, port in use) are
  /// returned with the socket closed.
  Status Open(const std::string& host, int port);

  /// Port actually bound (resolves port 0); valid after Open().
  int port() const { return port_; }

  /// Arms the listener on `loop`. Loop thread only; the listener must
  /// stay valid until Shutdown() on the same loop.
  Status Register(EventLoop* loop, AcceptCallback on_accept);

  /// Unregisters (if registered) and closes the socket. Loop thread
  /// only once registered; callable from anywhere before that.
  /// Idempotent.
  void Shutdown();

  void OnReady(uint32_t events) override;

 private:
  int fd_ = -1;
  int port_ = 0;
  EventLoop* loop_ = nullptr;
  AcceptCallback on_accept_;
};

}  // namespace mrperf
