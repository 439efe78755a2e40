/// \file connection.h
/// \brief One accepted predictd connection on an event loop:
/// nonblocking line framing in, slot-ordered pipelined responses out,
/// plus the HTTP `GET /metrics` fast path.
///
/// A Connection is **loop-confined**: every member is touched only from
/// its EventLoop's thread (readiness handlers and posted tasks), so it
/// holds no locks at all. The service's response callbacks fire on the
/// dispatcher thread and cross back via EventLoop::Post with a
/// weak_ptr — a connection that died first simply drops the response.
///
/// **Ordered pipelining.** Each submitted request line claims the next
/// response slot; completions may arrive in any order (coalescing and
/// batching reorder them), but bytes go out strictly in slot order —
/// the same request-order guarantee the old thread-per-connection
/// writer gave, without a thread. Rejections the service answers
/// synchronously just mark their slot ready immediately.
///
/// **Framing.** Identical to the old transport, byte for byte: lines
/// split on '\n', a trailing '\r' stripped, blank lines ignored as
/// keep-alives, and a line (or lineless buffer) beyond max_line_bytes
/// answered with the same structured parse_error the old transport
/// produced, after which no further input is parsed. The connection
/// then discards inbound bytes until the client closes, so the error
/// response is never cut off by a reset.
///
/// **HTTP.** When enabled, a first read starting with "GET " switches
/// the connection to one-shot HTTP: `/metrics` returns the Prometheus
/// text exposition, `/stats` the /stats JSON, anything else 404; the
/// response carries Connection: close and the socket closes after the
/// flush. Scrapers and the JSON protocol share the listen port and the
/// event loop.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "serve/event_loop.h"

namespace mrperf {

/// \brief Shared, immutable context the owning LineServer hands every
/// connection; must outlive them all.
///
/// The transport is decoupled from PredictService through the two
/// submit callbacks: predictd wires them to
/// PredictService::SubmitLine/RejectRequestErrorTo, while the fleet
/// router wires them to its routing layer — same framing, pipelining
/// and drain semantics either way (serve/line_server.h).
struct ConnectionContext {
  /// Receives one response line (exactly once per submitted line).
  using ResponseCallback = std::function<void(std::string)>;

  /// Routes one request line; `done` may fire synchronously on the
  /// calling thread or later from any other thread.
  std::function<void(const std::string& line, const std::string& peer,
                     ResponseCallback done)>
      submit_line;
  /// Builds (and counts) the structured parse_error response for an
  /// oversized request line the transport rejected itself.
  std::function<void(const std::string& message, ResponseCallback done)>
      reject_overlong;
  /// Maximum request-line length, newline included.
  size_t max_line_bytes = 1 << 16;
  /// Serve HTTP GETs (metrics/stats) on the same port.
  bool enable_http = true;
  /// Renders the Prometheus exposition (counts the scrape).
  std::function<std::string()> render_metrics;
  /// Renders the /stats JSON payload (no trailing newline).
  std::function<std::string()> render_stats;
};

/// \brief One live connection (see file comment). Construct into a
/// shared_ptr, then Register() on the loop thread.
class Connection : public EventLoop::Handler,
                   public std::enable_shared_from_this<Connection> {
 public:
  /// Invoked exactly once, on the loop thread, after the fd is closed;
  /// the owner drops its reference here.
  using ClosedCallback =
      std::function<void(const std::shared_ptr<Connection>&)>;

  /// `fd` must already be nonblocking; the connection owns it.
  Connection(int fd, std::string peer, EventLoop* loop,
             const ConnectionContext* context, ClosedCallback on_closed);
  ~Connection() override;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers with the loop for readability. Loop thread only; on
  /// registration failure the connection closes immediately (the
  /// closed callback still fires).
  void Register();

  /// Drain: stop reading (half-close the read side), flush every
  /// pending response, then close. Loop thread only; idempotent.
  void BeginDrain();

  /// Closes immediately, dropping unflushed bytes — the shutdown
  /// backstop for a client that never reads its responses. Loop thread
  /// only; idempotent.
  void ForceClose();

  /// Peer address ("ip:port"), the per-client quota key.
  const std::string& peer() const { return peer_; }

  /// The loop this connection lives on (the owner posts BeginDrain /
  /// ForceClose here).
  EventLoop* loop() const { return loop_; }

  void OnReady(uint32_t events) override;

 private:
  enum class ReadState {
    kReading,     // parsing request lines (or HTTP headers)
    kDiscarding,  // after an oversized line: consume + drop until EOF
    kDone,        // EOF seen, drain began, or a write failed
  };

  /// One pipelined response slot, filled when its evaluation lands.
  struct Slot {
    bool ready = false;
    /// Raw bytes (HTTP response) vs a line to frame with '\n'.
    bool raw = false;
    std::string text;
  };

  void HandleReadable();
  void HandleWritable();
  /// Parses buffered bytes into lines / an HTTP request. Returns false
  /// when the read path ended (overlong, HTTP dispatched).
  bool ProcessBuffer();
  bool ProcessHttp();
  /// Submits one request line; its response fills the claimed slot.
  void EnqueueLine(const std::string& line);
  /// The old transport's oversized-line behavior, byte for byte:
  /// structured parse_error response, then no further parsing.
  void HandleOverlong();
  void OnResponseReady(uint64_t index, std::string text);
  /// Moves ready head slots into the write buffer and writes.
  void FlushSlots();
  void TryWrite();
  void OnWriteFailed();
  /// Recomputes the epoll interest mask (level-triggered: an interest
  /// that is always satisfiable must be dropped or the loop spins).
  void UpdateInterest();
  /// Half-closes the write side once flushed; closes when the read
  /// side is finished too.
  void MaybeFinish();
  void CloseNow();

  const int fd_;
  const std::string peer_;
  EventLoop* const loop_;
  const ConnectionContext* const context_;
  ClosedCallback on_closed_;

  // --- loop-confined state ---
  ReadState read_state_ = ReadState::kReading;
  bool http_checked_ = false;
  bool http_mode_ = false;
  bool write_failed_ = false;
  bool shut_wr_done_ = false;
  bool finished_ = false;
  uint32_t interest_ = 0;
  std::string read_buffer_;
  std::string write_buffer_;
  size_t write_pos_ = 0;
  std::deque<Slot> slots_;
  /// Absolute index of slots_.front(); completions address slots by
  /// absolute index so flushed fronts never shift the addressing.
  uint64_t slot_base_ = 0;
  uint64_t next_slot_ = 0;
};

}  // namespace mrperf
