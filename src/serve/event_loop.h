/// \file event_loop.h
/// \brief A single-threaded epoll event loop with a cross-thread task
/// queue — the C10k transport core under predictd.
///
/// One EventLoop owns one epoll instance and one thread. File
/// descriptors register a Handler for level-triggered readiness;
/// handlers run on the loop thread, so any state touched only from
/// handlers and posted tasks needs no locking ("loop-confined" — this
/// is how Connection stays lock-free). Other threads communicate with
/// the loop exclusively through Post(): the task is queued under a
/// mutex and an eventfd write wakes the loop, which runs queued tasks
/// between epoll batches. This is the self-pipe pattern with eventfd
/// as the pipe; it is how the service's dispatcher thread hands a
/// completed response back to the connection's loop.
///
/// Registration discipline: Add/Modify/Remove must be called on the
/// loop thread (Post a task from elsewhere). The loop dispatches an
/// epoll batch through a fd -> Handler map and re-checks the map per
/// event, so a handler that removes another fd (or itself) mid-batch
/// can never receive — or cause — a stale callback.
///
/// Blocking-I/O rule (enforced by tools/lint/check_source.py): the
/// loop thread must never block on a file descriptor; the only read()
/// and write() in event_loop.cc touch the nonblocking wake eventfd and
/// carry `lint:allow(blocking-io)` markers. Socket I/O belongs in
/// Handler implementations (connection.cc), inside readiness handlers
/// on nonblocking fds.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace mrperf {

/// \brief One epoll loop on one thread (see file comment).
class EventLoop {
 public:
  /// \brief Readiness callback for one registered fd. Runs on the loop
  /// thread. `events` is the epoll event mask (EPOLLIN/EPOLLOUT/...).
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void OnReady(uint32_t events) = 0;
  };

  EventLoop();
  /// Stops and joins if still running.
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and wake eventfd and starts the loop
  /// thread. Must be called (successfully) before anything else.
  Status Start();

  /// Asks the loop to exit after the current batch, then joins the
  /// thread. Already-queued tasks run before exit; handlers are not
  /// called afterwards. Idempotent.
  void Stop();

  /// Registers `fd` (must be nonblocking) for `events`, dispatching to
  /// `handler`. Loop thread only. The handler must stay valid until
  /// Remove(fd).
  Status Add(int fd, uint32_t events, Handler* handler);

  /// Changes the registered event mask. Loop thread only.
  Status Modify(int fd, uint32_t events);

  /// Unregisters `fd`; pending events for it in the current batch are
  /// dropped. Loop thread only. Does not close the fd.
  void Remove(int fd);

  /// Enqueues `task` to run on the loop thread, in post order, and
  /// wakes the loop. Thread-safe; callable from the loop thread itself
  /// (the task runs after the current batch). Tasks posted after
  /// Stop() was observed are silently dropped — by then every
  /// connection of this loop is already torn down.
  void Post(std::function<void()> task);

  /// Tasks posted but not yet run (the "event-loop depth" gauge).
  int64_t pending_tasks() const;

 private:
  void Run();
  void RunPendingTasks();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> started_{false};

  mutable Mutex mu_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Set while a wake write is already pending, to collapse redundant
  /// eventfd writes under bursts of posts.
  bool wake_pending_ GUARDED_BY(mu_) = false;

  /// Loop-thread-only: fd -> handler, consulted per dispatched event.
  std::unordered_map<int, Handler*> handlers_;
  bool running_ = false;  // loop-thread-only exit flag
};

}  // namespace mrperf
