#include "serve/line_server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

namespace mrperf {
namespace {

/// Bound on the graceful flush during DrainAndStop; a client that never
/// reads its last responses is force-closed after this.
constexpr std::chrono::milliseconds kDrainFlushTimeout{5000};

}  // namespace

LineServer::LineServer(const LineServerOptions& options,
                       ConnectionContext handlers)
    : options_(options), context_(std::move(handlers)) {
  context_.max_line_bytes = options_.max_line_bytes;
  context_.enable_http = options_.enable_metrics;
  if (!context_.render_metrics) return;
  context_.render_metrics = [this,
                             render = std::move(context_.render_metrics)] {
    metrics_requests_.fetch_add(1, std::memory_order_relaxed);
    return render();
  };
}

LineServer::~LineServer() { DrainAndStop(nullptr); }

Status LineServer::Open() {
  MRPERF_RETURN_NOT_OK(listener_.Open(options_.host, options_.port));
  for (int i = 0; i < std::max(1, options_.event_loop_threads); ++i) {
    auto loop = std::make_unique<EventLoop>();
    const Status started = loop->Start();
    if (!started.ok()) {
      StopAfterFailedStart();
      return started;
    }
    loops_.push_back(std::move(loop));
  }
  return Status::OK();
}

Status LineServer::StartAccepting() {
  // The listener registers on loop 0's own thread (registration
  // discipline); this reports its epoll_ctl outcome.
  EventLoop* accept_loop = loops_.front().get();
  std::promise<Status> registered;
  accept_loop->Post([this, accept_loop, &registered] {
    registered.set_value(
        listener_.Register(accept_loop, [this](int fd, std::string peer) {
          HandleAccept(fd, std::move(peer));
        }));
  });
  const Status added = registered.get_future().get();
  if (!added.ok()) StopAfterFailedStart();
  return added;
}

void LineServer::StopAfterFailedStart() {
  for (const auto& running : loops_) running->Stop();
  // The loops are joined, so the listener may unregister from here.
  listener_.Shutdown();
  loops_.clear();
}

void LineServer::HandleAccept(int fd, std::string peer) {
  if (stopping_.load()) {
    ::close(fd);
    return;
  }
  EventLoop* loop =
      loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
             loops_.size()]
          .get();
  auto conn = std::make_shared<Connection>(
      fd, std::move(peer), loop, &context_,
      [this](const std::shared_ptr<Connection>& closed) {
        MutexLock lock(conns_mu_);
        conns_.erase(closed.get());
        conns_cv_.NotifyAll();
      });
  {
    MutexLock lock(conns_mu_);
    conns_.emplace(conn.get(), conn);
    ++connections_total_;
  }
  // Register on the owning loop's thread (this may be loop 0 itself;
  // the task then runs right after this accept batch).
  loop->Post([conn] { conn->Register(); });
}

std::vector<std::shared_ptr<Connection>> LineServer::LiveConnections() {
  MutexLock lock(conns_mu_);
  std::vector<std::shared_ptr<Connection>> live;
  live.reserve(conns_.size());
  for (const auto& entry : conns_) live.push_back(entry.second);
  return live;
}

LineServerStats LineServer::Stats() const {
  LineServerStats stats;
  stats.event_loop_threads = static_cast<int>(loops_.size());
  for (const auto& loop : loops_) {
    stats.event_loop_pending_tasks += loop->pending_tasks();
  }
  {
    MutexLock lock(conns_mu_);
    stats.connections_current = static_cast<int64_t>(conns_.size());
    stats.connections_total = connections_total_;
  }
  stats.metrics_requests_total =
      metrics_requests_.load(std::memory_order_relaxed);
  return stats;
}

bool LineServer::DrainAndStop(const std::function<void()>& drain_backend) {
  {
    MutexLock lock(stop_mu_);
    if (stopped_) return false;
    stopped_ = true;
  }
  stopping_.store(true);

  // 1. Stop accepting: unregister and close the listener on its loop,
  // synchronously — afterwards no connection can appear.
  if (!loops_.empty()) {
    std::promise<void> removed;
    loops_.front()->Post([this, &removed] {
      listener_.Shutdown();
      removed.set_value();
    });
    removed.get_future().wait();
  } else {
    listener_.Shutdown();
  }

  // 2. The backend's drain: every admitted request is answered and its
  // completion posted to the owning connection's loop; later arrivals
  // resolve immediately as shutting_down rejections.
  if (drain_backend) drain_backend();

  // 3. Drain connections: half-close read sides, flush the remaining
  // responses, close. The drain posts enqueue after all completion
  // posts from step 2 (same loop, FIFO), so no response is lost.
  std::vector<std::shared_ptr<Connection>> remaining = LiveConnections();
  for (const auto& conn : remaining) {
    conn->loop()->Post([conn] { conn->BeginDrain(); });
  }
  const auto deadline = std::chrono::steady_clock::now() + kDrainFlushTimeout;
  {
    MutexLock lock(conns_mu_);
    while (!conns_.empty() &&
           std::chrono::steady_clock::now() < deadline) {
      conns_cv_.WaitFor(lock, std::chrono::milliseconds(50));
    }
  }

  // 4. Force-close stragglers (clients that never read their last
  // responses must not wedge shutdown), then stop the loops. Stop()
  // runs already-queued tasks — including these — before exiting.
  for (const auto& conn : LiveConnections()) {
    conn->loop()->Post([conn] { conn->ForceClose(); });
  }
  for (const auto& loop : loops_) loop->Stop();
  {
    // Safety net: anything still tracked after the loops stopped is
    // released here (its destructor closes the fd).
    MutexLock lock(conns_mu_);
    conns_.clear();
  }
  remaining.clear();
  return true;
}

}  // namespace mrperf
