#include "serve/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace mrperf {

EventLoop::EventLoop() = default;

EventLoop::~EventLoop() {
  Stop();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Status EventLoop::Start() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(std::string("epoll_create1(): ") +
                            std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const std::string err = std::strerror(errno);
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::Internal("eventfd(): " + err);
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) < 0) {
    const std::string err = std::strerror(errno);
    ::close(epoll_fd_);
    ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    return Status::Internal("epoll_ctl(ADD wake): " + err);
  }
  running_ = true;
  thread_ = std::thread([this] { Run(); });
  started_.store(true);
  return Status::OK();
}

void EventLoop::Stop() {
  if (!started_.load()) return;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      // A concurrent/previous Stop already posted the exit task; just
      // join below (join is serialized by joinable()).
    } else {
      stopping_ = true;
      tasks_.push_back([this] { running_ = false; });
    }
  }
  // Wake unconditionally: the exit task may have been queued behind a
  // collapsed wake that was already consumed.
  uint64_t one = 1;
  // A full counter (EAGAIN) already guarantees a pending wake.
  // lint:allow-next-line(blocking-io): nonblocking wake eventfd
  const ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
  if (thread_.joinable()) thread_.join();
}

Status EventLoop::Add(int fd, uint32_t events, Handler* handler) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
    return Status::Internal(std::string("epoll_ctl(ADD): ") +
                            std::strerror(errno));
  }
  handlers_[fd] = handler;
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) < 0) {
    return Status::Internal(std::string("epoll_ctl(MOD): ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::Post(std::function<void()> task) {
  bool need_wake = false;
  {
    MutexLock lock(mu_);
    if (stopping_) return;  // loop is tearing down; nothing to run on
    tasks_.push_back(std::move(task));
    if (!wake_pending_) {
      wake_pending_ = true;
      need_wake = true;
    }
  }
  if (need_wake) {
    uint64_t one = 1;
    // A full counter (EAGAIN) already guarantees a pending wake.
    // lint:allow-next-line(blocking-io): nonblocking wake eventfd
    const ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
    (void)ignored;
  }
}

int64_t EventLoop::pending_tasks() const {
  MutexLock lock(mu_);
  return static_cast<int64_t>(tasks_.size());
}

void EventLoop::RunPendingTasks() {
  std::deque<std::function<void()>> tasks;
  {
    MutexLock lock(mu_);
    tasks.swap(tasks_);
    wake_pending_ = false;
  }
  for (std::function<void()>& task : tasks) {
    task();
  }
}

void EventLoop::Run() {
  std::vector<epoll_event> events(64);
  while (running_) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), /*timeout=*/-1);
    if (n < 0) {
      if (errno == EINTR) continue;
      MRPERF_LOG(Warning) << "event loop: epoll_wait failed: "
                          << std::strerror(errno);
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        // Draining the wake counter, not socket I/O.
        // lint:allow-next-line(blocking-io): nonblocking wake eventfd
        const ssize_t ignored = ::read(wake_fd_, &drained, sizeof(drained));
        (void)ignored;
        continue;
      }
      // Re-check registration per event: an earlier handler in this
      // batch may have removed this fd (e.g. closed a connection).
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      it->second->OnReady(events[i].events);
    }
    // Tasks run after the epoll batch, in post order — a completion
    // posted mid-batch runs before the next epoll_wait.
    RunPendingTasks();
    if (static_cast<size_t>(n) == events.size() && events.size() < 4096) {
      events.resize(events.size() * 2);  // saturated batch: widen
    }
  }
}

}  // namespace mrperf
