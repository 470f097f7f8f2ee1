#include "netsim/event_loop.h"

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <limits>
#include <stdexcept>

#ifdef __linux__
#include <sys/epoll.h>
#include <unistd.h>
#endif

namespace vtp::net {

int TimeoutToMillis(SimTime timeout) {
  if (timeout < 0) return -1;
  const SimTime ms = (timeout + kMillisecond - 1) / kMillisecond;
  return static_cast<int>(std::min<SimTime>(ms, std::numeric_limits<int>::max()));
}

#ifdef __linux__

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::Add(int fd, FdReadHandler on_readable) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error("epoll_ctl(ADD) failed");
  }
  handlers_[fd] = std::move(on_readable);
}

void EventLoop::Remove(int fd) {
  if (handlers_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

int EventLoop::Wait(SimTime timeout) {
  epoll_event events[64];
  int n = -1;
  if (ns_wait_) {
    timespec ts{};
    ts.tv_sec = static_cast<std::time_t>(timeout / kSecond);
    ts.tv_nsec = static_cast<long>(timeout % kSecond);
    n = ::epoll_pwait2(epoll_fd_, events, 64, timeout < 0 ? nullptr : &ts, nullptr);
    // Kernels before 5.11 lack the syscall (ENOSYS); seccomp filters that
    // predate it refuse it (EPERM, which epoll_pwait2 itself never returns).
    // Either way, drop to millisecond epoll_wait for the loop's lifetime.
    if (n < 0 && (errno == ENOSYS || errno == EPERM)) ns_wait_ = false;
  }
  if (!ns_wait_) n = ::epoll_wait(epoll_fd_, events, 64, TimeoutToMillis(timeout));
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw std::runtime_error("epoll_wait failed");
  }
  int dispatched = 0;
  for (int i = 0; i < n; ++i) {
    auto it = handlers_.find(events[i].data.fd);
    if (it == handlers_.end()) continue;  // removed by an earlier handler
    it->second(it->first);
    ++dispatched;
  }
  return dispatched;
}

#else  // poll(2) fallback (macOS and other POSIX): millisecond timeouts only

EventLoop::EventLoop() = default;
EventLoop::~EventLoop() = default;

void EventLoop::Add(int fd, FdReadHandler on_readable) { handlers_[fd] = std::move(on_readable); }

void EventLoop::Remove(int fd) { handlers_.erase(fd); }

int EventLoop::Wait(SimTime timeout) {
  pollfds_.clear();
  for (const auto& [fd, handler] : handlers_) {
    pollfds_.push_back(pollfd{fd, POLLIN, 0});
  }
  int n = ::poll(pollfds_.data(), static_cast<nfds_t>(pollfds_.size()), TimeoutToMillis(timeout));
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw std::runtime_error("poll failed");
  }
  int dispatched = 0;
  for (const pollfd& p : pollfds_) {
    if ((p.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    auto it = handlers_.find(p.fd);
    if (it == handlers_.end()) continue;  // removed by an earlier handler
    it->second(it->first);
    ++dispatched;
  }
  return dispatched;
}

#endif

}  // namespace vtp::net
