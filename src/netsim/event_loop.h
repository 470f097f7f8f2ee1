// A minimal readiness event loop for the socket Medium backend.
//
// epoll on Linux, poll(2) everywhere else — the surface is the small subset
// both can serve: register a nonblocking fd with a read callback, wait with
// a timeout, dispatch. The loop knows nothing about timers; SocketMedium
// pairs it with a WallClockDriver so the wait timeout is the next
// timer-wheel deadline (sleep, don't spin — DESIGN §14).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "netsim/time.h"

#ifndef __linux__
#include <poll.h>

#include <vector>
#endif

namespace vtp::net {

/// Invoked when `fd` is readable. Handlers should drain the fd (read until
/// EAGAIN): readiness is level-triggered on both backends, but draining
/// keeps syscall counts down.
using FdReadHandler = std::function<void(int fd)>;

/// Converts a wait timeout to whole milliseconds for the ms-resolution
/// syscalls, rounding up so a wait never ends before its deadline: negative
/// stays -1 (indefinitely), 0 stays 0 (just poll), 1 ns becomes 1 ms.
int TimeoutToMillis(SimTime timeout);

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for readability. The fd must already be nonblocking.
  void Add(int fd, FdReadHandler on_readable);

  /// Deregisters `fd` (does not close it).
  void Remove(int fd);

  /// Waits up to `timeout` nanoseconds (negative = indefinitely, 0 = just
  /// poll) and dispatches read handlers for every ready fd. Returns the
  /// number of fds dispatched (0 on timeout). Linux waits with nanosecond
  /// resolution (epoll_pwait2); kernels without it, and the poll(2)
  /// fallback, round the timeout up to whole milliseconds.
  int Wait(SimTime timeout);

  std::size_t watched_fds() const { return handlers_.size(); }

 private:
  std::map<int, FdReadHandler> handlers_;
#ifdef __linux__
  int epoll_fd_ = -1;
  bool ns_wait_ = true;  ///< false once epoll_pwait2 proved unavailable
#else
  std::vector<pollfd> pollfds_;  ///< rebuilt per Wait, capacity reused
#endif
};

}  // namespace vtp::net
