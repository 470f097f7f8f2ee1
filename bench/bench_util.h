// Shared helpers for the figure/table benches.
//
// Every bench prints the same rows/series its paper counterpart reports.
// By default sessions are shorter than the paper's 120 s x >=5 repeats so
// the whole harness runs in minutes; set VTP_FULL=1 for paper-length runs.
//
// Independent (repeat, config) session runs fan out across a thread pool
// sized by VTP_BENCH_THREADS (default: hardware concurrency). Each run owns
// its own Simulator, so results are bit-identical per seed no matter the
// thread count; ParallelRepeats returns them in index order so every bench
// aggregates and prints exactly what the serial harness did.
#pragma once

#include <chrono>
#include <ctime>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/knobs.h"
#include "core/stats.h"
#include "core/table.h"
#include "core/thread_pool.h"
#include "netsim/time.h"

namespace vtp::bench {

/// True when VTP_FULL=1 is set in the environment.
inline bool FullRuns() { return core::knobs::kFull.Get(); }

/// Session length: the paper's 120 s under VTP_FULL, else 20 s.
inline net::SimTime SessionDuration() {
  return FullRuns() ? net::Seconds(120) : net::Seconds(20);
}

/// Repeats per configuration: the paper's 5 under VTP_FULL, else 3.
inline int Repeats() { return FullRuns() ? 5 : 3; }

/// Worker threads for ParallelRepeats: VTP_BENCH_THREADS, whose negative
/// sentinel default means one per hardware thread. 0 or 1 runs serially.
inline int BenchThreads() {
  const int v = core::knobs::kBenchThreads.Get();
  return v < 0 ? static_cast<int>(core::ThreadPool::HardwareThreads()) : v;
}

/// Runs `fn(0) .. fn(n-1)` across BenchThreads() workers and returns the
/// results in index order. Each invocation must be self-contained (own
/// Simulator, own seeds); the index-ordered merge keeps downstream
/// aggregation independent of scheduling.
template <class Fn>
auto ParallelRepeats(int n, Fn&& fn) -> std::vector<decltype(fn(0))> {
  using Result = decltype(fn(0));
  std::vector<Result> results(static_cast<std::size_t>(n < 0 ? 0 : n));
  const int threads = BenchThreads();
  if (threads <= 1 || n <= 1) {
    for (int i = 0; i < n; ++i) results[static_cast<std::size_t>(i)] = fn(i);
    return results;
  }
  core::ThreadPool pool(static_cast<unsigned>(threads));
  for (int i = 0; i < n; ++i) {
    pool.Submit([&results, &fn, i] { results[static_cast<std::size_t>(i)] = fn(i); });
  }
  pool.Wait();
  return results;
}

/// Wall-clock stopwatch for perf reporting.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// CPU-time stopwatch for the calling thread: unlike wall time it does not
/// count the intervals the thread spends descheduled, so A/B ratios of a
/// single-threaded workload stay stable on a shared machine.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(Now()) {}
  double seconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }
  double start_;
};

/// Prints a section banner.
inline void Banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Formats a Summary as the box-plot row the paper's figures show.
inline std::vector<std::string> BoxRow(const std::string& label, const core::Summary& s,
                                       int precision = 2) {
  return {label,          core::Fmt(s.mean, precision), core::Fmt(s.stddev, precision),
          core::Fmt(s.p5, precision),  core::Fmt(s.p25, precision),
          core::Fmt(s.p50, precision), core::Fmt(s.p75, precision),
          core::Fmt(s.p95, precision)};
}

inline std::vector<std::string> BoxHeader(const std::string& metric) {
  return {metric, "mean", "std", "p5", "p25", "p50", "p75", "p95"};
}

}  // namespace vtp::bench
