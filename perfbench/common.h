// Shared plumbing for the perfbench workloads: options, clocks, summary
// statistics, the span log the traced runs fill, and the outcome record each
// workload returns to main().
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace vtp::obs {
struct Snapshot;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;       ///< self-test scale: seconds of work, not minutes
  std::string fault;       ///< injected fault: "", "corrupt-payload", "fleet-digest"
  std::string trace_out;   ///< where the traced run writes its spans ("" = nowhere)
};

// --- clocks -----------------------------------------------------------------

std::int64_t WallNs();        ///< steady_clock
std::int64_t ThreadCpuNs();   ///< CPU time of the calling thread
std::int64_t ProcessCpuNs();  ///< CPU time of every thread of the process
double PeakRssMb();

// --- statistics -------------------------------------------------------------

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

std::uint64_t Fnv1a(std::span<const std::uint8_t> bytes);

/// Sum of every snapshot counter named "<prefix>...<suffix>", e.g. one QUIC
/// counter over all connections ("quic.conn", ".packets_sent").
std::uint64_t SumCounters(const vtp::obs::Snapshot& snap, const std::string& prefix,
                          const std::string& suffix);

// --- tracing ----------------------------------------------------------------

/// One span recorded in the benchmark's own code around a call into the
/// program. `frame` ties the spans of one persona frame together:
/// (sender << 32) | seq, or kNoFrame for spans that carry no frame.
struct Span {
  static constexpr std::uint64_t kNoFrame = ~std::uint64_t{0};
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = -1;  ///< thread CPU inside the span, -1 if not taken
  std::uint64_t frame = kNoFrame;
  int receiver = -1;
};

/// Spans kept in memory during the run and written out at the end.
class SpanLog {
 public:
  void Reserve(std::size_t n) { spans_.reserve(n); }
  void Add(const Span& s) { spans_.push_back(s); }
  void Append(const std::vector<Span>& more) {
    spans_.insert(spans_.end(), more.begin(), more.end());
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line. Returns false if the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// --- outcome ----------------------------------------------------------------

/// What a workload hands back: its metrics (name -> value; units live in the
/// metric tables in main.cc), the frame accounting, and every failed check.
struct Outcome {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  SpanLog spans;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

Outcome RunSpatialCall(const Options& opt);
Outcome RunSfuLoopback(const Options& opt);
Outcome RunFleet(const Options& opt);

/// Relative overhead of the traced reps against the untraced ones, from
/// their median costs (e.g. wall seconds per rep); 0 when either is empty.
double TraceOverhead(const std::vector<double>& untraced, const std::vector<double>& traced);

}  // namespace perfbench
