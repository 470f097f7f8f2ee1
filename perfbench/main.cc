// perfbench: the repository benchmark's program.
//
//   perfbench --workload spatial_call|sfu_loopback|fleet --seed N --seconds S
//             --trace 0|1 [--tiny] [--fault corrupt-payload|fleet-digest]
//             [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with no benchmark spans;
// --trace 1 records spans around every call into the program and reports
// the per-layer metrics. Both print one line per metric ("<name> <value>
// <unit>"), run the workload's output checks, and end with one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <string>

#include "common.h"
#include "obs/snapshot.h"

namespace perfbench {

std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::int64_t CpuClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t ThreadCpuNs() { return CpuClockNs(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t ProcessCpuNs() { return CpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t Fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t SumCounters(const vtp::obs::Snapshot& snap, const std::string& prefix,
                          const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      total += value;
    }
  }
  return total;
}

double TraceOverhead(const std::vector<double>& untraced, const std::vector<double>& traced) {
  if (untraced.empty() || traced.empty()) return 0;
  const double base = Median(untraced);
  return base > 0 ? Median(traced) / base - 1.0 : 0;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld", s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    if (s.cpu_ns >= 0) std::fprintf(f, ",\"cpu_ns\":%lld", static_cast<long long>(s.cpu_ns));
    if (s.frame != Span::kNoFrame) {
      std::fprintf(f, ",\"sender\":%u,\"seq\":%u", static_cast<unsigned>(s.frame >> 32),
                   static_cast<unsigned>(s.frame & 0xFFFFFFFFu));
    }
    if (s.receiver >= 0) std::fprintf(f, ",\"receiver\":%d", s.receiver);
    std::fputs("}\n", f);
  }
  return std::fclose(f) == 0;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every metric below; BENCHMARK.json lists the same
// names and units, and the self-test holds the two in step.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"frames_per_s", "frames/s"},
    {"frame_latency_ms_p50", "ms"},
    {"frame_latency_ms_p90", "ms"},
    {"sfu_cpu_us_per_fwd", "us"},
    {"delivery_ratio", "fraction"},
    {"peak_rss_mb", "MB"},
    {"persona_mbps", "Mbps"},
};

// A layer a workload does not exercise reports 0 (no calls, no time).
constexpr MetricDef kPerLayer[] = {
    {"semantic.encode_us", "us"},
    {"semantic.encode.share", "fraction"},
    {"semantic.decode_us", "us"},
    {"semantic.decode.share", "fraction"},
    {"semantic.reconstruct_us", "us"},
    {"semantic.reconstruct.share", "fraction"},
    {"audio.encode_us", "us"},
    {"audio.encode.share", "fraction"},
    {"semantic.bytes_per_frame", "B"},
    {"netsim.events", "count"},
    {"ledger.residual_ns_per_event", "ns"},
    {"ledger.residual.share", "fraction"},
    {"quic.packets_per_frame", "packets/frame"},
    {"quic.packets_per_datagram", "packets/datagram"},
    {"quic.packets_declared_lost", "count"},
    {"transport.send_us", "us"},
    {"socket.server_busy_frac", "fraction"},
    {"socket.datagrams_per_pump", "datagrams/pump"},
    {"socket.server_pump_cpu_us", "us"},
    {"socket.client_cpu_us_per_recv", "us"},
    {"socket.send_errors", "count"},
    {"ledger.server_pump_cpu_frac", "fraction"},
    {"wallclock.timer_late_us_p50", "us"},
    {"wallclock.timer_late_us_p99", "us"},
    {"wallclock.late_ticks", "count"},
    {"wallclock.coalesced_ticks", "count"},
    {"wallclock.early_fires", "count"},
    {"fleet.hops_per_frame", "hops/frame"},
    {"fleet.handoffs_per_frame", "handoffs/frame"},
    {"fleet.windows", "count"},
    {"fleet.wall_us_per_window", "us"},
    {"fleet.spills", "count"},
    {"fleet.fastforward_frac", "fraction"},
    {"fleet.events", "count"},
    {"fleet.speedup_4_shards", "ratio"},
    {"persona_availability", "fraction"},
    {"sim_latency_ms_p50", "ms"},
    {"sim_latency_ms_p99", "ms"},
    {"loopback.latency_ms_p99", "ms"},
    {"trace.overhead_frac", "fraction"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload spatial_call|sfu_loopback|fleet --seed N "
               "--seconds S --trace 0|1 [--tiny] [--fault corrupt-payload|fleet-digest] "
               "[--trace-out FILE]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt->tiny = true;
    } else if (arg == "--workload" && has_value) {
      opt->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt->trace = std::string(argv[++i]) == "1";
    } else if (arg == "--fault" && has_value) {
      opt->fault = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      opt->trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0 &&
         (opt->fault.empty() || opt->fault == "corrupt-payload" || opt->fault == "fleet-digest");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();

  Outcome out;
  try {
    if (opt.workload == "spatial_call") {
      out = RunSpatialCall(opt);
    } else if (opt.workload == "sfu_loopback") {
      out = RunSfuLoopback(opt);
    } else if (opt.workload == "fleet") {
      out = RunFleet(opt);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  if (!opt.trace_out.empty() && !out.spans.WriteJsonl(opt.trace_out)) {
    out.errors.push_back("cannot write spans to " + opt.trace_out);
  }

  std::string json = "{";
  bool first = true;
  auto emit = [&](const MetricDef& def, bool required) {
    const auto it = out.metrics.find(def.name);
    double value = it == out.metrics.end() ? 0.0 : it->second;
    if (required && it == out.metrics.end()) {
      out.errors.push_back(std::string("metric not measured: ") + def.name);
    }
    if (!std::isfinite(value)) {
      out.errors.push_back(std::string("metric not finite: ") + def.name);
      value = 0;
    }
    std::printf("%-32s %.6g %s\n", def.name, value, def.unit);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, value, def.unit);
    json += buf;
    first = false;
  };
  if (opt.trace) {
    for (const MetricDef& def : kPerLayer) emit(def, /*required=*/false);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, /*required=*/true);
  }
  json += "}";

  if (out.attempted == 0) out.errors.push_back("no frames attempted");
  for (const std::string& e : out.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  const bool correct = out.errors.empty() && out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
