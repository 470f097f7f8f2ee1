// Transport hot-path benchmark: the pooled-writer/ring-buffer QUIC path on
// the workload the paper's scalability story is bounded by — an SFU fanning
// every inbound datagram out to N-1 receivers (§4.2, Figure 6).
//
//   1. fan-out throughput — a 5-persona session (5 clients, one SFU, star
//      topology) pushing 90 FPS semantic-sized datagrams through the relay
//      for a fixed simulated duration; best-of-reps wall time (reported,
//      not gated: the repo benchmark gates throughput on this path);
//   2. steady-state allocations — a global operator-new counter reset after
//      a warmup second; the path must not touch the heap per forwarded
//      packet once pools and rings are warm (a hard, machine-independent
//      gate);
//   3. goldens — the same session with a capture on the SFU's access link:
//      the wire-trace digest (timing, addressing, sizes, and the 16-byte
//      payload prefix of every packet), the delivery digest, the client
//      packet/byte totals and the forwarded count must equal the values
//      pinned below for the run's duration.
//
//   4. observability overhead — the same fan-out session with the frame
//      tracer armed vs off (registry counters are always on), the two
//      sessions interleaved in 10 ms slices and timed in thread CPU time;
//      the median round's on/off ratio is the reading. The packets/s delta
//      must stay under 3% (CI fails the bench above 5%);
//   5. per-stage latency breakdown — a small spatial TelepresenceSession,
//      with the Figure-4-style capture->...->playout stage table produced
//      entirely from obs::Snapshot and cross-checked against the receivers'
//      frames_decoded and a bench-side percentile recomputation.
//
// Results go to BENCH_transport.json (override with VTP_BENCH_JSON);
// `--smoke` shrinks the run for CI. Exit is nonzero on any golden mismatch,
// steady-state allocation, obs overhead > 5%, or an obs snapshot that
// disagrees with the legacy accounting.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "netsim/capture.h"
#include "netsim/network.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "transport/quic.h"
#include "transport/taps.h"
#include "vca/session.h"
#include "vca/sfu.h"

using namespace vtp;

// ---- allocation counter -----------------------------------------------------
// Counts every operator-new in the process; the steady-state section resets
// it after warmup. Single-threaded bench, but atomic keeps it honest.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

constexpr int kPersonas = 5;
constexpr std::uint16_t kSfuPort = 7000;
constexpr std::size_t kPayloadBytes = 240;  // a semantic frame's ballpark

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t Fnv(std::uint64_t h, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

std::uint64_t FnvU64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ static_cast<std::uint8_t>(v)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

std::string Hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Median of a small sample (copies; upper median for even sizes).
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

/// One client persona: ticks at 90 FPS, refreshing a reusable payload in
/// place (xorshift over 64-bit words, deterministic per sender) and sending
/// it as a QUIC datagram tagged for SFU fan-out.
struct PersonaSender {
  net::Simulator* sim = nullptr;
  transport::QuicConnection* conn = nullptr;
  std::vector<std::uint8_t> payload;
  std::uint64_t rng = 0;
  net::SimTime until = 0;
  net::SimTime dt = 0;

  std::uint64_t seq = 0;

  void Start(int id, std::uint64_t seed) {
    payload.assign(kPayloadBytes, 0);
    payload[0] = vca::kRelayTagLocal;
    payload[1] = static_cast<std::uint8_t>(id);
    payload[2] = 0;  // semantic kind: fans out, and exercises the SFU's
    payload[3] = 0;  // relay-stamp parse (codec tag + uleb128 frame index)
    rng = seed;
    Tick();
  }

  void Tick() {
    // Frame index as a padded (non-canonical but valid) 4-byte uleb128, so
    // the header stays fixed-width and the random body never moves.
    payload[4] = static_cast<std::uint8_t>(0x80u | (seq & 0x7Fu));
    payload[5] = static_cast<std::uint8_t>(0x80u | ((seq >> 7) & 0x7Fu));
    payload[6] = static_cast<std::uint8_t>(0x80u | ((seq >> 14) & 0x7Fu));
    payload[7] = static_cast<std::uint8_t>((seq >> 21) & 0x7Fu);
    ++seq;
    for (std::size_t i = 8; i + 8 <= payload.size(); i += 8) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      std::memcpy(payload.data() + i, &rng, 8);
    }
    conn->SendDatagram(payload);
    if (sim->now() + dt <= until) sim->After(dt, [this] { Tick(); });
  }
};

struct SessionResult {
  std::uint64_t forwarded = 0;         ///< SFU forwards over the whole run
  std::uint64_t delivered = 0;         ///< datagrams received across clients
  std::uint64_t payload_digest = kFnvOffset;  ///< delivered bytes, in order
  std::uint64_t wire_digest = kFnvOffset;     ///< capture-trace digest
  std::uint64_t wire_packets = 0;
  std::uint64_t client_packets_sent = 0;
  std::uint64_t client_bytes_sent = 0;
  std::uint64_t prehandshake_drops = 0;
  std::uint64_t steady_allocs = 0;     ///< operator-new count after warmup
  std::uint64_t steady_forwarded = 0;  ///< forwards after warmup
};

/// One 5-persona SFU fan-out session. The star topology (every host one
/// 1 Gbps hop from the hub router) keeps generic netsim cost minimal so the
/// measurement isolates the transport layer.
/// Built whole, then advanced in as many RunUntil() slices as the caller
/// likes (the obs A/B interleaves two sessions slice by slice).
class FanoutSession {
 public:
  FanoutSession(net::SimTime duration, net::SimTime warmup, bool with_capture, bool obs_trace)
      : sim_(1), net_(&sim_) {
    if (obs_trace) sim_.tracer().Enable(/*max_spans=*/1024);
    const net::GeoPoint here{41.88, -87.63};
    const net::NodeId hub = net_.AddNode("hub", here, net::Region::kMiddleUs, /*is_router=*/true);
    const net::LinkConfig access{.rate_bps = 1e9, .prop_delay = net::Millis(1)};
    const net::NodeId server = net_.AddNode("sfu", here, net::Region::kMiddleUs, false);
    net_.Connect(server, hub, access);
    net::NodeId clients[kPersonas];
    for (int i = 0; i < kPersonas; ++i) {
      clients[i] = net_.AddNode("c" + std::to_string(i), here, net::Region::kMiddleUs, false);
      net_.Connect(clients[i], hub, access);
    }
    net_.ComputeRoutes();

    sfu_ = std::make_unique<vca::SfuServer>(&net_, server, kSfuPort,
                                            vca::TransportKind::kQuicDatagram);
    if (with_capture) capture_.AttachToLink(net_, server, hub);

    senders_.resize(kPersonas);
    for (int i = 0; i < kPersonas; ++i) {
      connections_.push_back(transport::taps::Preconnection{}
                                 .WithLocal({clients[i], static_cast<std::uint16_t>(9000 + i)})
                                 .WithRemote({server, kSfuPort})
                                 .Initiate(net_));
      transport::QuicConnection* conn = connections_.back()->quic();
      conn->set_on_datagram([this](std::span<const std::uint8_t> data) {
        ++r_.delivered;
        r_.payload_digest = Fnv(r_.payload_digest, data.data(), data.size());
      });
      conns_.push_back(conn);
      PersonaSender& sender = senders_[static_cast<std::size_t>(i)];
      sender.sim = &sim_;
      sender.conn = conn;
      sender.until = duration;
      sender.dt = net::kSecond / 90;
      // Stagger starts so the five ticks don't land on one instant forever.
      sim_.At(net::Millis(i), [&sender, i] { sender.Start(i, 0x9E3779B97F4A7C15ull * (i + 1)); });
    }

    sim_.At(warmup, [this] {
      warm_forwarded_ = sfu_->forwarded_count();
      g_allocs.store(0, std::memory_order_relaxed);
    });
  }

  FanoutSession(const FanoutSession&) = delete;
  FanoutSession& operator=(const FanoutSession&) = delete;

  void RunUntil(net::SimTime t) { sim_.RunUntil(t); }

  /// Collects the result; call once, after the last RunUntil().
  SessionResult Finish() {
    r_.steady_allocs = g_allocs.load(std::memory_order_relaxed);
    r_.forwarded = sfu_->forwarded_count();
    r_.steady_forwarded = r_.forwarded - warm_forwarded_;
    for (const transport::QuicConnection* conn : conns_) {
      r_.client_packets_sent += conn->stats().packets_sent;
      r_.client_bytes_sent += conn->stats().bytes_sent;
      r_.prehandshake_drops += conn->stats().datagrams_dropped_prehandshake;
    }
    for (const net::CaptureRecord& rec : capture_.records()) {
      std::uint64_t h = r_.wire_digest;
      h = FnvU64(h, static_cast<std::uint64_t>(rec.time));
      h = FnvU64(h, (static_cast<std::uint64_t>(rec.src) << 32) | rec.dst);
      h = FnvU64(h, (static_cast<std::uint64_t>(rec.src_port) << 32) | rec.dst_port);
      h = FnvU64(h, (static_cast<std::uint64_t>(rec.wire_bytes) << 8) | rec.prefix_len);
      r_.wire_digest = Fnv(h, rec.prefix.data(), rec.prefix_len);
      ++r_.wire_packets;
    }
    return r_;
  }

 private:
  SessionResult r_;
  net::Simulator sim_;
  net::Network net_;
  std::unique_ptr<vca::SfuServer> sfu_;
  net::Capture capture_;
  std::vector<std::unique_ptr<transport::taps::Connection>> connections_;
  std::vector<transport::QuicConnection*> conns_;
  std::vector<PersonaSender> senders_;
  std::uint64_t warm_forwarded_ = 0;
};

SessionResult RunSession(net::SimTime duration, net::SimTime warmup, bool with_capture) {
  FanoutSession session(duration, warmup, with_capture, /*obs_trace=*/false);
  session.RunUntil(duration);
  return session.Finish();
}

/// Section 3's pinned observables of the captured fan-out session.
struct FanoutGolden {
  std::uint64_t wire_packets;
  std::uint64_t wire_digest;
  std::uint64_t delivered;
  std::uint64_t payload_digest;
  std::uint64_t client_packets_sent;
  std::uint64_t client_bytes_sent;
  std::uint64_t forwarded;
};

// The fan-out sends no STREAM frames, so only datagram packetization, ACKs
// and SFU forwarding feed these.
constexpr FanoutGolden kSmokeGolden{10522, 0x2e95504444bcb776ull, 5400, 0xbfe7c781d3434403ull,
                                    4220, 402964, 5400};
constexpr FanoutGolden kFullGolden{42058, 0xdea40f835fd4cb55ull, 21600, 0xb94b3b896815bd8bull,
                                   16856, 1594798, 21600};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const net::SimTime duration = smoke ? net::Seconds(3) : net::Seconds(12);
  const net::SimTime warmup = net::Seconds(1);
  const int reps = smoke ? 2 : 5;

  std::cout << "Transport hot-path benchmark: pooled-writer QUIC + SFU fan-out"
            << (smoke ? " (smoke)" : "") << "\n"
            << kPersonas << " personas, " << net::ToSeconds(duration) << " s simulated, " << reps
            << " reps\n";

  // ---- 1+2: timed runs (no capture; its record vector would pollute both
  // the timing and the steady-state allocation count) ------------------------
  bench::Banner("1. fan-out throughput (best of " + std::to_string(reps) + " reps)");
  double best_s = 0;
  SessionResult timed;
  for (int rep = 0; rep < reps; ++rep) {
    const bench::WallTimer timer;
    timed = RunSession(duration, warmup, /*with_capture=*/false);
    const double s = timer.seconds();
    if (rep == 0 || s < best_s) best_s = s;
  }
  const double pps = best_s > 0 ? static_cast<double>(timed.forwarded) / best_s : 0;
  std::cout << timed.forwarded << " forwarded in " << core::Fmt(best_s, 3) << " s  ("
            << core::Fmt(pps / 1000, 1) << "k pkts/s)\n";

  bench::Banner("2. steady-state allocations (after " + core::Fmt(net::ToSeconds(warmup), 0) +
                " s warmup)");
  const double apf = timed.steady_forwarded > 0
                         ? static_cast<double>(timed.steady_allocs) /
                               static_cast<double>(timed.steady_forwarded)
                         : 0;
  std::cout << timed.steady_allocs << " allocs / " << timed.steady_forwarded
            << " forwarded = " << core::Fmt(apf, 2) << " per packet\n";
  const bool alloc_free = timed.steady_allocs == 0;

  // ---- 3: goldens -----------------------------------------------------------
  bench::Banner("3. goldens (wire capture at the SFU access link)");
  const FanoutGolden& golden = smoke ? kSmokeGolden : kFullGolden;
  const SessionResult captured = RunSession(duration, warmup, /*with_capture=*/true);
  const bool wire_match =
      captured.wire_digest == golden.wire_digest && captured.wire_packets == golden.wire_packets;
  const bool delivery_match = captured.payload_digest == golden.payload_digest &&
                              captured.delivered == golden.delivered;
  const bool stats_match = captured.client_packets_sent == golden.client_packets_sent &&
                           captured.client_bytes_sent == golden.client_bytes_sent &&
                           captured.forwarded == golden.forwarded;
  const std::string wire_hex = Hex64(captured.wire_digest);
  const std::string delivery_hex = Hex64(captured.payload_digest);
  std::cout << "wire trace: " << captured.wire_packets << " packets, digest " << wire_hex << " ("
            << (wire_match ? "matches golden" : "DIFFERS from golden " + Hex64(golden.wire_digest))
            << ")\n"
            << "delivery:   " << captured.delivered << " datagrams, digest " << delivery_hex << " ("
            << (delivery_match ? "matches golden"
                               : "DIFFERS from golden " + Hex64(golden.payload_digest))
            << ")\n"
            << "stats:      " << captured.client_packets_sent << " client packets, "
            << captured.client_bytes_sent << " bytes, " << captured.forwarded << " forwarded ("
            << (stats_match ? "matches golden" : "DIFFERS from golden") << ")\n";

  // ---- 4: observability overhead -------------------------------------------
  // A tracer cost of a few percent is inside the run-to-run noise of whole
  // short sessions timed back to back (best-of-2 over ~8 ms wall windows
  // read anywhere from 0% to 8%): the machine's speed drifts between runs. So
  // the two sessions run side by side, interleaved in short slices of
  // simulated time, each slice timed in thread CPU time; every slice pair
  // sees the same machine state, and the sums compare like for like. The
  // reading is the median over a few such rounds.
  const net::SimTime obs_duration = net::Seconds(20);
  const net::SimTime obs_slice = net::Millis(10);
  const int obs_rounds = smoke ? 15 : 25;
  bench::Banner("4. obs overhead (tracer armed vs off, " +
                std::to_string(obs_rounds) + " rounds of slice-interleaved sessions)");
  std::vector<double> obs_off_s, obs_on_s, obs_ratios;
  SessionResult obs_off_r, obs_on_r;
  for (int round = 0; round < obs_rounds; ++round) {
    FanoutSession off(obs_duration, warmup, /*with_capture=*/false, /*obs_trace=*/false);
    FanoutSession on(obs_duration, warmup, /*with_capture=*/false, /*obs_trace=*/true);
    double off_cpu = 0, on_cpu = 0;
    const auto timed_slice = [](FanoutSession& session, net::SimTime until) {
      const bench::ThreadCpuTimer timer;
      session.RunUntil(until);
      return timer.seconds();
    };
    for (net::SimTime t = obs_slice; t <= obs_duration; t += obs_slice) {
      // Alternate which side goes first so neither always runs on a cache
      // warmed by the other.
      if ((t / obs_slice) % 2 == 0) {
        off_cpu += timed_slice(off, t);
        on_cpu += timed_slice(on, t);
      } else {
        on_cpu += timed_slice(on, t);
        off_cpu += timed_slice(off, t);
      }
    }
    obs_off_s.push_back(off_cpu);
    obs_on_s.push_back(on_cpu);
    obs_ratios.push_back(on_cpu / off_cpu);
    obs_off_r = off.Finish();
    obs_on_r = on.Finish();
  }
  const double obs_off_cpu = Median(obs_off_s);
  const double obs_on_cpu = Median(obs_on_s);
  const double obs_off_pps =
      obs_off_cpu > 0 ? static_cast<double>(obs_off_r.forwarded) / obs_off_cpu : 0;
  const double obs_on_pps =
      obs_on_cpu > 0 ? static_cast<double>(obs_on_r.forwarded) / obs_on_cpu : 0;
  const double obs_overhead_pct = (Median(obs_ratios) - 1.0) * 100;
  const bool obs_same_work = obs_off_r.forwarded == obs_on_r.forwarded &&
                             obs_off_r.payload_digest == obs_on_r.payload_digest;
  const bool obs_ok = obs_overhead_pct <= 5.0 && obs_same_work;
  std::cout << "obs off: " << core::Fmt(obs_off_pps / 1000, 1) << "k pkts/CPU-s ("
            << core::Fmt(obs_off_cpu, 3) << " s median)\n"
            << "obs on:  " << core::Fmt(obs_on_pps / 1000, 1) << "k pkts/CPU-s ("
            << core::Fmt(obs_on_cpu, 3) << " s median)\n"
            << "overhead: " << core::Fmt(obs_overhead_pct, 2)
            << "% (median round; target <3%, hard fail >5%); identical forwarding: "
            << (obs_same_work ? "yes" : "NO") << "\n";

  // ---- 5: per-stage latency breakdown from obs::Snapshot --------------------
  bench::Banner("5. frame-lifecycle breakdown (3-persona spatial session, from obs::Snapshot)");
  bool trace_ok = true;
  obs::Snapshot session_snap;
  {
    vca::SessionConfig cfg;
    cfg.app = vca::VcaApp::kFaceTime;
    cfg.participants = {{.name = "U1", .metro = "SanFrancisco", .device = vca::DeviceType::kVisionPro},
                        {.name = "U2", .metro = "NewYork", .device = vca::DeviceType::kVisionPro},
                        {.name = "U3", .metro = "Chicago", .device = vca::DeviceType::kVisionPro}};
    cfg.duration = smoke ? net::Seconds(4) : net::Seconds(8);
    cfg.enable_render = false;
    cfg.seed = 7;
    vca::TelepresenceSession session(cfg);
    session.Run();

    const obs::FrameTracer& tracer = session.sim().tracer();
    session_snap = obs::Snapshot::Capture(session.sim().metrics(), &tracer);

    // Cross-check 1: every decoded frame closed exactly one span.
    std::uint64_t frames_decoded = 0;
    for (std::size_t i = 0; i < cfg.participants.size(); ++i) {
      const vca::SpatialPersonaReceiver* rx = session.spatial_receiver(i);
      for (std::size_t j = 0; j < cfg.participants.size(); ++j) {
        if (j == i) continue;
        frames_decoded += rx->remote(static_cast<std::uint8_t>(j)).frames_decoded;
      }
    }
    if (session_snap.spans + session_snap.dropped_spans != frames_decoded) trace_ok = false;

    // Cross-check 2: the snapshot's percentiles equal a bench-side
    // recomputation from the raw spans (same Summarize the tables use).
    core::TextTable table;
    table.SetHeader(bench::BoxHeader("stage (ms)"));
    for (const obs::FrameTracer::StageSeries& series : tracer.Breakdown()) {
      const core::Summary recomputed = core::Summarize(series.ms);
      const obs::Snapshot::StageRow* row = session_snap.stage(series.label);
      if (row == nullptr || row->summary.n != recomputed.n ||
          row->summary.p50 != recomputed.p50 || row->summary.p95 != recomputed.p95 ||
          row->summary.mean != recomputed.mean) {
        trace_ok = false;
        continue;
      }
      table.AddRow(bench::BoxRow(series.label, row->summary));
    }
    table.Print(std::cout);
    std::cout << "spans: " << session_snap.spans << " (+" << session_snap.dropped_spans
              << " dropped, " << session_snap.orphan_completions
              << " orphaned) vs frames decoded: " << frames_decoded << " -> "
              << (trace_ok ? "consistent" : "MISMATCH") << "\n";
  }

  // ---- JSON ---------------------------------------------------------------
  bench::JsonReport report("transport");
  core::JsonWriter& w = report.writer();
  w.Key("smoke"); w.Bool(smoke);
  w.Key("personas"); w.Int(kPersonas);
  w.Key("duration_s"); w.Number(net::ToSeconds(duration));
  w.Key("reps"); w.Int(reps);
  w.Key("fanout");
  w.BeginObject();
  w.Key("forwarded"); w.Int(static_cast<std::int64_t>(timed.forwarded));
  w.Key("wall_s"); w.Number(best_s);
  w.Key("packets_per_s"); w.Number(pps);
  w.EndObject();
  w.Key("steady_state");
  w.BeginObject();
  w.Key("allocs"); w.Int(static_cast<std::int64_t>(timed.steady_allocs));
  w.Key("forwarded"); w.Int(static_cast<std::int64_t>(timed.steady_forwarded));
  w.Key("allocs_per_packet"); w.Number(apf);
  w.EndObject();
  w.Key("golden");
  w.BeginObject();
  w.Key("wire_packets"); w.Int(static_cast<std::int64_t>(captured.wire_packets));
  w.Key("wire_digest"); w.String(wire_hex);
  w.Key("delivered"); w.Int(static_cast<std::int64_t>(captured.delivered));
  w.Key("delivery_digest"); w.String(delivery_hex);
  w.Key("client_packets_sent"); w.Int(static_cast<std::int64_t>(captured.client_packets_sent));
  w.Key("client_bytes_sent"); w.Int(static_cast<std::int64_t>(captured.client_bytes_sent));
  w.Key("forwarded"); w.Int(static_cast<std::int64_t>(captured.forwarded));
  w.Key("wire_match"); w.Bool(wire_match);
  w.Key("delivery_match"); w.Bool(delivery_match);
  w.Key("stats_match"); w.Bool(stats_match);
  w.EndObject();
  w.Key("prehandshake_drops"); w.Int(static_cast<std::int64_t>(timed.prehandshake_drops));
  w.Key("alloc_free"); w.Bool(alloc_free);
  w.Key("obs_overhead");
  w.BeginObject();
  w.Key("off_packets_per_s"); w.Number(obs_off_pps);
  w.Key("on_packets_per_s"); w.Number(obs_on_pps);
  w.Key("duration_s"); w.Number(net::ToSeconds(obs_duration));
  w.Key("slice_s"); w.Number(net::ToSeconds(obs_slice));
  w.Key("rounds"); w.Int(obs_rounds);
  w.Key("overhead_pct"); w.Number(obs_overhead_pct);
  w.Key("round_overhead_pct");
  w.BeginArray();
  for (double ratio : obs_ratios) w.Number((ratio - 1.0) * 100);
  w.EndArray();
  w.Key("target_pct"); w.Number(3.0);
  w.Key("fail_pct"); w.Number(5.0);
  w.Key("identical_forwarding"); w.Bool(obs_same_work);
  w.EndObject();
  w.Key("session_snapshot");
  session_snap.WriteJson(w);
  w.Key("trace_consistent"); w.Bool(trace_ok);

  const std::string path = report.Write();
  std::cout << "\nwrote " << path << "\n";

  if (!wire_match || !delivery_match || !stats_match) std::cout << "FAIL: golden mismatch\n";
  if (!alloc_free) std::cout << "FAIL: allocated in steady state\n";
  if (!obs_ok) std::cout << "FAIL: obs overhead > 5% or changed forwarding\n";
  if (!trace_ok) std::cout << "FAIL: obs snapshot disagrees with legacy accounting\n";
  return wire_match && delivery_match && stats_match && alloc_free && obs_ok && trace_ok ? 0 : 1;
}
