// sfu_loopback: one four-persona spatial call through an in-process SfuServer
// over real UDP on 127.0.0.1.
//
// Two threads, each pumping its own SocketMedium: the server thread runs the
// SFU, the client thread (this one) holds four QUIC connections. The load is
// open-loop: every persona sends 90 frames/s on a fixed schedule whatever the
// system does, so a stall shows as latency, not as reduced load. Senders
// replay a bank of real SemanticEncoder frames built during setup and
// receivers compare each datagram's bytes with the bank instead of decoding
// it. That keeps the codec off the measured path, so the socket, wall-clock,
// QUIC and SFU layers do nearly all the work.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "compress/bitstream.h"
#include "compress/varint.h"
#include "netsim/socket_medium.h"
#include "obs/snapshot.h"
#include "semantic/codec.h"
#include "semantic/generator.h"
#include "semantic/keypoints.h"
#include "transport/taps.h"
#include "vca/pipelines.h"
#include "vca/sfu.h"

namespace perfbench {
namespace {

using namespace vtp;

constexpr int kPersonas = 4;
constexpr double kFps = 90;
constexpr std::int64_t kPeriodNs = static_cast<std::int64_t>(1e9 / kFps);
constexpr int kServerWaitMs = 2;   // server Pump() cap; sockets wake it sooner
constexpr int kClientWaitMs = 5;   // client Pump() cap; tick timers wake it sooner
constexpr std::int64_t kHandshakeTimeoutNs = 5'000'000'000;
constexpr std::int64_t kDrainNs = 500'000'000;  // wait for stragglers after the last due frame
// The server's CPU per forward is sampled once per second of the run, so the
// reported median rides out host slowdowns shorter than half the run.
constexpr std::int64_t kCpuSampleNs = 1'000'000'000;

std::uint64_t FrameId(int sender, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(sender) << 32) | seq;
}

/// Every datagram a persona will send, wrapped as the session wraps persona
/// media ([relay tag][sender id][media type][semantic frame]), with the
/// digest the receivers expect.
struct Bank {
  std::vector<std::vector<std::uint8_t>> frames[kPersonas];
  std::vector<std::uint64_t> digests[kPersonas];
  double mean_frame_bytes = 0;
};

Bank BuildBank(std::uint64_t seed, std::size_t frames_per_persona) {
  Bank bank;
  std::vector<std::uint8_t> encoded;
  double bytes = 0;
  for (int p = 0; p < kPersonas; ++p) {
    semantic::KeypointTrackGenerator gen(semantic::TrackConfig{.fps = kFps},
                                         seed * 77 + static_cast<std::uint64_t>(p));
    semantic::SemanticEncoder encoder;
    for (std::size_t k = 0; k < frames_per_persona; ++k) {
      encoder.EncodeFrameInto(semantic::ExtractSemanticSubset(gen.Next()), encoded);
      std::vector<std::uint8_t> datagram = {vca::kRelayTagLocal, static_cast<std::uint8_t>(p),
                                            vca::kMediaSemantic};
      datagram.insert(datagram.end(), encoded.begin(), encoded.end());
      bank.digests[p].push_back(Fnv1a(datagram));
      bank.frames[p].push_back(std::move(datagram));
      bytes += static_cast<double>(encoded.size());
    }
  }
  bank.mean_frame_bytes = bytes / static_cast<double>(kPersonas * frames_per_persona);
  return bank;
}

/// The SFU end: owns its SocketMedium and SfuServer on its own thread, so
/// every PacketBuffer the server circulates stays on that thread.
class ServerThread {
 public:
  ServerThread(std::uint64_t seed, std::uint16_t port, bool trace)
      : seed_(seed), port_(port), trace_(trace), thread_([this] { Main(); }) {}
  ~ServerThread() { Stop(); }

  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  /// Blocks until the SFU is listening; false if it could not start.
  bool WaitReady() {
    while (state_.load(std::memory_order_acquire) == kStarting) std::this_thread::yield();
    return state_.load(std::memory_order_acquire) == kReady;
  }
  /// Starts the server's measurement window and waits until the server
  /// thread has taken its baseline, so no forward escapes the window.
  void BeginMeasure() {
    measure_.store(true, std::memory_order_release);
    while (!measuring_.load(std::memory_order_acquire) &&
           state_.load(std::memory_order_acquire) == kReady) {
      std::this_thread::yield();
    }
  }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  // Results, valid after Stop().
  std::string error;
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t pumps = 0;
  std::uint64_t datagrams_in = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t quic_packets = 0;
  std::uint64_t quic_lost = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t events = 0;
  std::uint64_t early_fires = 0;
  std::int64_t pump_span_cpu_ns = 0;
  std::vector<double> cpu_us_per_fwd_samples;  // one per whole second measured
  std::vector<Span> spans;

 private:
  enum : int { kStarting, kReady, kFailed };

  void Main() {
    try {
      const std::int64_t t0 = WallNs();
      net::SocketMedium medium(seed_, "127.0.0.1");
      vca::SfuServer sfu(&medium, medium.local_node(), port_, vca::TransportKind::kQuicDatagram);
      if (trace_) {
        spans.push_back({.name = "SocketMedium+SfuServer", .start_ns = t0, .end_ns = WallNs()});
      }
      state_.store(kReady, std::memory_order_release);
      bool measuring = false;
      std::int64_t cpu0 = 0, wall0 = 0, sample_cpu = 0, next_sample = 0;
      std::uint64_t fwd0 = 0, rx0 = 0, events0 = 0, sample_fwd = 0;
      while (!stop_.load(std::memory_order_acquire)) {
        if (!measuring && measure_.load(std::memory_order_acquire)) {
          measuring = true;
          cpu0 = ThreadCpuNs();
          wall0 = WallNs();
          fwd0 = sfu.forwarded_count();
          rx0 = medium.datagrams_received();
          events0 = medium.sim().events_executed();
          sample_cpu = cpu0;
          sample_fwd = fwd0;
          next_sample = wall0 + kCpuSampleNs;
          measuring_.store(true, std::memory_order_release);
        }
        if (measuring && trace_) {
          const std::int64_t w = WallNs();
          const std::int64_t c = ThreadCpuNs();
          medium.Pump(kServerWaitMs);
          const std::int64_t cpu = ThreadCpuNs() - c;
          pump_span_cpu_ns += cpu;
          spans.push_back(
              {.name = "server.Pump", .start_ns = w, .end_ns = WallNs(), .cpu_ns = cpu});
        } else {
          medium.Pump(kServerWaitMs);
        }
        if (measuring) {
          ++pumps;
          if (const std::int64_t now = WallNs(); now >= next_sample) {
            const std::int64_t cpu = ThreadCpuNs();
            const std::uint64_t fwd = sfu.forwarded_count();
            if (fwd > sample_fwd) {
              cpu_us_per_fwd_samples.push_back(static_cast<double>(cpu - sample_cpu) * 1e-3 /
                                               static_cast<double>(fwd - sample_fwd));
            }
            sample_cpu = cpu;
            sample_fwd = fwd;
            next_sample = now + kCpuSampleNs;
          }
        }
      }
      if (measuring) {
        cpu_ns = ThreadCpuNs() - cpu0;
        wall_ns = WallNs() - wall0;
        forwarded = sfu.forwarded_count() - fwd0;
        datagrams_in = medium.datagrams_received() - rx0;
        events = medium.sim().events_executed() - events0;
        if (cpu_us_per_fwd_samples.empty() && forwarded > 0) {  // a window under a second
          cpu_us_per_fwd_samples.push_back(static_cast<double>(cpu_ns) * 1e-3 /
                                           static_cast<double>(forwarded));
        }
      }
      const obs::Snapshot snap = obs::Snapshot::Capture(medium.sim().metrics());
      quic_packets = SumCounters(snap, "quic.conn", ".packets_sent");
      quic_lost = SumCounters(snap, "quic.conn", ".packets_declared_lost");
      send_errors = medium.send_errors();
      early_fires = medium.wall_stats().early_fires;
    } catch (const std::exception& e) {
      error = e.what();
      state_.store(kFailed, std::memory_order_release);
    }
  }

  std::uint64_t seed_;
  std::uint16_t port_;
  bool trace_;
  std::atomic<int> state_{kStarting};
  std::atomic<bool> measure_{false};
  std::atomic<bool> measuring_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started once every member above exists
};

/// One setup + open-loop window, as measured from the client thread.
struct RepResult {
  double setup_s = 0;
  double run_s = 0;  // first due instant -> last verified receipt
  double frame_bytes = 0;  // mean semantic frame in the bank
  std::uint64_t expected = 0;
  std::uint64_t verified = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t malformed = 0;
  std::vector<double> latency_ms;  // due -> verified receipt
  std::vector<double> late_us;     // tick fire - due
  std::vector<double> send_us;     // SendDatagram, traced reps only
  double client_cpu_us_per_recv = 0;
  double persona_mbps = 0;
  std::uint64_t client_events = 0;
  std::uint64_t client_lost = 0;
  std::uint64_t client_send_errors = 0;
  std::uint64_t late_ticks = 0;
  std::uint64_t coalesced_ticks = 0;
  std::uint64_t early_fires = 0;
  std::unique_ptr<ServerThread> server;
};

/// The client end of one rep: four connections, the tick schedule, and the
/// receive-side verification.
class Client {
 public:
  Client(const Bank& bank, std::size_t frames, bool corrupt_one, bool trace, SpanLog* spans)
      : bank_(bank), frames_(frames), trace_(trace), spans_(spans) {
    for (int r = 0; r < kPersonas; ++r) {
      for (int s = 0; s < kPersonas; ++s) seen_[r][s].assign(frames, 0);
    }
    if (corrupt_one) {
      corrupted_ = bank.frames[0][frames / 2];
      corrupted_.back() ^= 0x5A;
    }
  }

  void Connect(net::SocketMedium& medium, std::uint16_t server_port, std::uint16_t client_base) {
    medium_ = &medium;
    for (int p = 0; p < kPersonas; ++p) {
      const std::int64_t t0 = WallNs();
      conns_[p] = transport::taps::Preconnection{}
                      .WithLocal({medium.local_node(), static_cast<std::uint16_t>(client_base + p)})
                      .WithRemote({net::Ipv4ToNode("127.0.0.1"), server_port})
                      .Initiate(medium);
      if (trace_) {
        spans_->Add({.name = "Preconnection::Initiate", .start_ns = t0, .end_ns = WallNs()});
      }
      conns_[p]->set_on_received(
          [this, p](std::span<const std::uint8_t> data) { OnReceived(p, data); });
    }
  }

  bool AllReady() const {
    for (const auto& c : conns_) {
      if (!c->ready()) return false;
    }
    return true;
  }

  /// Fixes the schedule: persona p's frame k is due at
  /// start + phase[p] + k * period, and arms each persona's first tick.
  void Schedule(std::int64_t start, const std::int64_t (&phase)[kPersonas]) {
    // Map our steady clock onto the medium's simulated clock, which a
    // Pump() pins to its own wall reading.
    medium_->Pump(0);
    offset_ = WallNs() - medium_->sim().now();
    for (int p = 0; p < kPersonas; ++p) {
      due_[p].resize(frames_);
      for (std::size_t k = 0; k < frames_; ++k) {
        due_[p][k] = start + phase[p] + static_cast<std::int64_t>(k) * kPeriodNs;
      }
      Arm(p, 0);
    }
    late_us.reserve(frames_ * kPersonas);
    latency_ms.reserve(frames_ * kPersonas * (kPersonas - 1));
  }

  std::int64_t last_due() const {
    std::int64_t t = 0;
    for (const auto& d : due_) t = std::max(t, d.back());
    return t;
  }
  std::uint64_t expected() const { return frames_ * kPersonas * (kPersonas - 1); }

  std::uint64_t verified = 0, duplicates = 0, corrupt = 0, malformed = 0;
  std::int64_t last_receipt = 0;
  std::vector<double> latency_ms, late_us, send_us;

 private:
  void Arm(int p, std::size_t k) {
    medium_->sim().At(due_[p][k] - offset_, [this, p, k] { Tick(p, k); });
  }

  void Tick(int p, std::size_t k) {
    const std::int64_t fire = WallNs();
    late_us.push_back(static_cast<double>(fire - due_[p][k]) * 1e-3);
    const bool corrupt_this = !corrupted_.empty() && p == 0 && k == frames_ / 2;
    conns_[p]->Send(corrupt_this ? corrupted_ : bank_.frames[p][k]);
    if (trace_) {
      const std::int64_t end = WallNs();
      send_us.push_back(static_cast<double>(end - fire) * 1e-3);
      spans_->Add(
          {.name = "SendDatagram", .start_ns = fire, .end_ns = end, .frame = FrameId(p, k)});
    }
    if (k + 1 < frames_) Arm(p, k + 1);
  }

  void OnReceived(int receiver, std::span<const std::uint8_t> data) {
    const std::int64_t now = WallNs();
    if (data.size() < 5 || data[0] != vca::kRelayTagLocal || data[2] != vca::kMediaSemantic ||
        data[1] >= kPersonas || data[1] == receiver) {
      ++malformed;
      return;
    }
    const int sender = data[1];
    std::uint64_t seq = 0;
    try {
      std::size_t pos = 4;  // after the wrapper and the codec's mode tag
      seq = compress::GetUleb128(data, &pos);
    } catch (const compress::CorruptStream&) {
      ++malformed;
      return;
    }
    if (seq >= frames_) {
      ++malformed;
      return;
    }
    std::uint8_t& seen = seen_[receiver][sender][seq];
    if (seen != 0) {
      ++duplicates;
    } else if (Fnv1a(data) != bank_.digests[sender][seq]) {
      seen = 1;
      ++corrupt;
    } else {
      seen = 1;
      ++verified;
      last_receipt = now;
      latency_ms.push_back(static_cast<double>(now - due_[sender][seq]) * 1e-6);
    }
    if (trace_) {
      spans_->Add({.name = "on_received", .start_ns = now, .end_ns = WallNs(),
                   .frame = FrameId(sender, seq), .receiver = receiver});
    }
  }

  const Bank& bank_;
  std::size_t frames_;
  bool trace_;
  SpanLog* spans_;
  net::SocketMedium* medium_ = nullptr;
  std::unique_ptr<transport::taps::Connection> conns_[kPersonas];
  std::vector<std::int64_t> due_[kPersonas];
  std::int64_t offset_ = 0;
  std::vector<std::uint8_t> seen_[kPersonas][kPersonas];
  std::vector<std::uint8_t> corrupted_;
};

RepResult RunRep(const Options& opt, std::uint64_t rep_seed, double window_s, bool trace,
                 bool corrupt_one, SpanLog* spans) {
  RepResult res;
  const std::size_t frames = static_cast<std::size_t>(std::ceil(window_s * kFps));
  const std::int64_t setup_start = WallNs();
  const Bank bank = BuildBank(opt.seed, frames);
  if (trace) spans->Add({.name = "bank", .start_ns = setup_start, .end_ns = WallNs()});

  // Ports: a per-process base, moved on if another socket holds one.
  std::unique_ptr<net::SocketMedium> medium;
  std::unique_ptr<Client> client;
  std::string last_error;
  for (int attempt = 0; attempt < 8 && !client; ++attempt) {
    const auto base = static_cast<std::uint16_t>(
        20000 + (static_cast<unsigned>(getpid()) * 16 + static_cast<unsigned>(attempt) * 4099) %
                    40000);
    auto server = std::make_unique<ServerThread>(rep_seed, base, trace);
    if (!server->WaitReady()) {
      server->Stop();
      last_error = server->error;
      continue;
    }
    try {
      const std::int64_t t0 = WallNs();
      medium = std::make_unique<net::SocketMedium>(rep_seed + 1, "127.0.0.1");
      if (trace) spans->Add({.name = "SocketMedium", .start_ns = t0, .end_ns = WallNs()});
      auto c = std::make_unique<Client>(bank, frames, corrupt_one, trace, spans);
      c->Connect(*medium, base, static_cast<std::uint16_t>(base + 1));
      const std::int64_t t1 = WallNs();
      const std::int64_t give_up = t1 + kHandshakeTimeoutNs;
      while (!c->AllReady() && WallNs() < give_up) medium->Pump(1);
      if (!c->AllReady()) throw std::runtime_error("QUIC handshakes did not complete");
      if (trace) spans->Add({.name = "handshakes", .start_ns = t1, .end_ns = WallNs()});
      client = std::move(c);
      res.server = std::move(server);
    } catch (const std::exception& e) {
      last_error = e.what();
      server->Stop();
      client.reset();
      medium.reset();
    }
  }
  if (!client) throw std::runtime_error("sfu_loopback setup failed: " + last_error);
  res.setup_s = static_cast<double>(WallNs() - setup_start) * 1e-9;
  res.frame_bytes = bank.mean_frame_bytes;

  // Open loop: seeded per-persona phases within one frame period.
  std::int64_t phase[kPersonas];
  std::uint64_t x = rep_seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::int64_t& ph : phase) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    ph = static_cast<std::int64_t>(x % static_cast<std::uint64_t>(kPeriodNs));
  }
  res.server->BeginMeasure();
  const std::int64_t cpu0 = ThreadCpuNs();
  const std::uint64_t rx0 = medium->datagrams_received();
  const std::uint64_t events0 = medium->sim().events_executed();
  const std::int64_t start = WallNs() + 1'000'000;
  client->Schedule(start, phase);
  const std::int64_t last_due = client->last_due();
  while (true) {
    if (trace) {
      const std::int64_t w = WallNs();
      const std::int64_t c = ThreadCpuNs();
      medium->Pump(kClientWaitMs);
      spans->Add({.name = "client.Pump", .start_ns = w, .end_ns = WallNs(),
                  .cpu_ns = ThreadCpuNs() - c});
    } else {
      medium->Pump(kClientWaitMs);
    }
    const std::int64_t now = WallNs();
    const std::uint64_t settled = client->verified + client->corrupt;
    if (now > last_due && settled >= client->expected()) break;
    if (now > last_due + kDrainNs) break;
  }
  const std::int64_t client_cpu = ThreadCpuNs() - cpu0;
  const std::uint64_t client_rx = medium->datagrams_received() - rx0;
  res.server->Stop();

  res.run_s = static_cast<double>(std::max(client->last_receipt, last_due) - start) * 1e-9;
  res.expected = client->expected();
  res.verified = client->verified;
  res.duplicates = client->duplicates;
  res.corrupt = client->corrupt;
  res.malformed = client->malformed;
  res.latency_ms = std::move(client->latency_ms);
  res.late_us = std::move(client->late_us);
  res.send_us = std::move(client->send_us);
  res.client_cpu_us_per_recv =
      static_cast<double>(client_cpu) * 1e-3 /
      static_cast<double>(std::max<std::uint64_t>(client_rx, 1));
  const obs::Snapshot snap = obs::Snapshot::Capture(medium->sim().metrics());
  res.persona_mbps = static_cast<double>(SumCounters(snap, "quic.conn", ".bytes_sent")) * 8 / 1e6 /
                     kPersonas / window_s;
  res.client_lost = SumCounters(snap, "quic.conn", ".packets_declared_lost");
  res.client_events = medium->sim().events_executed() - events0;
  res.client_send_errors = medium->send_errors();
  res.late_ticks = medium->wall_stats().late_ticks;
  res.coalesced_ticks = medium->wall_stats().coalesced_ticks;
  res.early_fires = medium->wall_stats().early_fires;
  return res;
}

}  // namespace

Outcome RunSfuLoopback(const Options& opt) {
  Outcome out;
  // Untraced: three setups, each followed by a third of the window. Traced:
  // untraced and traced reps alternate, so tracing overhead can be read off.
  const int reps = opt.tiny ? (opt.trace ? 2 : 1) : (opt.trace ? 4 : 3);
  const double window_s = opt.seconds / reps;
  std::vector<RepResult> untraced, traced;
  for (int rep = 0; rep < reps; ++rep) {
    const bool trace_this = opt.trace && rep % 2 == 1;
    const bool corrupt_one = opt.fault == "corrupt-payload" && rep == 0;
    RepResult r = RunRep(opt, opt.seed * 1000 + static_cast<std::uint64_t>(rep), window_s,
                         trace_this, corrupt_one, &out.spans);
    if (trace_this) out.spans.Append(r.server->spans);
    (trace_this ? traced : untraced).push_back(std::move(r));
  }

  std::vector<const RepResult*> all;
  for (const RepResult& r : untraced) all.push_back(&r);
  for (const RepResult& r : traced) all.push_back(&r);
  for (const RepResult* r : all) {
    const ServerThread& s = *r->server;
    out.attempted += r->expected;
    out.failed += r->expected - std::min(r->expected, r->verified);
    out.Check(s.error.empty(), "sfu_loopback: server thread failed: " + s.error);
    out.Check(r->verified == r->expected,
              "sfu_loopback: verified " + std::to_string(r->verified) + " of " +
                  std::to_string(r->expected) + " deliveries (" + std::to_string(r->corrupt) +
                  " corrupt, " + std::to_string(r->duplicates) + " duplicate, " +
                  std::to_string(r->malformed) + " malformed)");
    out.Check(r->duplicates == 0 && r->corrupt == 0 && r->malformed == 0,
              "sfu_loopback: duplicate, corrupt or malformed deliveries");
    out.Check(r->early_fires == 0 && s.early_fires == 0, "sfu_loopback: a timer fired early");
    out.Check(s.forwarded == r->expected,
              "sfu_loopback: SFU forwarded " + std::to_string(s.forwarded) +
                  " datagrams, expected " + std::to_string(r->expected));
  }

  std::vector<double> setup, fps, cpu_per_fwd, mbps, latency;
  std::uint64_t expected = 0, verified = 0;
  for (const RepResult& r : untraced) {
    setup.push_back(r.setup_s);
    fps.push_back(static_cast<double>(r.verified) / r.run_s);
    cpu_per_fwd.insert(cpu_per_fwd.end(), r.server->cpu_us_per_fwd_samples.begin(),
                       r.server->cpu_us_per_fwd_samples.end());
    mbps.push_back(r.persona_mbps);
    latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
    expected += r.expected;
    verified += r.verified;
  }
  auto& m = out.metrics;
  m["setup_s"] = Median(setup);
  m["frames_per_s"] = Median(fps);
  m["frame_latency_ms_p50"] = Quantile(latency, 0.50);
  m["frame_latency_ms_p90"] = Quantile(latency, 0.90);
  m["sfu_cpu_us_per_fwd"] = Median(cpu_per_fwd);
  m["delivery_ratio"] = static_cast<double>(verified) / static_cast<double>(expected);
  m["peak_rss_mb"] = PeakRssMb();
  m["persona_mbps"] = Median(mbps);

  if (!opt.trace) return out;
  // Per-layer numbers come from the traced reps.
  std::vector<double> busy, per_pump, pump_cpu_us, client_cpu, ledger, late, send, untraced_cpu;
  double events = 0, pkts_per_dgram = 0, lost = 0, send_errors = 0, late_ticks = 0,
         coalesced = 0, early = 0;
  for (const RepResult& r : traced) {
    const ServerThread& s = *r.server;
    busy.push_back(static_cast<double>(s.cpu_ns) / static_cast<double>(s.wall_ns));
    per_pump.push_back(static_cast<double>(s.datagrams_in) / static_cast<double>(s.pumps));
    pump_cpu_us.push_back(static_cast<double>(s.pump_span_cpu_ns) * 1e-3 /
                          static_cast<double>(s.pumps));
    const double frac = static_cast<double>(s.pump_span_cpu_ns) / static_cast<double>(s.cpu_ns);
    ledger.push_back(frac);
    // Ledger check: the server Pump() spans account for the server thread's
    // CPU; the only CPU outside them is the loop's flag checks.
    out.Check(frac > 0.9 && frac <= 1.01,
              "sfu_loopback: server Pump() spans cover " + std::to_string(frac) +
                  " of the server thread's CPU");
    client_cpu.push_back(r.client_cpu_us_per_recv);
    late.insert(late.end(), r.late_us.begin(), r.late_us.end());
    send.insert(send.end(), r.send_us.begin(), r.send_us.end());
    events += static_cast<double>(r.client_events + s.events);
    pkts_per_dgram += static_cast<double>(s.quic_packets) / static_cast<double>(s.forwarded) /
                      static_cast<double>(traced.size());
    lost += static_cast<double>(r.client_lost + s.quic_lost);
    send_errors += static_cast<double>(r.client_send_errors + s.send_errors);
    late_ticks += static_cast<double>(r.late_ticks);
    coalesced += static_cast<double>(r.coalesced_ticks);
    early += static_cast<double>(r.early_fires + s.early_fires);
  }
  for (const RepResult& r : untraced) untraced_cpu.push_back(r.client_cpu_us_per_recv);
  double send_mean = 0;
  for (const double v : send) send_mean += v / static_cast<double>(send.size());

  m["semantic.bytes_per_frame"] = untraced.front().frame_bytes;
  m["netsim.events"] = events;
  m["quic.packets_per_datagram"] = pkts_per_dgram;
  m["quic.packets_declared_lost"] = lost;
  m["transport.send_us"] = send_mean;
  m["socket.server_busy_frac"] = Median(busy);
  m["socket.datagrams_per_pump"] = Median(per_pump);
  m["socket.server_pump_cpu_us"] = Median(pump_cpu_us);
  m["socket.client_cpu_us_per_recv"] = Median(client_cpu);
  m["socket.send_errors"] = send_errors;
  m["ledger.server_pump_cpu_frac"] = Median(ledger);
  m["wallclock.timer_late_us_p50"] = Quantile(late, 0.50);
  m["wallclock.timer_late_us_p99"] = Quantile(late, 0.99);
  m["wallclock.late_ticks"] = late_ticks;
  m["wallclock.coalesced_ticks"] = coalesced;
  m["wallclock.early_fires"] = early;
  m["loopback.latency_ms_p99"] = Quantile(latency, 0.99);
  m["trace.overhead_frac"] = TraceOverhead(untraced_cpu, client_cpu);
  return out;
}

}  // namespace perfbench
