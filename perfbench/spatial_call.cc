// spatial_call: a five-person FaceTime spatial call on the simulated medium.
//
// The paper's whole chain runs inside one TelepresenceSession::Run() on one
// thread, as fast as the host allows: keypoint capture -> semantic encode ->
// QUIC datagram -> SFU -> decode -> reconstruct -> render, plus the voice
// stream. Codec and audio calls dominate Run(), so this is the workload that
// sees codec work; network, transport, SFU and render share the rest.
//
// The traced run builds the per-layer ledger from outside the program: it
// replays the same public codec calls on the same seeded inputs, multiplies
// the measured cost per call by the call counts the session itself reports,
// and charges what is left of Run() to everything else (the residual).
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "audio/codec.h"
#include "audio/speech_source.h"
#include "common.h"
#include "compress/codec_engine.h"
#include "mesh/generator.h"
#include "obs/snapshot.h"
#include "semantic/codec.h"
#include "semantic/generator.h"
#include "semantic/keypoints.h"
#include "semantic/reconstruct.h"
#include "vca/profile.h"
#include "vca/session.h"

namespace perfbench {
namespace {

using namespace vtp;

constexpr std::size_t kPeople = 5;

vca::SessionConfig MakeConfig(const Options& opt) {
  vca::SessionConfig c;
  c.app = vca::VcaApp::kFaceTime;
  c.participants = {{"SF", "SanFrancisco"},
                    {"NY", "NewYork"},
                    {"CHI", "Chicago"},
                    {"DAL", "Dallas"},
                    {"SEA", "Seattle"}};
  c.duration = net::Seconds(opt.tiny ? 1 : 8);
  c.seed = opt.seed;
  c.strategy = vca::ServerStrategy::kNearestToInitiator;
  c.enable_audio = true;
  c.enable_render = true;
  c.enable_reconstruction = true;
  return c;
}

/// What one session produced, read through the program's public accessors.
struct RunRecord {
  double setup_s = 0;
  double run_s = 0;
  double run_cpu_s = 0;
  std::array<std::uint64_t, kPeople> sent{};                       // semantic frames per sender
  std::array<std::array<std::uint64_t, kPeople>, kPeople> decoded{};  // [receiver][sender]
  std::array<std::array<std::uint64_t, kPeople>, kPeople> audio{};    // [receiver][sender]
  std::uint64_t decode_failures = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t events = 0;
  std::uint64_t quic_packets = 0;
  std::uint64_t quic_lost = 0;
  std::uint64_t payload_bytes = 0;
  double persona_mbps = 0;
  double availability = 0;
  std::vector<double> sim_latency_ms;  // capture -> decode, one per completed frame span
  std::uint64_t fingerprint = 0;

  std::uint64_t total_sent() const {
    std::uint64_t n = 0;
    for (const std::uint64_t s : sent) n += s;
    return n;
  }
  std::uint64_t total_decoded() const {
    std::uint64_t n = 0;
    for (const auto& row : decoded) {
      for (const std::uint64_t d : row) n += d;
    }
    return n;
  }
};

RunRecord RunOnce(const vca::SessionConfig& cfg, bool keep_latencies, SpanLog* spans) {
  RunRecord rec;
  const std::int64_t t0 = WallNs();
  auto session = std::make_unique<vca::TelepresenceSession>(cfg);
  const std::int64_t t1 = WallNs();
  const std::int64_t cpu0 = ThreadCpuNs();
  session->Run();
  const std::int64_t cpu1 = ThreadCpuNs();
  const std::int64_t t2 = WallNs();
  if (spans != nullptr) {
    spans->Add({.name = "TelepresenceSession", .start_ns = t0, .end_ns = t1});
    spans->Add({.name = "TelepresenceSession::Run", .start_ns = t1, .end_ns = t2,
                .cpu_ns = cpu1 - cpu0});
  }
  rec.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  rec.run_s = static_cast<double>(t2 - t1) * 1e-9;
  rec.run_cpu_s = static_cast<double>(cpu1 - cpu0) * 1e-9;

  for (std::size_t i = 0; i < kPeople; ++i) {
    rec.sent[i] = session->spatial_sender(i)->frames_sent();
    rec.payload_bytes += session->spatial_sender(i)->payload_bytes_sent();
    const vca::SpatialPersonaReceiver* rx = session->spatial_receiver(i);
    for (std::size_t j = 0; j < kPeople; ++j) {
      if (j == i) continue;
      const auto& remote = rx->remote(static_cast<std::uint8_t>(j));
      rec.decoded[i][j] = remote.frames_decoded;
      rec.audio[i][j] = remote.audio_frames;
      rec.decode_failures += remote.decode_failures;
    }
  }
  const obs::Snapshot snap =
      obs::Snapshot::Capture(session->sim().metrics(), &session->sim().tracer());
  rec.forwarded = SumCounters(snap, "sfu", ".forwarded");
  rec.quic_packets = SumCounters(snap, "quic.conn", ".packets_sent");
  rec.quic_lost = SumCounters(snap, "quic.conn", ".packets_declared_lost");
  rec.events = session->sim().events_executed();

  const vca::SessionReport report = session->BuildReport();
  for (const vca::ParticipantReport& p : report.participants) {
    rec.persona_mbps += p.uplink_mbps.mean / static_cast<double>(kPeople);
    rec.availability += p.persona_available_fraction / static_cast<double>(kPeople);
  }

  if (keep_latencies) {
    for (const obs::FrameSpan& span : session->sim().tracer().spans()) {
      if (span.has(obs::Stage::kCapture) && span.has(obs::Stage::kDecode)) {
        rec.sim_latency_ms.push_back(
            net::ToMillis(span.at(obs::Stage::kDecode) - span.at(obs::Stage::kCapture)));
      }
    }
  }

  std::vector<std::uint8_t> fp;
  auto put = [&fp](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) fp.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  };
  for (const std::uint64_t s : rec.sent) put(s);
  for (const auto& row : rec.decoded) {
    for (const std::uint64_t d : row) put(d);
  }
  put(rec.forwarded);
  put(rec.events);
  put(rec.quic_packets);
  put(rec.payload_bytes);
  rec.fingerprint = Fnv1a(fp);
  return rec;
}

/// Cost of one layer's public call, replayed outside the session.
struct LayerCost {
  std::uint64_t calls = 0;
  double total_us = 0;
  double us_per_call() const { return calls > 0 ? total_us / static_cast<double>(calls) : 0; }
};

struct Ledger {
  LayerCost encode, decode, reconstruct, audio;
};

double MicrosSince(std::int64_t start_ns) {
  return static_cast<double>(WallNs() - start_ns) * 1e-3;
}

/// Replays the session's codec and audio calls with the session's own seeds
/// and the call counts it reported, timing each public call.
Ledger Replay(const vca::SessionConfig& cfg, const RunRecord& rec, SpanLog* spans) {
  Ledger ledger;
  const std::int64_t replay_start = WallNs();

  // Sender side: capture + semantic encode through one shared engine, as the
  // session wires it. Keep every frame for the decode replay.
  compress::CodecEngine engine;
  std::array<std::vector<std::vector<std::uint8_t>>, kPeople> encoded;
  std::vector<std::uint8_t> scratch;
  for (std::size_t i = 0; i < kPeople; ++i) {
    semantic::KeypointTrackGenerator gen(semantic::TrackConfig{.fps = cfg.spatial_fps},
                                         cfg.seed * 77 + i);
    semantic::SemanticEncoder encoder(cfg.semantic_codec);
    encoder.AttachEngine(&engine);
    for (std::uint64_t k = 0; k < rec.sent[i]; ++k) {
      const std::int64_t t = WallNs();
      const semantic::KeypointFrame frame = gen.Next();
      const std::vector<semantic::Vec3> subset = semantic::ExtractSemanticSubset(frame);
      encoder.EncodeFrameInto(subset, scratch);
      ledger.encode.total_us += MicrosSince(t);
      ++ledger.encode.calls;
      encoded[i].push_back(scratch);
    }
  }

  // Receiver side: one decoder (and reconstructor) per (receiver, sender)
  // pair, fed that sender's frames in order, reconstructing every
  // reconstruct_stride-th decoded frame as the receiver does.
  std::array<mesh::TriangleMesh, kPeople> bases;
  for (std::size_t j = 0; j < kPeople; ++j) {
    bases[j] = mesh::GeneratePersona(cfg.seed * 1000 + j, cfg.persona_triangles);
  }
  for (std::size_t r = 0; r < kPeople; ++r) {
    for (std::size_t j = 0; j < kPeople; ++j) {
      if (j == r) continue;
      semantic::SemanticDecoder decoder;
      semantic::PersonaReconstructor reconstructor(bases[j]);
      const std::uint64_t n = std::min<std::uint64_t>(rec.decoded[r][j], encoded[j].size());
      for (std::uint64_t k = 0; k < n; ++k) {
        std::int64_t t = WallNs();
        const std::optional<semantic::SemanticFrame> frame = decoder.DecodeFrame(encoded[j][k]);
        ledger.decode.total_us += MicrosSince(t);
        ++ledger.decode.calls;
        if (frame && (k + 1) % cfg.reconstruct_stride == 0) {
          t = WallNs();
          reconstructor.Apply(frame->points);
          ledger.reconstruct.total_us += MicrosSince(t);
          ++ledger.reconstruct.calls;
        }
      }
    }
  }

  // Voice: every sender's audio frames, as counted by any one receiver.
  const audio::AudioCodecConfig audio_cfg{
      .quality = vca::GetProfile(cfg.app).audio_quality, .dtx = true};
  for (std::size_t i = 0; i < kPeople; ++i) {
    const std::uint64_t n = rec.audio[(i + 1) % kPeople][i];
    audio::SpeechSource source({}, cfg.seed * 53 + i);
    audio::AudioEncoder encoder(audio_cfg);
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::int64_t t = WallNs();
      const std::vector<std::uint8_t> out = encoder.EncodeFrame(source.Next());
      ledger.audio.total_us += MicrosSince(t);
      ++ledger.audio.calls;
    }
  }
  if (spans != nullptr) {
    spans->Add({.name = "replay", .start_ns = replay_start, .end_ns = WallNs()});
  }
  return ledger;
}

}  // namespace

Outcome RunSpatialCall(const Options& opt) {
  Outcome out;
  const vca::SessionConfig cfg = MakeConfig(opt);
  const std::int64_t deadline = WallNs() + static_cast<std::int64_t>(opt.seconds * 1e9);

  std::vector<RunRecord> untraced, traced;
  std::vector<Ledger> ledgers;
  // Untraced mode: back-to-back sessions. Traced mode alternates an untraced
  // session with a traced one (spans + replay), so the two can be compared.
  for (int rep = 0; rep == 0 || WallNs() < deadline || (opt.trace && traced.empty()); ++rep) {
    const bool trace_this = opt.trace && rep % 2 == 1;
    RunRecord rec = RunOnce(cfg, rep == 0, trace_this ? &out.spans : nullptr);
    if (trace_this) {
      ledgers.push_back(Replay(cfg, rec, &out.spans));
      traced.push_back(std::move(rec));
    } else {
      untraced.push_back(std::move(rec));
    }
  }

  // Output checks, on every session: the call is deterministic per seed, so
  // every rep must deliver exactly the same frames.
  const RunRecord& ref = untraced.front();
  std::vector<const RunRecord*> all;
  for (const RunRecord& r : untraced) all.push_back(&r);
  for (const RunRecord& r : traced) all.push_back(&r);
  for (const RunRecord* r : all) {
    const std::uint64_t expected = r->total_sent() * (kPeople - 1);
    out.attempted += expected;
    out.failed += expected > r->total_decoded() ? expected - r->total_decoded()
                                                : r->total_decoded() - expected;
    out.Check(r->decode_failures == 0,
              "spatial_call: " + std::to_string(r->decode_failures) + " decode failures");
    for (std::size_t i = 0; i < kPeople; ++i) {
      for (std::size_t j = 0; j < kPeople; ++j) {
        if (i != j && r->decoded[i][j] != r->sent[j]) {
          out.Check(false, "spatial_call: receiver " + std::to_string(i) + " decoded " +
                               std::to_string(r->decoded[i][j]) + " of sender " +
                               std::to_string(j) + "'s " + std::to_string(r->sent[j]) +
                               " frames");
        }
      }
    }
    out.Check(r->fingerprint == ref.fingerprint,
              "spatial_call: a repeat of the same seed delivered different frames");
  }
  out.Check(ref.total_sent() > 0, "spatial_call: no frames sent");

  std::vector<double> setup, fps, cpu_per_fwd, run_s;
  for (const RunRecord& r : untraced) {
    setup.push_back(r.setup_s);
    fps.push_back(static_cast<double>(r.total_decoded()) / r.run_s);
    cpu_per_fwd.push_back(r.run_cpu_s * 1e6 / static_cast<double>(r.forwarded));
    run_s.push_back(r.run_s);
  }
  auto& m = out.metrics;
  m["setup_s"] = Median(setup);
  m["frames_per_s"] = Median(fps);
  m["frame_latency_ms_p50"] = Quantile(ref.sim_latency_ms, 0.50);
  m["frame_latency_ms_p90"] = Quantile(ref.sim_latency_ms, 0.90);
  m["sfu_cpu_us_per_fwd"] = Median(cpu_per_fwd);
  m["delivery_ratio"] = static_cast<double>(ref.total_decoded()) /
                        static_cast<double>(ref.total_sent() * (kPeople - 1));
  m["peak_rss_mb"] = PeakRssMb();
  m["persona_mbps"] = ref.persona_mbps;

  if (!opt.trace) return out;

  // Per-layer ledger (medians over the traced sessions).
  std::vector<double> enc_us, dec_us, rec_us, aud_us, enc_sh, dec_sh, rec_sh, aud_sh, resid_ns,
      resid_sh, traced_run_s;
  for (std::size_t t = 0; t < traced.size(); ++t) {
    const RunRecord& r = traced[t];
    const Ledger& l = ledgers[t];
    const double run_us = r.run_s * 1e6;
    const double attributed =
        l.encode.total_us + l.decode.total_us + l.reconstruct.total_us + l.audio.total_us;
    const double residual = run_us - attributed;
    out.Check(residual >= 0, "spatial_call: ledger residual is negative (" +
                                 std::to_string(residual) + " us): replayed calls exceed Run()");
    out.Check(l.encode.calls == r.total_sent() && l.decode.calls == r.total_decoded(),
              "spatial_call: replay call counts differ from the session's own counts");
    enc_us.push_back(l.encode.us_per_call());
    dec_us.push_back(l.decode.us_per_call());
    rec_us.push_back(l.reconstruct.us_per_call());
    aud_us.push_back(l.audio.us_per_call());
    enc_sh.push_back(l.encode.total_us / run_us);
    dec_sh.push_back(l.decode.total_us / run_us);
    rec_sh.push_back(l.reconstruct.total_us / run_us);
    aud_sh.push_back(l.audio.total_us / run_us);
    resid_ns.push_back(residual * 1e3 / static_cast<double>(r.events));
    resid_sh.push_back(residual / run_us);
    traced_run_s.push_back(r.run_s);
    std::printf("ledger[%zu]: Run() %.0f us = encode %.0f + decode %.0f + reconstruct %.0f + "
                "audio %.0f + residual %.0f\n",
                t, run_us, l.encode.total_us, l.decode.total_us, l.reconstruct.total_us,
                l.audio.total_us, residual);
  }
  m["semantic.encode_us"] = Median(enc_us);
  m["semantic.encode.share"] = Median(enc_sh);
  m["semantic.decode_us"] = Median(dec_us);
  m["semantic.decode.share"] = Median(dec_sh);
  m["semantic.reconstruct_us"] = Median(rec_us);
  m["semantic.reconstruct.share"] = Median(rec_sh);
  m["audio.encode_us"] = Median(aud_us);
  m["audio.encode.share"] = Median(aud_sh);
  m["ledger.residual_ns_per_event"] = Median(resid_ns);
  m["ledger.residual.share"] = Median(resid_sh);
  m["semantic.bytes_per_frame"] =
      static_cast<double>(ref.payload_bytes) / static_cast<double>(ref.total_sent());
  m["netsim.events"] = static_cast<double>(ref.events);
  m["quic.packets_per_frame"] =
      static_cast<double>(ref.quic_packets) / static_cast<double>(ref.total_sent());
  m["quic.packets_declared_lost"] = static_cast<double>(ref.quic_lost);
  m["persona_availability"] = ref.availability;
  m["sim_latency_ms_p50"] = Quantile(ref.sim_latency_ms, 0.50);
  m["sim_latency_ms_p99"] = Quantile(ref.sim_latency_ms, 0.99);
  m["trace.overhead_frac"] = TraceOverhead(run_s, traced_run_s);
  return out;
}

}  // namespace perfbench
