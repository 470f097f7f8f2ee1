// fleet: about ten thousand concurrent two-party sessions through FleetSim's
// express path.
//
// Frames are analytic (no codec, no QUIC, no sockets), so the fabric, the
// lookahead windows and, when sharded, the cross-shard mailboxes do the work:
// this is the workload that sees the simulation core and nothing else.
//
// The end-to-end reps run the windowed engine with one shard. Four shards on
// four threads were measured first: their wall time is set by cross-thread
// wake-ups at two barriers per lookahead window, and on a shared 4-vCPU host
// it varied twice over between runs while CPU time per frame held within a
// few percent, too unsteady for a bound. The traced run therefore adds
// four-shard reps, and the sharding layer (windows, handoffs, spills, the
// speedup over one shard) is reported per layer from them.
#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "vca/fleet.h"

namespace perfbench {
namespace {

using namespace vtp;

constexpr int kShardedShards = 4;

vca::FleetConfig MakeConfig(std::uint64_t seed, int shards, double sessions, double duration_s) {
  vca::FleetConfig c;
  c.seed = seed;
  c.shards = shards;
  c.target_sessions = sessions;
  c.duration = net::Seconds(duration_s);
  c.path = "express";
  return c;
}

struct Rep {
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  vca::FleetResult result;
};

Rep RunOnce(const vca::FleetConfig& cfg, SpanLog* spans) {
  Rep r;
  const std::int64_t t0 = WallNs();
  vca::FleetSim fleet(cfg);
  const std::int64_t t1 = WallNs();
  const std::int64_t cpu0 = ProcessCpuNs();
  r.result = fleet.Run();
  const std::int64_t cpu1 = ProcessCpuNs();
  const std::int64_t t2 = WallNs();
  if (spans != nullptr) {
    spans->Add({.name = "FleetSim", .start_ns = t0, .end_ns = t1});
    spans->Add({.name = "FleetSim::Run", .start_ns = t1, .end_ns = t2, .cpu_ns = cpu1 - cpu0});
  }
  r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  r.run_s = static_cast<double>(t2 - t1) * 1e-9;
  r.cpu_s = static_cast<double>(cpu1 - cpu0) * 1e-9;
  return r;
}

double FramesPerSecond(const Rep& r) {
  return static_cast<double>(r.result.frames_delivered) / r.run_s;
}

}  // namespace

Outcome RunFleet(const Options& opt) {
  Outcome out;
  const double sessions = opt.tiny ? 200 : 10000;
  const double duration_s = opt.tiny ? 1 : 2;
  const vca::FleetConfig cfg = MakeConfig(opt.seed, 1, sessions, duration_s);
  const vca::FleetConfig sharded = MakeConfig(opt.seed, kShardedShards, sessions, duration_s);
  const std::int64_t deadline = WallNs() + static_cast<std::int64_t>(opt.seconds * 1e9);

  // One untimed warm-up run first: the first run pays page faults and
  // allocator growth that later runs (and a long-lived process) do not.
  vca::FleetSim(cfg).Run();
  // Untraced mode: one-shard reps only. Traced mode cycles an untraced
  // one-shard rep, a traced one-shard rep and a traced four-shard rep.
  std::vector<Rep> untraced, traced, traced_sharded;
  for (int rep = 0; rep == 0 || WallNs() < deadline || (opt.trace && rep < 3); ++rep) {
    const int kind = opt.trace ? rep % 3 : 0;
    if (kind == 0) untraced.push_back(RunOnce(cfg, nullptr));
    if (kind == 1) traced.push_back(RunOnce(cfg, &out.spans));
    if (kind == 2) traced_sharded.push_back(RunOnce(sharded, &out.spans));
  }

  // Output checks: every frame delivered, and every rep of the seed, at any
  // shard count, merges to the same snapshot digest.
  const vca::FleetResult& ref = untraced.front().result;
  std::vector<const Rep*> all;
  for (const auto* reps : {&untraced, &traced, &traced_sharded}) {
    for (const Rep& r : *reps) all.push_back(&r);
  }
  for (const Rep* r : all) {
    out.attempted += r->result.frames_sent;
    out.failed += r->result.frames_sent - std::min(r->result.frames_sent,
                                                   r->result.frames_delivered);
    out.Check(r->result.frames_delivered == r->result.frames_sent,
              "fleet: delivered " + std::to_string(r->result.frames_delivered) + " of " +
                  std::to_string(r->result.frames_sent) + " frames");
    out.Check(r->result.digest == ref.digest, "fleet: merged digest differs across reps");
  }
  // The sharded engine must merge to the same digest as the single-threaded
  // reference (RunDirect) for this seed; checked at a small scale on every run.
  {
    vca::FleetSim small(MakeConfig(opt.seed, kShardedShards, 64, 2));
    const std::uint64_t sharded_digest = small.Run().digest;
    std::uint64_t direct = small.RunDirect().digest;
    if (opt.fault == "fleet-digest") direct ^= 1;
    out.Check(sharded_digest == direct, "fleet: 4-shard digest differs from RunDirect()");
  }

  std::vector<double> setup, fps, cpu_per_fwd, run_s, traced_run_s;
  for (const Rep& r : untraced) {
    setup.push_back(r.setup_s);
    fps.push_back(FramesPerSecond(r));
    cpu_per_fwd.push_back(r.cpu_s * 1e6 /
                          static_cast<double>(r.result.merged.counter("fleet.frames_relayed")));
    run_s.push_back(r.run_s);
  }
  for (const Rep& r : traced) traced_run_s.push_back(r.run_s);

  const double sent = static_cast<double>(ref.frames_sent);
  auto& m = out.metrics;
  m["setup_s"] = Median(setup);
  m["frames_per_s"] = Median(fps);
  m["frame_latency_ms_p50"] = vca::FleetSim::E2eQuantileMs(ref.merged, 0.50);
  m["frame_latency_ms_p90"] = vca::FleetSim::E2eQuantileMs(ref.merged, 0.90);
  m["sfu_cpu_us_per_fwd"] = Median(cpu_per_fwd);
  m["delivery_ratio"] = static_cast<double>(ref.frames_delivered) / sent;
  m["peak_rss_mb"] = PeakRssMb();
  m["persona_mbps"] =
      static_cast<double>(ref.merged.counter("fleet.bytes_sent")) / sent * cfg.fps * 8 / 1e6;

  if (!opt.trace) return out;
  // The sharding layer, from the four-shard reps.
  const vca::FleetResult& sh = traced_sharded.front().result;
  std::vector<double> wall_us_per_window, sharded_fps;
  for (const Rep& r : traced_sharded) {
    wall_us_per_window.push_back(r.result.wall_s * 1e6 / static_cast<double>(r.result.windows));
    sharded_fps.push_back(FramesPerSecond(r));
  }
  m["fleet.hops_per_frame"] = static_cast<double>(sh.hops) / sent;
  m["fleet.handoffs_per_frame"] = static_cast<double>(sh.handoffs) / sent;
  m["fleet.windows"] = static_cast<double>(sh.windows);
  m["fleet.wall_us_per_window"] = Median(wall_us_per_window);
  m["fleet.spills"] = static_cast<double>(sh.spills);
  m["fleet.fastforward_frac"] = static_cast<double>(sh.fastforwards) /
                                static_cast<double>(std::max<std::uint64_t>(sh.hops, 1));
  m["fleet.events"] = static_cast<double>(sh.events);
  m["fleet.speedup_4_shards"] = Median(sharded_fps) / Median(fps);
  m["netsim.events"] = static_cast<double>(ref.events);
  m["sim_latency_ms_p50"] = vca::FleetSim::E2eQuantileMs(ref.merged, 0.50);
  m["sim_latency_ms_p99"] = vca::FleetSim::E2eQuantileMs(ref.merged, 0.99);
  m["trace.overhead_frac"] = TraceOverhead(run_s, traced_run_s);
  return out;
}

}  // namespace perfbench
