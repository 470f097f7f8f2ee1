// Cross-module integration tests: whole sessions under impairments,
// determinism, relay meshes, and end-to-end semantic fidelity through the
// real transport.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "semantic/generator.h"
#include "semantic/reconstruct.h"
#include "transport/quic.h"
#include "vca/session.h"

namespace vtp {
namespace {

vca::SessionConfig TwoUserConfig(net::SimTime duration, std::uint64_t seed) {
  vca::SessionConfig config;
  config.participants = {
      {.name = "U1", .metro = "SanFrancisco", .device = vca::DeviceType::kVisionPro},
      {.name = "U2", .metro = "NewYork", .device = vca::DeviceType::kVisionPro}};
  config.duration = duration;
  config.seed = seed;
  config.enable_reconstruction = false;
  return config;
}

TEST(Integration, SameSeedReproducesIdenticalSessions) {
  const auto run = [](std::uint64_t seed) {
    vca::TelepresenceSession session(TwoUserConfig(net::Seconds(8), seed));
    session.Run();
    return session.BuildReport();
  };
  const vca::SessionReport a = run(7);
  const vca::SessionReport b = run(7);
  const vca::SessionReport c = run(8);

  EXPECT_DOUBLE_EQ(a.participants[0].uplink_mbps.mean, b.participants[0].uplink_mbps.mean);
  EXPECT_DOUBLE_EQ(a.participants[0].gpu_ms.mean, b.participants[0].gpu_ms.mean);
  EXPECT_DOUBLE_EQ(a.participants[1].triangles.mean, b.participants[1].triangles.mean);
  // Different seed: same physics, different noise.
  EXPECT_NE(a.participants[0].gpu_ms.mean, c.participants[0].gpu_ms.mean);
  EXPECT_NEAR(a.participants[0].uplink_mbps.mean, c.participants[0].uplink_mbps.mean, 0.1);
}

TEST(Integration, SpatialSessionToleratesModerateRandomLoss) {
  // Random loss (unlike a rate cap) drops individual frames; with
  // independent per-frame coding the persona stays up at 5% loss.
  vca::TelepresenceSession session(TwoUserConfig(net::Seconds(10), 3));
  net::Netem netem = session.UplinkNetem(0);
  netem.SetLoss(0.05);
  session.Run();
  const vca::SessionReport report = session.BuildReport();
  EXPECT_GT(report.participants[1].persona_available_fraction, 0.9);

  // But heavy loss (40%) breaks the decode-rate floor.
  vca::TelepresenceSession bad(TwoUserConfig(net::Seconds(10), 4));
  net::Netem bad_netem = bad.UplinkNetem(0);
  bad_netem.SetLoss(0.4);
  bad.Run();
  EXPECT_LT(bad.BuildReport().participants[1].persona_available_fraction, 0.5);
}

TEST(Integration, PureDelayDoesNotKillThePersona) {
  // §4.3's display-latency result implies delay alone leaves the persona
  // functional (it is reconstructed locally from a continuous stream).
  vca::TelepresenceSession session(TwoUserConfig(net::Seconds(10), 5));
  net::Netem up = session.UplinkNetem(0);
  net::Netem down = session.DownlinkNetem(1);
  up.SetDelay(net::Millis(150));
  down.SetDelay(net::Millis(150));
  session.Run();
  EXPECT_GT(session.BuildReport().participants[1].persona_available_fraction, 0.9);
}

TEST(Integration, GeoDistributedRelayDeliversAcrossThreeServers) {
  vca::SessionConfig config;
  config.participants = {
      {.name = "sf", .metro = "SanFrancisco", .device = vca::DeviceType::kVisionPro},
      {.name = "chi", .metro = "Chicago", .device = vca::DeviceType::kVisionPro},
      {.name = "nyc", .metro = "NewYork", .device = vca::DeviceType::kVisionPro}};
  config.duration = net::Seconds(8);
  config.strategy = vca::ServerStrategy::kGeoDistributed;
  config.enable_reconstruction = false;
  vca::TelepresenceSession session(std::move(config));
  EXPECT_GE(session.server_metros_used().size(), 2u);
  session.Run();
  const vca::SessionReport report = session.BuildReport();
  for (const auto& p : report.participants) {
    EXPECT_GT(p.persona_available_fraction, 0.95) << p.name;
  }
}

TEST(Integration, AudioRidesAlongAndCanBeDisabled) {
  vca::SessionConfig with_audio = TwoUserConfig(net::Seconds(8), 11);
  vca::SessionConfig without_audio = TwoUserConfig(net::Seconds(8), 11);
  without_audio.enable_audio = false;

  vca::TelepresenceSession a(std::move(with_audio));
  a.Run();
  vca::TelepresenceSession b(std::move(without_audio));
  b.Run();
  const double with_mbps = a.BuildReport().participants[0].uplink_mbps.mean;
  const double without_mbps = b.BuildReport().participants[0].uplink_mbps.mean;
  EXPECT_GT(with_mbps, without_mbps + 0.02);   // voice costs something...
  EXPECT_LT(with_mbps, without_mbps + 0.25);   // ...but far less than video

  // Audio frames actually arrive at the peer.
  EXPECT_GT(a.spatial_receiver(1)->remote(0).audio_frames, 100u);
  EXPECT_EQ(b.spatial_receiver(1)->remote(0).audio_frames, 0u);
}

TEST(Integration, SemanticFidelitySurvivesTheRealTransport) {
  // Drive the full capture -> encode -> QUIC -> decode -> reconstruct path
  // over the simulated WAN and check geometric fidelity frame by frame.
  net::Simulator sim(1);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto a = network.AddHost("a", "SanFrancisco");
  const auto b = network.AddHost("b", "NewYork");
  network.ComputeRoutes();

  transport::QuicEndpoint sender_ep(&network, a, 9000), receiver_ep(&network, b, 4433);
  semantic::SemanticDecoder decoder;
  semantic::KeypointTrackGenerator reference_track({}, 42);  // receiver's oracle
  double max_err = 0;
  int decoded = 0;
  receiver_ep.set_on_accept([&](transport::QuicConnection* conn) {
    conn->set_on_datagram([&](std::span<const std::uint8_t> data) {
      const auto frame = decoder.DecodeFrame(data);
      ASSERT_TRUE(frame.has_value());
      // The oracle generates the identical track (same seed) to compare.
      const auto truth = semantic::ExtractSemanticSubset(reference_track.Next());
      for (std::size_t k = 0; k < truth.size(); ++k) {
        max_err = std::max(max_err,
                           static_cast<double>((frame->points[k] - truth[k]).Length()));
      }
      ++decoded;
    });
  });

  transport::QuicConnection* conn = sender_ep.Connect(b, 4433);
  semantic::KeypointTrackGenerator track({}, 42);
  semantic::SemanticEncoder encoder;
  for (int i = 0; i < 60; ++i) {
    sim.At(net::Millis(200 + i * 11), [&, i] {
      conn->SendDatagram(
          encoder.EncodeFrame(semantic::ExtractSemanticSubset(track.Next())));
    });
  }
  sim.RunUntil(net::Seconds(3));
  EXPECT_EQ(decoded, 60);
  EXPECT_LT(max_err, 1e-6);  // float mode is bit-exact through the network
}

TEST(Integration, FiveUserSessionUsesTheWholeLodLadder) {
  vca::SessionConfig config;
  const char* metros[] = {"SanFrancisco", "NewYork", "Chicago", "Dallas", "Seattle"};
  for (int i = 0; i < 5; ++i) {
    config.participants.push_back({.name = "U" + std::to_string(i + 1),
                                   .metro = metros[i],
                                   .device = vca::DeviceType::kVisionPro});
  }
  config.duration = net::Seconds(10);
  config.enable_reconstruction = false;
  vca::TelepresenceSession session(std::move(config));
  session.Run();

  const auto& hist = session.lod_histogram(0);
  const std::uint64_t full = hist[static_cast<std::size_t>(render::LodClass::kFull)];
  const std::uint64_t peripheral =
      hist[static_cast<std::size_t>(render::LodClass::kPeripheral)];
  EXPECT_GT(full, 0u);        // the attended persona
  EXPECT_GT(peripheral, 0u);  // the others, most of the time
  EXPECT_GT(peripheral, full);  // 4 remotes, 1 attended

  // Downlink carries all four remote streams.
  const vca::SessionReport report = session.BuildReport();
  EXPECT_NEAR(report.participants[0].downlink_mbps.mean,
              4 * report.participants[0].uplink_mbps.mean, 0.6);
}

TEST(Integration, CaptureAccountingMatchesSenderSide) {
  vca::TelepresenceSession session(TwoUserConfig(net::Seconds(8), 21));
  session.Run();
  // Bytes U1 put on the wire (captured) must at least cover the semantic
  // payloads its sender reports, plus protocol overhead below 2x.
  const auto* sender = session.spatial_sender(0);
  std::uint64_t captured = 0;
  for (const auto& r : session.capture(0).records()) {
    if (r.src == session.host(0)) captured += r.wire_bytes;
  }
  EXPECT_GT(captured, sender->payload_bytes_sent());
  EXPECT_LT(captured, sender->payload_bytes_sent() * 2);
}


TEST(Integration, RtcpEchoMeasuresMediaPathRtt) {
  // SR -> RR(LSR/DLSR) echo through the SFU gives each 2D sender its media
  // path RTT, which must match the physical round trip to the peer.
  vca::SessionConfig config;
  config.app = vca::VcaApp::kWebex;
  config.participants = {
      {.name = "U1", .metro = "SanFrancisco", .device = vca::DeviceType::kMacBook},
      {.name = "U2", .metro = "NewYork", .device = vca::DeviceType::kMacBook}};
  config.duration = net::Seconds(10);
  vca::TelepresenceSession session(std::move(config));
  session.Run();
  const vca::SessionReport report = session.BuildReport();
  // SF -> SanJose server -> NYC and back: ~75-90 ms in this topology.
  EXPECT_GT(report.participants[0].media_rtt_ms, 55.0);
  EXPECT_LT(report.participants[0].media_rtt_ms, 110.0);
  EXPECT_LT(report.participants[0].rtp_loss_rate, 0.01);
  EXPECT_GT(report.participants[0].rtp_jitter_ms, 0.0);
  EXPECT_LT(report.participants[0].rtp_jitter_ms, 20.0);
}


TEST(Integration, FecRestoresAvailabilityUnderLoss) {
  // 32% random loss pushes the unprotected stream below the 70% decode-rate
  // floor ("poor connection"); k=2 XOR FEC repairs enough single losses to
  // keep the persona up, for ~50% datagram overhead.
  const auto run = [](int fec_k) {
    vca::SessionConfig config = TwoUserConfig(net::Seconds(12), 31);
    config.spatial_fec_k = fec_k;
    vca::TelepresenceSession session(std::move(config));
    net::Netem netem = session.UplinkNetem(0);
    netem.SetLoss(0.32);
    session.Run();
    const vca::SessionReport report = session.BuildReport();
    return std::make_pair(report.participants[1].persona_available_fraction,
                          report.participants[0].uplink_mbps.mean);
  };
  const auto [avail_plain, up_plain] = run(0);
  const auto [avail_fec, up_fec] = run(2);
  EXPECT_LT(avail_plain, 0.6);
  EXPECT_GT(avail_fec, 0.85);
  EXPECT_GT(up_fec, up_plain * 1.2);  // the parity overhead is real
  EXPECT_LT(up_fec, up_plain * 1.9);
}


TEST(Integration, DeliveryCullingSavesRealBandwidth) {
  // The §4.4 extension implemented for real: receivers unsubscribe
  // out-of-viewport personas at the SFU, so their semantics never cross the
  // downlink. Visible-persona availability is unaffected.
  const auto run = [](bool culling) {
    vca::SessionConfig config;
    const char* metros[] = {"SanFrancisco", "NewYork", "Chicago", "Dallas", "Seattle"};
    for (int i = 0; i < 5; ++i) {
      config.participants.push_back({.name = "U" + std::to_string(i + 1),
                                     .metro = metros[i],
                                     .device = vca::DeviceType::kVisionPro});
    }
    config.duration = net::Seconds(15);
    config.seed = 51;
    config.enable_reconstruction = false;
    config.delivery_culling = culling;
    vca::TelepresenceSession session(std::move(config));
    session.Run();
    const vca::SessionReport report = session.BuildReport();
    return std::make_tuple(report.participants[0].downlink_mbps.mean,
                           report.participants[0].persona_available_fraction,
                           session.sim().events_executed());
  };
  const auto [down_plain, avail_plain, events_plain] = run(false);
  const auto [down_culled, avail_culled, events_culled] = run(true);
  EXPECT_LT(down_culled, down_plain * 0.95);  // real bytes saved
  EXPECT_GT(avail_plain, 0.95);
  EXPECT_GT(avail_culled, 0.90);  // visible personas still healthy
  // Pinned event counts: the 250 ms subscription updater fires at the same
  // simulated instants however its re-arming is written.
  EXPECT_EQ(events_plain, 588597u);
  EXPECT_EQ(events_culled, 553468u);
}

}  // namespace
}  // namespace vtp
