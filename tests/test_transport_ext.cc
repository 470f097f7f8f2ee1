// Tests for the transport extensions: FEC, the playout buffer, QUIC
// connection close, the probe-timeout timer, ACK-range edge cases,
// oversized datagrams, and the golden-pinned QUIC loss grid.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "netsim/capture.h"
#include "netsim/netem.h"
#include "netsim/network.h"
#include "transport/fec.h"
#include "transport/playout.h"
#include "transport/quic.h"
#include "vca/session.h"

namespace vtp::transport {
namespace {

// --- FEC -----------------------------------------------------------------------

std::vector<std::uint8_t> MakePayload(int seed, std::size_t size) {
  std::vector<std::uint8_t> p(size);
  for (std::size_t i = 0; i < size; ++i) {
    p[i] = static_cast<std::uint8_t>(seed * 31 + static_cast<int>(i) * 7);
  }
  return p;
}

TEST(Fec, LosslessPathDeliversEverySourceOnce) {
  std::vector<std::vector<std::uint8_t>> delivered;
  FecDecoder decoder([&](std::span<const std::uint8_t> p) {
    delivered.emplace_back(p.begin(), p.end());
  });
  FecEncoder encoder(4);
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 12; ++i) {
    sent.push_back(MakePayload(i, 100 + static_cast<std::size_t>(i)));
    for (auto& framed : encoder.Protect(sent.back())) {
      decoder.OnDatagram(framed);
    }
  }
  ASSERT_EQ(delivered.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)], sent[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(decoder.stats().recovered, 0u);
  EXPECT_EQ(decoder.stats().parities_received, 3u);
}

class FecLossPosition : public ::testing::TestWithParam<int> {};

TEST_P(FecLossPosition, RecoversAnySingleLossInAGroup) {
  const int lost_index = GetParam();
  std::vector<std::vector<std::uint8_t>> delivered;
  FecDecoder decoder([&](std::span<const std::uint8_t> p) {
    delivered.emplace_back(p.begin(), p.end());
  });
  FecEncoder encoder(4);
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 4; ++i) {
    sent.push_back(MakePayload(i, 50 + static_cast<std::size_t>(i) * 13));
    const auto framed = encoder.Protect(sent.back());
    for (std::size_t f = 0; f < framed.size(); ++f) {
      // framed[0] is the source; framed[1] (last round) is the parity.
      if (f == 0 && i == lost_index) continue;  // drop this source
      decoder.OnDatagram(framed[f]);
    }
  }
  ASSERT_EQ(delivered.size(), 4u);  // 3 direct + 1 recovered
  EXPECT_EQ(decoder.stats().recovered, 1u);
  // The recovered payload is delivered last but byte-exact.
  EXPECT_EQ(delivered.back(), sent[static_cast<std::size_t>(lost_index)]);
}

INSTANTIATE_TEST_SUITE_P(Positions, FecLossPosition, ::testing::Values(0, 1, 2, 3));

TEST(Fec, DoubleLossIsUnrecoverable) {
  int delivered = 0;
  FecDecoder decoder([&](std::span<const std::uint8_t>) { ++delivered; });
  FecEncoder encoder(3);
  for (int group = 0; group < 20; ++group) {
    for (int i = 0; i < 3; ++i) {
      const auto framed = encoder.Protect(MakePayload(group * 3 + i, 80));
      for (std::size_t f = 0; f < framed.size(); ++f) {
        if (f == 0 && i <= 1) continue;  // drop two sources per group
        decoder.OnDatagram(framed[f]);
      }
    }
  }
  EXPECT_EQ(delivered, 20);  // only the surviving source per group
  EXPECT_EQ(decoder.stats().recovered, 0u);
  EXPECT_GT(decoder.stats().unrecoverable, 0u);  // counted as groups retire
}

TEST(Fec, ParityLossCostsNothing) {
  std::vector<std::vector<std::uint8_t>> delivered;
  FecDecoder decoder([&](std::span<const std::uint8_t> p) {
    delivered.emplace_back(p.begin(), p.end());
  });
  FecEncoder encoder(2);
  for (int i = 0; i < 6; ++i) {
    const auto framed = encoder.Protect(MakePayload(i, 64));
    decoder.OnDatagram(framed[0]);  // never forward parity
  }
  EXPECT_EQ(delivered.size(), 6u);
}

TEST(Fec, OverheadIsOneOverK) {
  FecEncoder encoder(5);
  int total = 0;
  for (int i = 0; i < 100; ++i) {
    total += static_cast<int>(encoder.Protect(MakePayload(i, 100)).size());
  }
  EXPECT_EQ(total, 100 + 20);  // 100 sources + 100/5 parities
}

TEST(Fec, GarbageInputCountedNotCrashing) {
  FecDecoder decoder(nullptr);
  decoder.OnDatagram(std::vector<std::uint8_t>{});
  decoder.OnDatagram(std::vector<std::uint8_t>{9, 9, 9, 9});
  EXPECT_GT(decoder.stats().unrecoverable, 0u);
}

TEST(Fec, InvalidKThrows) {
  EXPECT_THROW(FecEncoder(0), std::invalid_argument);
  EXPECT_THROW(FecEncoder(300), std::invalid_argument);
}

// --- playout buffer ---------------------------------------------------------------

TEST(Playout, PlaysFramesOnTheMediaClock) {
  net::Simulator sim(1);
  std::vector<net::SimTime> play_times;
  PlayoutConfig config;
  config.initial_delay = net::Millis(50);
  PlayoutBuffer buffer(&sim, config,
                       [&](std::uint32_t, std::vector<std::uint8_t>) {
                         play_times.push_back(sim.now());
                       });
  // 10 frames at 90 fps (1000 ticks of 90 kHz), arriving with jitter.
  for (int i = 0; i < 10; ++i) {
    const net::SimTime arrival = net::Millis(11.1 * i + (i % 3) * 2.0);
    sim.At(arrival, [&buffer, i] {
      buffer.Push(static_cast<std::uint32_t>(i * 1000), std::vector<std::uint8_t>(10));
    });
  }
  sim.Run();
  ASSERT_EQ(play_times.size(), 10u);
  EXPECT_EQ(buffer.stats().frames_played, 10u);
  // Presentation is strictly periodic despite arrival jitter.
  for (std::size_t i = 1; i < play_times.size(); ++i) {
    EXPECT_NEAR(net::ToMillis(play_times[i] - play_times[i - 1]), 1000.0 / 90.0, 0.01);
  }
}

TEST(Playout, LateFramesDroppedAndDelayGrows) {
  net::Simulator sim(2);
  PlayoutConfig config;
  config.initial_delay = net::Millis(10);
  PlayoutBuffer buffer(&sim, config, nullptr);
  // Frame 0 anchors; frame 1 arrives 200 ms late relative to its slot.
  sim.At(net::Millis(0), [&] { buffer.Push(0, {}); });
  sim.At(net::Millis(230), [&] { buffer.Push(1000, {}); });  // slot was ~21 ms
  sim.Run();
  EXPECT_EQ(buffer.stats().frames_late_dropped, 1u);
  EXPECT_GT(buffer.stats().current_delay, net::Millis(10));
}

TEST(Playout, DelayShrinksWhenHeadroomIsConsistentlyLarge) {
  net::Simulator sim(3);
  PlayoutConfig config;
  config.initial_delay = net::Millis(200);
  config.review_window_frames = 50;
  PlayoutBuffer buffer(&sim, config, nullptr);
  for (int i = 0; i < 200; ++i) {
    sim.At(net::Millis(11.1 * i), [&buffer, i] {
      buffer.Push(static_cast<std::uint32_t>(i * 1000), {});
    });
  }
  sim.Run();
  EXPECT_LT(buffer.stats().current_delay, net::Millis(200));
  EXPECT_EQ(buffer.stats().frames_late_dropped, 0u);
}

// --- QUIC close --------------------------------------------------------------------

TEST(QuicClose, CloseStopsTrafficAndNotifiesPeer) {
  net::Simulator sim(1);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto a = network.AddHost("a", "SanFrancisco");
  const auto b = network.AddHost("b", "NewYork");
  network.ComputeRoutes();
  QuicEndpoint client(&network, a, 9000), server(&network, b, 4433);
  QuicConnection* server_conn = nullptr;
  std::uint64_t peer_error = 999;
  server.set_on_accept([&](QuicConnection* conn) {
    server_conn = conn;
    conn->set_on_close([&](std::uint64_t code) { peer_error = code; });
  });
  QuicConnection* conn = client.Connect(b, 4433);
  sim.RunUntil(net::Millis(300));
  ASSERT_TRUE(conn->established());

  conn->Close(7);
  sim.RunUntil(net::Millis(600));
  EXPECT_TRUE(conn->closed());
  ASSERT_NE(server_conn, nullptr);
  EXPECT_TRUE(server_conn->closed());
  EXPECT_EQ(peer_error, 7u);

  // Post-close sends are no-ops.
  const auto sent_before = conn->stats().packets_sent;
  conn->SendDatagram(std::vector<std::uint8_t>(100, 1));
  conn->SendStreamData(0, std::vector<std::uint8_t>(100, 1));
  sim.RunUntil(net::Millis(900));
  EXPECT_EQ(conn->stats().packets_sent, sent_before);
}

// --- probe timeout (PTO) timer -------------------------------------------------------
//
// A two-host Medium with a fixed one-way delay and a blackhole switch. It
// schedules one event per delivered datagram and none while blackholed, so
// during a blackout the scheduler's counters see only the connections' own
// timers.
class PipeMedium final : public net::Medium {
 public:
  explicit PipeMedium(net::SimTime one_way) : sim_(1), one_way_(one_way) {}

  void BindUdp(net::NodeId node, std::uint16_t port, net::DatagramHandler handler) override {
    handlers_[{node, port}] = std::move(handler);
  }
  void UnbindUdp(net::NodeId node, std::uint16_t port) override { handlers_.erase({node, port}); }
  void SendUdp(net::NodeId src, std::uint16_t src_port, net::NodeId dst, std::uint16_t dst_port,
               const std::vector<std::uint8_t>& payload) override {
    SendUdp(src, src_port, dst, dst_port, net::PacketBuffer::CopyOf(payload));
  }
  void SendUdp(net::NodeId src, std::uint16_t src_port, net::NodeId dst, std::uint16_t dst_port,
               net::PacketBuffer payload) override {
    if (blackhole) return;
    net::Packet p;
    p.src = src;
    p.src_port = src_port;
    p.dst = dst;
    p.dst_port = dst_port;
    p.payload = std::move(payload);
    sim_.After(one_way_, [this, p] {
      const auto it = handlers_.find({p.dst, p.dst_port});
      if (it != handlers_.end()) it->second(p);
    });
  }
  net::Simulator& sim() override { return sim_; }

  bool blackhole = false;

 private:
  net::Simulator sim_;
  net::SimTime one_way_;
  std::map<std::pair<net::NodeId, std::uint16_t>, net::DatagramHandler> handlers_;
};

class PtoTimer : public ::testing::Test {
 protected:
  static constexpr net::NodeId kClient = 1;
  static constexpr net::NodeId kServer = 2;

  PtoTimer() : medium_(net::Millis(10)), client_(&medium_, kClient, 9000), server_(&medium_, kServer, 4433) {
    server_.set_on_accept([](QuicConnection* conn) {
      conn->set_on_datagram([](std::span<const std::uint8_t>) {});
    });
    conn_ = client_.Connect(kServer, 4433);
    // Handshake plus one acknowledged datagram for an RTT sample; by the
    // end every timer from that exchange has fired and found nothing to do.
    sim().RunUntil(net::Millis(300));
    conn_->SendDatagram(payload_);
    sim().RunUntil(net::Seconds(1));
  }

  net::Simulator& sim() { return medium_.sim(); }
  std::uint64_t EventsScheduled() { return sim().scheduler_stats().events_scheduled; }

  /// Sends one datagram `gap` after now; returns the send instant.
  net::SimTime SendAfter(net::SimTime gap) {
    sim().RunUntil(sim().now() + gap);
    conn_->SendDatagram(payload_);
    return sim().now();
  }

  PipeMedium medium_;
  QuicEndpoint client_;
  QuicEndpoint server_;
  QuicConnection* conn_ = nullptr;
  const std::vector<std::uint8_t> payload_ = std::vector<std::uint8_t>(100, 3);
};

TEST_F(PtoTimer, BurstKeepsOnePendingTimerAndProbesOnTime) {
  ASSERT_TRUE(conn_->established());
  ASSERT_EQ(conn_->stats().packets_declared_lost, 0u);
  medium_.blackhole = true;

  // 20 ack-eliciting sends, 1 ms apart: well inside one PTO interval.
  constexpr int kBurst = 20;
  const std::uint64_t events_before = EventsScheduled();
  const net::SimTime first_send = SendAfter(net::Millis(1));
  net::SimTime last_send = first_send;
  for (int i = 1; i < kBurst; ++i) last_send = SendAfter(net::Millis(1));
  const net::SimTime pto = conn_->PtoInterval();
  ASSERT_LT(last_send - first_send, pto);
  const std::uint64_t sent = conn_->stats().packets_sent;

  // Up to the instant before the probe: the first send's timer, re-armed
  // once at the last send's deadline — not one timer per send.
  sim().RunUntil(last_send + pto - 1);
  EXPECT_LE(EventsScheduled() - events_before, 2u);
  EXPECT_EQ(conn_->stats().packets_sent, sent) << "PTO fired before last send + PtoInterval()";

  // The probe goes out exactly at last send + PtoInterval().
  sim().RunUntil(last_send + pto);
  EXPECT_EQ(conn_->stats().packets_sent, sent + 1);
  EXPECT_EQ(conn_->stats().packets_declared_lost, static_cast<std::uint64_t>(kBurst));
}

TEST_F(PtoTimer, EarlierDeadlineFiresOnTime) {
  ASSERT_TRUE(conn_->established());
  // A blackout backs the PTO off: probes at P, 3P, 7P, ... after the send.
  // Right after the third probe the pending timer is 8 PTOs away.
  medium_.blackhole = true;
  SendAfter(net::Millis(1));
  while (conn_->stats().packets_declared_lost < 3) sim().RunUntil(sim().now() + net::Millis(1));

  // The path heals; one datagram gets through and its ACK resets the
  // backoff, so the next deadline is earlier than the pending timer.
  medium_.blackhole = false;
  SendAfter(net::Millis(1));
  sim().RunUntil(sim().now() + net::Millis(100));
  medium_.blackhole = true;
  const net::SimTime send = SendAfter(net::Millis(1));
  const net::SimTime pto = conn_->PtoInterval();
  const std::uint64_t sent = conn_->stats().packets_sent;

  sim().RunUntil(send + pto - 1);
  EXPECT_EQ(conn_->stats().packets_sent, sent);
  sim().RunUntil(send + pto);
  EXPECT_EQ(conn_->stats().packets_sent, sent + 1)
      << "the earlier deadline waited for the backed-off timer";
}

// --- FEC protecting the semantic stream over a lossy QUIC path ----------------------

TEST(FecOverQuic, RecoversMostSingleLossesEndToEnd) {
  net::Simulator sim(5);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto a = network.AddHost("a", "SanFrancisco");
  const auto b = network.AddHost("b", "NewYork");
  network.ComputeRoutes();

  QuicEndpoint client(&network, a, 9000), server(&network, b, 4433);
  FecDecoder fec_decoder(nullptr);
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_datagram(
        [&](std::span<const std::uint8_t> d) { fec_decoder.OnDatagram(d); });
  });
  QuicConnection* conn = client.Connect(b, 4433);
  sim.RunUntil(net::Millis(300));

  net::Netem netem(&network, a, network.AccessRouter(a));
  netem.SetLoss(0.05);

  FecEncoder fec_encoder(4);
  const int frames = 400;
  for (int i = 0; i < frames; ++i) {
    sim.At(net::Millis(300 + i * 11), [&, i] {
      for (auto& framed : fec_encoder.Protect(MakePayload(i, 850))) {
        conn->SendDatagram(framed);
      }
    });
  }
  sim.RunUntil(net::Seconds(10));

  const FecDecoderStats& s = fec_decoder.stats();
  const double direct = static_cast<double>(s.sources_received) / frames;
  const double with_fec =
      static_cast<double>(s.sources_received + s.recovered) / frames;
  EXPECT_GT(s.recovered, 5u);            // FEC actually fired
  EXPECT_GT(with_fec, direct + 0.01);    // and improved delivery
  EXPECT_GT(with_fec, 0.97);             // ~5% loss mostly repaired at k=4
}

// --- ACK-range edge cases -----------------------------------------------------------
//
// Endpoint CIDs are deterministic ((node << 32) | (port << 8) | seq), so a
// test can forge short-header packets carrying hand-built ACK frames and
// inject them at the victim's UDP port — exercising ACK processing on inputs
// a well-behaved peer never produces.

/// RFC 9000 varint encoder for hand-forged packets.
void PutVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const int len = v < (1ull << 6) ? 1 : v < (1ull << 14) ? 2 : v < (1ull << 30) ? 4 : 8;
  const std::uint8_t prefix = len == 1 ? 0x00 : len == 2 ? 0x40 : len == 4 ? 0x80 : 0xC0;
  for (int i = len - 1; i >= 0; --i) {
    const auto b = static_cast<std::uint8_t>(v >> (8 * i));
    out.push_back(i == len - 1 ? static_cast<std::uint8_t>(b | prefix) : b);
  }
}

class AckHarness : public ::testing::Test {
 protected:
  AckHarness() : sim_(1), net_(&sim_) {
    net_.BuildBackbone();
    a_ = net_.AddHost("a", "SanFrancisco");
    b_ = net_.AddHost("b", "NewYork");
    net_.ComputeRoutes();
  }

  /// The first CID minted by the endpoint at (node, port).
  static std::uint64_t FirstCid(net::NodeId node, std::uint16_t port) {
    return (static_cast<std::uint64_t>(node) << 32) |
           (static_cast<std::uint64_t>(port) << 8) | 1;
  }

  /// Short-header packet for `dcid` containing one ACK frame.
  /// `ranges` are the (gap, len) pairs after the first range, as on the wire.
  static std::vector<std::uint8_t> ForgeAck(
      std::uint64_t dcid, std::uint64_t pn, std::uint64_t largest,
      std::uint64_t first_range,
      std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {},
      std::uint64_t ack_delay_us = 0) {
    std::vector<std::uint8_t> p;
    p.push_back(0x40);
    for (int i = 7; i >= 0; --i) {
      p.push_back(static_cast<std::uint8_t>(dcid >> (8 * i)));
    }
    PutVarint(p, pn);
    p.push_back(0x02);  // ACK frame
    PutVarint(p, largest);
    PutVarint(p, ack_delay_us);
    PutVarint(p, ranges.size());
    PutVarint(p, first_range);
    for (const auto& [gap, len] : ranges) {
      PutVarint(p, gap);
      PutVarint(p, len);
    }
    return p;
  }

  /// Establishes a client connection and sends `n` datagrams on it.
  QuicConnection* Establish(QuicEndpoint& client, QuicEndpoint& server, int n) {
    server.set_on_accept([](QuicConnection* conn) {
      conn->set_on_datagram([](std::span<const std::uint8_t>) {});
    });
    QuicConnection* conn = client.Connect(b_, 4433);
    sim_.RunUntil(net::Millis(300));
    EXPECT_TRUE(conn->established());
    for (int i = 0; i < n; ++i) {
      sim_.After(net::Millis(i), [conn] {
        conn->SendDatagram(std::vector<std::uint8_t>(200, 5));
      });
    }
    sim_.RunUntil(sim_.now() + net::Millis(n + 200));
    return conn;
  }

  net::Simulator sim_;
  net::Network net_;
  net::NodeId a_ = 0, b_ = 0;
};

class AckPathCase : public AckHarness {};

TEST_F(AckPathCase, OutOfOrderAckRangesAllSettle) {
  QuicEndpoint client(&net_, a_, 9100), server(&net_, b_, 4433);
  QuicConnection* conn = Establish(client, server, 20);
  const std::uint64_t cid = FirstCid(a_, 9100);

  // Two disjoint ranges acking the middle of the sent window, injected out
  // of band (the real peer's ACKs are also in flight). Ranges inside one
  // frame run high-to-low per the wire format.
  net_.SendUdp(b_, 40000, a_, 9100,
               ForgeAck(cid, 1000, 15, 2, {{1, 2}}));  // acks 13-15 and 8-10
  net_.SendUdp(b_, 40001, a_, 9100, ForgeAck(cid, 1001, 5, 4));  // acks 1-5
  sim_.RunUntil(sim_.now() + net::Millis(500));

  // Nothing was spuriously declared lost and the connection still moves data.
  EXPECT_EQ(conn->stats().packets_declared_lost, 0u);
  const std::uint64_t sent_before = conn->stats().datagrams_sent;
  conn->SendDatagram(std::vector<std::uint8_t>(100, 6));
  sim_.RunUntil(sim_.now() + net::Millis(200));
  EXPECT_EQ(conn->stats().datagrams_sent, sent_before + 1);
}

TEST_F(AckPathCase, DuplicateAcksAreIdempotent) {
  QuicEndpoint client(&net_, a_, 9101), server(&net_, b_, 4433);
  QuicConnection* conn = Establish(client, server, 10);
  const std::uint64_t cid = FirstCid(a_, 9101);

  // The same full-window ACK delivered five times.
  for (int i = 0; i < 5; ++i) {
    net_.SendUdp(b_, 41000 + static_cast<std::uint16_t>(i), a_, 9101,
                 ForgeAck(cid, 2000 + static_cast<std::uint64_t>(i), 10, 9));
  }
  sim_.RunUntil(sim_.now() + net::Millis(500));
  EXPECT_EQ(conn->stats().packets_declared_lost, 0u);
  EXPECT_TRUE(conn->established());

  const std::uint64_t sent_before = conn->stats().datagrams_sent;
  conn->SendDatagram(std::vector<std::uint8_t>(100, 7));
  sim_.RunUntil(sim_.now() + net::Millis(200));
  EXPECT_EQ(conn->stats().datagrams_sent, sent_before + 1);
}

TEST_F(AckPathCase, AckOfUnsentPacketsIsDroppedHarmlessly) {
  QuicEndpoint client(&net_, a_, 9102), server(&net_, b_, 4433);
  QuicConnection* conn = Establish(client, server, 5);
  const std::uint64_t cid = FirstCid(a_, 9102);

  // largest far beyond anything sent: without the range guard this walks
  // billions of packet numbers. first_range > largest is equally malformed.
  net_.SendUdp(b_, 42000, a_, 9102, ForgeAck(cid, 3000, (1ull << 40), 3));
  net_.SendUdp(b_, 42001, a_, 9102, ForgeAck(cid, 3001, 4, 100));
  // A range whose gap underflows the cursor (cursor < gap + 2).
  net_.SendUdp(b_, 42002, a_, 9102, ForgeAck(cid, 3002, 4, 0, {{50, 1}}));
  sim_.RunUntil(sim_.now() + net::Millis(500));

  // Malformed frames dropped the packet, nothing more.
  EXPECT_TRUE(conn->established());
  EXPECT_EQ(conn->stats().packets_declared_lost, 0u);
  const std::uint64_t sent_before = conn->stats().datagrams_sent;
  conn->SendDatagram(std::vector<std::uint8_t>(100, 8));
  sim_.RunUntil(sim_.now() + net::Millis(200));
  EXPECT_EQ(conn->stats().datagrams_sent, sent_before + 1);
}

TEST_F(AckPathCase, LateAckOfRetransmittedPacketIsBenign) {
  net::Netem netem(&net_, a_, net_.AccessRouter(a_));
  QuicEndpoint client(&net_, a_, 9103), server(&net_, b_, 4433);
  std::vector<std::uint8_t> received;
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_stream_data(
        [&](std::uint64_t, std::span<const std::uint8_t> d, bool) {
          received.insert(received.end(), d.begin(), d.end());
        });
  });
  QuicConnection* conn = client.Connect(b_, 4433);
  sim_.RunUntil(net::Millis(300));
  ASSERT_TRUE(conn->established());

  // Heavy loss forces retransmissions: originals are declared lost, their
  // chunks go out again under new packet numbers.
  netem.SetLoss(0.3);
  std::vector<std::uint8_t> payload(20000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 13);
  }
  conn->SendStreamData(2, payload, /*fin=*/true);
  sim_.RunUntil(net::Seconds(20));
  netem.SetLoss(0.0);
  ASSERT_EQ(received, payload);
  EXPECT_GT(conn->stats().packets_declared_lost, 0u);

  // Now ack every packet number ever used — including the lost originals
  // whose data was retransmitted. Acking a packet already marked lost must
  // not rewind congestion state or double-deliver.
  const std::uint64_t cid = FirstCid(a_, 9103);
  net_.SendUdp(b_, 43000, a_, 9103,
               ForgeAck(cid, 4000, conn->stats().packets_sent,
                        conn->stats().packets_sent - 1));
  sim_.RunUntil(sim_.now() + net::Millis(500));
  EXPECT_TRUE(conn->established());
  const std::uint64_t sent_before = conn->stats().datagrams_sent;
  conn->SendDatagram(std::vector<std::uint8_t>(100, 9));
  sim_.RunUntil(sim_.now() + net::Millis(200));
  EXPECT_EQ(conn->stats().datagrams_sent, sent_before + 1);
}

TEST_F(AckPathCase, HugeAckDelayCannotInflateRtt) {
  QuicEndpoint client(&net_, a_, 9105), server(&net_, b_, 4433);
  QuicConnection* conn = Establish(client, server, 0);
  const std::uint64_t cid = FirstCid(a_, 9105);
  const double srtt_before = conn->stats().smoothed_rtt_ms;

  // Ack a fresh datagram ahead of the server's (delayed) real ACK, claiming
  // an ack delay whose us -> ns product overflows int64 to about -1 s.
  conn->SendDatagram(std::vector<std::uint8_t>(100, 1));
  const std::uint64_t pn = conn->stats().packets_sent - 1;
  net_.SendUdp(b_, 44000, a_, 9105,
               ForgeAck(cid, 5000, pn, 0, {}, /*ack_delay_us=*/18446744072709551ull));
  sim_.RunUntil(sim_.now() + net::Millis(500));

  // An over-long delay floors the sample at 1 us: srtt can only drop.
  EXPECT_LE(conn->stats().smoothed_rtt_ms, srtt_before);
  EXPECT_TRUE(conn->established());
}

// --- pre-handshake datagram queue cap -----------------------------------------------

TEST_F(AckHarness, PreHandshakeQueueCapDropsOldest) {
  QuicEndpoint client(&net_, a_, 9104), server(&net_, b_, 4433);
  std::vector<std::uint8_t> first_bytes;
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_datagram([&](std::span<const std::uint8_t> d) {
      first_bytes.push_back(d[0]);
    });
  });
  QuicConnection* conn = client.Connect(b_, 4433);
  // 200 sends before the handshake can complete (the sim has not run yet).
  for (int i = 0; i < 200; ++i) {
    conn->SendDatagram(std::vector<std::uint8_t>(
        100, static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(conn->stats().datagrams_dropped_prehandshake,
            200 - QuicConnection::kMaxPreHandshakeDatagrams);
  sim_.RunUntil(net::Seconds(2));
  // Drop-oldest: exactly the newest kMaxPreHandshakeDatagrams survive.
  ASSERT_EQ(first_bytes.size(), QuicConnection::kMaxPreHandshakeDatagrams);
  EXPECT_EQ(first_bytes.front(),
            static_cast<std::uint8_t>(200 - QuicConnection::kMaxPreHandshakeDatagrams));
  EXPECT_EQ(first_bytes.back(), static_cast<std::uint8_t>(199));
}

// --- oversized datagrams ------------------------------------------------------------
//
// A DATAGRAM too large for the 1200-byte MTU block is written into a block
// sized to the packet and goes out whole.

TEST(QuicDatagram, OversizedDatagramRoundTripsWhole) {
  PipeMedium medium(net::Millis(10));
  QuicEndpoint client(&medium, 1, 9000), server(&medium, 2, 4433);
  std::vector<std::vector<std::uint8_t>> received;
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_datagram([&](std::span<const std::uint8_t> d) {
      received.emplace_back(d.begin(), d.end());
    });
  });
  QuicConnection* conn = client.Connect(2, 4433);
  medium.sim().RunUntil(net::Millis(100));
  ASSERT_TRUE(conn->established());

  std::vector<std::uint8_t> big(3000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 37 + 11);
  const QuicStats before = conn->stats();
  conn->SendDatagram(big);
  // One packet: short header (type byte, 8-byte CID, 1-byte packet number),
  // then the DATAGRAM type byte, a 2-byte length varint and the payload.
  EXPECT_EQ(conn->stats().packets_sent - before.packets_sent, 1u);
  EXPECT_EQ(conn->stats().bytes_sent - before.bytes_sent, 3013u);
  medium.sim().RunUntil(net::Millis(200));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], big);
}

// --- QUIC loss grid, pinned to golden digests ---------------------------------------
//
// One mixed-traffic session (streams + datagrams + loss) per loss rate.
// Every observable — the client's wire trace, application-edge delivery and
// transport accounting — is pinned to golden values, so any change to
// packetization, loss recovery or reassembly shows up here.

std::uint64_t Fnv1a(std::uint64_t h, std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    h = (h ^ b) * 1099511628211ull;
  }
  return h;
}

struct DifferentialResult {
  std::uint64_t stream_digest = 1469598103934665603ull;
  std::uint64_t datagram_digest = 1469598103934665603ull;
  std::uint64_t wire_digest = 1469598103934665603ull;
  std::uint64_t wire_packets = 0;
  std::uint64_t stream_bytes = 0;
  std::uint64_t datagrams = 0;
  QuicStats client_stats;
  /// Per stream: the bytes delivered so far at each fin=true callback.
  std::map<std::uint64_t, std::vector<std::uint64_t>> fin_at;
};

using PacketTap = std::function<void(std::span<const std::uint8_t>)>;

/// Forwards to another Medium, showing every sent payload to a tap first.
class TapMedium final : public net::Medium {
 public:
  TapMedium(net::Medium* inner, PacketTap tap) : inner_(inner), tap_(std::move(tap)) {}

  void BindUdp(net::NodeId node, std::uint16_t port, net::DatagramHandler handler) override {
    inner_->BindUdp(node, port, std::move(handler));
  }
  void UnbindUdp(net::NodeId node, std::uint16_t port) override { inner_->UnbindUdp(node, port); }
  void SendUdp(net::NodeId src, std::uint16_t src_port, net::NodeId dst, std::uint16_t dst_port,
               const std::vector<std::uint8_t>& payload) override {
    if (tap_) tap_(payload);
    inner_->SendUdp(src, src_port, dst, dst_port, payload);
  }
  void SendUdp(net::NodeId src, std::uint16_t src_port, net::NodeId dst, std::uint16_t dst_port,
               net::PacketBuffer payload) override {
    if (tap_) tap_(payload.view());
    inner_->SendUdp(src, src_port, dst, dst_port, std::move(payload));
  }
  net::Simulator& sim() override { return inner_->sim(); }

 private:
  net::Medium* inner_;
  PacketTap tap_;
};

/// The mixed-traffic session; `client_tap` sees every packet the client sends.
DifferentialResult RunDifferentialSession(double loss, PacketTap client_tap = {}) {
  net::Simulator sim(1);
  net::Network net(&sim);
  net.BuildBackbone();
  const auto a = net.AddHost("a", "SanFrancisco");
  const auto b = net.AddHost("b", "NewYork");
  net.ComputeRoutes();

  net::Capture cap;
  cap.AttachToLink(net, a, net.AccessRouter(a));
  net::Netem netem(&net, a, net.AccessRouter(a));
  netem.SetLoss(loss);

  DifferentialResult r;
  std::map<std::uint64_t, std::uint64_t> delivered;
  TapMedium client_medium(&net, std::move(client_tap));
  QuicEndpoint client(&client_medium, a, 9200), server(&net, b, 4433);
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_stream_data(
        [&](std::uint64_t id, std::span<const std::uint8_t> d, bool fin) {
          r.stream_digest = Fnv1a(r.stream_digest, d);
          r.stream_bytes += d.size();
          delivered[id] += d.size();
          if (fin) {
            const std::uint8_t marker[1] = {static_cast<std::uint8_t>(id)};
            r.stream_digest = Fnv1a(r.stream_digest, marker);
            r.fin_at[id].push_back(delivered[id]);
          }
        });
    conn->set_on_datagram([&](std::span<const std::uint8_t> d) {
      r.datagram_digest = Fnv1a(r.datagram_digest, d);
      ++r.datagrams;
    });
  });
  QuicConnection* conn = client.Connect(b, 4433);
  conn->SendDatagram(std::vector<std::uint8_t>(80, 1));  // queued pre-handshake

  std::vector<std::uint8_t> payload(40000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  conn->SendStreamData(4, payload, /*fin=*/false);
  sim.At(net::Millis(500), [conn, &payload] {
    conn->SendStreamData(4, payload, /*fin=*/true);
    conn->SendStreamData(8, std::vector<std::uint8_t>(5000, 0xEE), /*fin=*/true);
  });
  for (int i = 0; i < 120; ++i) {
    sim.At(net::Millis(200 + i * 7), [conn, i] {
      conn->SendDatagram(std::vector<std::uint8_t>(
          300 + static_cast<std::size_t>(i), static_cast<std::uint8_t>(i)));
    });
  }
  sim.RunUntil(net::Seconds(60));

  for (const net::CaptureRecord& rec : cap.records()) {
    ++r.wire_packets;
    const std::uint8_t hdr[4] = {
        static_cast<std::uint8_t>(rec.wire_bytes >> 8),
        static_cast<std::uint8_t>(rec.wire_bytes),
        static_cast<std::uint8_t>(rec.src_port >> 8),
        static_cast<std::uint8_t>(rec.src_port)};
    r.wire_digest = Fnv1a(r.wire_digest, hdr);
    r.wire_digest = Fnv1a(r.wire_digest,
                          std::span(rec.prefix.data(), rec.prefix_len));
  }
  r.client_stats = conn->stats();
  return r;
}

/// Golden observables of one loss-grid session.
struct LossGolden {
  double loss;
  std::uint64_t wire_packets;
  std::uint64_t wire_digest;
  std::uint64_t stream_bytes;
  std::uint64_t stream_digest;
  std::uint64_t datagrams;
  std::uint64_t datagram_digest;
  std::uint64_t packets_sent;
  std::uint64_t packets_received;
  std::uint64_t packets_declared_lost;
  std::uint64_t bytes_sent;
  std::uint64_t datagrams_sent;
  double smoothed_rtt_ms;
};

void PrintTo(const LossGolden& g, std::ostream* os) { *os << "loss=" << g.loss; }

constexpr LossGolden kLossGoldens[] = {
    // loss, wire packets/digest, stream bytes/digest, datagrams/digest,
    // client packets sent/received/declared lost, bytes sent, datagrams
    // sent, smoothed RTT (ms).
    {0.0, 305, 0x20fb0b3d7f3ff61dull, 85000, 0xbf2308bd58e8e797ull, 121, 0xc21fea4cf95c7f4bull,
     201, 104, 0, 132510, 121, 72.51304},
    {0.05, 308, 0x9aa0ebf9b881e892ull, 85000, 0xc2ba6d0ea2d06c5full, 119, 0x559cbf2efb34d22cull,
     205, 109, 6, 136230, 121, 75.841704},
    {0.15, 287, 0x43afc7211a6ed93eull, 85000, 0x768474557169165full, 101, 0x1ede39ad3872f0cdull,
     219, 106, 38, 151592, 121, 78.481604},
};

class DifferentialLoss : public ::testing::TestWithParam<LossGolden> {};

TEST_P(DifferentialLoss, SessionMatchesGoldens) {
  const LossGolden& g = GetParam();
  const DifferentialResult r = RunDifferentialSession(g.loss);
  // Wire traffic...
  EXPECT_EQ(r.wire_packets, g.wire_packets);
  EXPECT_EQ(r.wire_digest, g.wire_digest);
  // ...application-edge delivery...
  EXPECT_EQ(r.stream_bytes, g.stream_bytes);
  EXPECT_EQ(r.stream_digest, g.stream_digest);
  EXPECT_EQ(r.datagrams, g.datagrams);
  EXPECT_EQ(r.datagram_digest, g.datagram_digest);
  // ...and transport accounting.
  EXPECT_EQ(r.client_stats.packets_sent, g.packets_sent);
  EXPECT_EQ(r.client_stats.packets_received, g.packets_received);
  EXPECT_EQ(r.client_stats.packets_declared_lost, g.packets_declared_lost);
  EXPECT_EQ(r.client_stats.bytes_sent, g.bytes_sent);
  EXPECT_EQ(r.client_stats.datagrams_sent, g.datagrams_sent);
  EXPECT_DOUBLE_EQ(r.client_stats.smoothed_rtt_ms, g.smoothed_rtt_ms);
  // Sanity: the scenario exercised real traffic.
  EXPECT_EQ(r.stream_bytes, 85000u);
  EXPECT_GT(r.datagrams, 0u);
}

INSTANTIATE_TEST_SUITE_P(LossGrid, DifferentialLoss, ::testing::ValuesIn(kLossGoldens));

struct StreamFrameCounts {
  int frames = 0;
  int empty_non_fin = 0;  ///< zero-length STREAM frames without FIN
};

/// Counts the STREAM frames in one short-header packet the client sent.
void CountStreamFrames(std::span<const std::uint8_t> p, StreamFrameCounts& counts) {
  if (p.empty() || (p[0] & 0x80) != 0) return;  // long header: handshake only
  std::size_t pos = 1 + 8;                       // type byte + destination CID
  GetQuicVarint(p, &pos);                        // packet number
  while (pos < p.size()) {
    const std::uint8_t type = p[pos++];
    switch (type) {
      case 0x00:  // PADDING
      case 0x01:  // PING
        break;
      case 0x02: {  // ACK: largest, delay, range count, first range, ranges
        GetQuicVarint(p, &pos);
        GetQuicVarint(p, &pos);
        const std::uint64_t ranges = GetQuicVarint(p, &pos);
        GetQuicVarint(p, &pos);
        for (std::uint64_t i = 0; i < 2 * ranges; ++i) GetQuicVarint(p, &pos);
        break;
      }
      case 0x0E:    // STREAM
      case 0x0F: {  // STREAM with FIN
        GetQuicVarint(p, &pos);  // stream id
        GetQuicVarint(p, &pos);  // offset
        const std::uint64_t len = GetQuicVarint(p, &pos);
        ++counts.frames;
        if (len == 0 && type == 0x0E) ++counts.empty_non_fin;
        pos += len;
        break;
      }
      case 0x31:  // DATAGRAM with length
        pos += GetQuicVarint(p, &pos);
        break;
      default:  // CONNECTION_CLOSE ends the packet for our purposes
        return;
    }
  }
}

// Retransmissions reshuffle the send queue, so a chunk that does not fit the
// current packet is common under loss. It must stay queued whole: a
// moved-from husk left behind would go out as an empty STREAM frame, and a
// husk of a FIN chunk would carry a stale, lower end-of-stream offset.
TEST(QuicStream, LossyRetransmitsSendNoEmptyFramesAndOneFin) {
  StreamFrameCounts counts;
  const DifferentialResult r = RunDifferentialSession(
      0.15, [&](std::span<const std::uint8_t> p) { CountStreamFrames(p, counts); });
  EXPECT_GT(counts.frames, 0);
  EXPECT_EQ(counts.empty_non_fin, 0);
  // Each stream's FIN reaches the application once, with its final byte.
  EXPECT_EQ(r.fin_at, (std::map<std::uint64_t, std::vector<std::uint64_t>>{{4, {80000}},
                                                                          {8, {5000}}}));
}

// --- FEC differential & reconciliation ----------------------------------------------

// Dropping any single source from any group must reproduce the exact
// payload stream a lossless run delivers (recovery order may differ, so the
// comparison is by multiset).
TEST(Fec, MissingSourceDifferentialMatchesLossless) {
  for (int k = 1; k <= 5; ++k) {
    const int groups = 3;
    for (int drop_pos = 0; drop_pos < k; ++drop_pos) {
      FecEncoder lossless_enc(k), lossy_enc(k);
      std::multiset<std::vector<std::uint8_t>> lossless, lossy;
      FecDecoder lossless_dec([&](std::span<const std::uint8_t> p) {
        lossless.emplace(p.begin(), p.end());
      });
      FecDecoder lossy_dec([&](std::span<const std::uint8_t> p) {
        lossy.emplace(p.begin(), p.end());
      });
      for (int i = 0; i < k * groups; ++i) {
        const auto payload = MakePayload(k * 100 + i, 40 + static_cast<std::size_t>(i) * 3);
        for (const auto& f : lossless_enc.Protect(payload)) lossless_dec.OnDatagram(f);
        for (const auto& f : lossy_enc.Protect(payload)) {
          const bool is_source = f[0] == 0x00;
          if (is_source && i % k == drop_pos) continue;  // drop one per group
          lossy_dec.OnDatagram(f);
        }
      }
      EXPECT_EQ(lossy, lossless) << "k=" << k << " drop_pos=" << drop_pos;
      EXPECT_EQ(lossy_dec.stats().recovered, static_cast<std::uint64_t>(groups));
    }
  }
}

// The sender's FEC overhead must reconcile with the obs registry counter and
// with the scheme's 1/k overhead (parity = XOR of the group, so its body is
// the group's max frame plus a small header).
TEST(Fec, SessionOverheadReconcilesWithObsCounters) {
  vca::SessionConfig config;
  config.participants = {
      {.name = "U1", .metro = "SanFrancisco", .device = vca::DeviceType::kVisionPro},
      {.name = "U2", .metro = "NewYork", .device = vca::DeviceType::kVisionPro}};
  config.duration = net::Seconds(6);
  config.enable_render = false;
  config.enable_reconstruction = false;
  config.spatial_fec_k = 3;
  vca::TelepresenceSession session(std::move(config));
  session.Run();

  const vca::SpatialPersonaSender* tx = session.spatial_sender(0);
  ASSERT_NE(tx, nullptr);
  EXPECT_GT(tx->fec_parity_bytes_sent(), 0u);
  // Registry handle and accessor views agree.
  EXPECT_EQ(session.sim().metrics().CounterValue("persona.tx0.fec_parity_bytes"),
            tx->fec_parity_bytes_sent());
  // ~1/k overhead: payload_bytes_sent counts every shipped datagram, parity
  // included, so parity stays within [1/k, 1.25/k] of the *source* bytes
  // (the slack covers per-group headers and max-vs-mean frame size).
  const double parity = static_cast<double>(tx->fec_parity_bytes_sent());
  const double sources = static_cast<double>(tx->payload_bytes_sent()) - parity;
  EXPECT_GE(parity, sources / 3.0 * 0.95);
  EXPECT_LE(parity, sources / 3.0 * 1.25);
  // And the receiver saw the parity stream (same counters, other side).
  const auto& rx_stats = session.spatial_receiver(1)->remote(0);
  EXPECT_GT(rx_stats.frames_decoded, 0u);
}

// --- VTP_ADAPT=off seed identity ----------------------------------------------------
//
// The adaptive-delivery machinery (transport/adapt.*, sender rung plumbing,
// SFU coarse routing, session control loop) must be bit-for-bit inert while
// the default-off VTP_ADAPT knob stays off: the golden digests below were
// recorded from the pre-adaptation seed tree (same scenario, same
// toolchain) and every run with the knob unset or =0 must still match.
// Regenerate by running this scenario at the seed commit if the *intended*
// wire behaviour ever changes.

struct SeedGolden {
  double loss;
  std::uint64_t wire_digest;
  std::uint64_t wire_packets;
  std::uint64_t decoded_fwd, decoded_rev;
};

constexpr SeedGolden kSeedGoldens[] = {
    {0.00, 0x49f869ed0e16bd44ull, 13456, 1054, 1054},
    {0.05, 0xf48b8e3f8515a782ull, 13098, 1052, 1054},
    {0.15, 0x8952acc24f05fbcaull, 12296, 1005, 1054},
};

std::uint64_t SessionWireDigest(double loss, std::uint64_t* packets,
                                std::uint64_t* decoded_fwd, std::uint64_t* decoded_rev) {
  vca::SessionConfig config;
  config.participants = {
      {.name = "U1", .metro = "SanFrancisco", .device = vca::DeviceType::kVisionPro},
      {.name = "U2", .metro = "NewYork", .device = vca::DeviceType::kVisionPro}};
  config.duration = net::Seconds(12);
  config.enable_reconstruction = false;
  config.spatial_fec_k = 2;
  vca::TelepresenceSession session(std::move(config));
  net::Netem netem = session.UplinkNetem(0);
  netem.SetLoss(loss);
  session.Run();

  std::uint64_t digest = 1469598103934665603ull;
  *packets = 0;
  for (int i = 0; i < 2; ++i) {
    for (const net::CaptureRecord& rec :
         session.capture(static_cast<std::size_t>(i)).records()) {
      ++*packets;
      const std::uint8_t hdr[4] = {
          static_cast<std::uint8_t>(rec.wire_bytes >> 8),
          static_cast<std::uint8_t>(rec.wire_bytes),
          static_cast<std::uint8_t>(rec.src_port >> 8),
          static_cast<std::uint8_t>(rec.src_port)};
      digest = Fnv1a(digest, hdr);
      digest = Fnv1a(digest, std::span(rec.prefix.data(), rec.prefix_len));
    }
  }
  *decoded_fwd = session.spatial_receiver(1)->remote(0).frames_decoded;
  *decoded_rev = session.spatial_receiver(0)->remote(1).frames_decoded;
  EXPECT_FALSE(session.adapt_enabled());
  return digest;
}

TEST(AdaptOff, SessionsAreSeedIdentical) {
  for (const SeedGolden& golden : kSeedGoldens) {
    for (const bool explicit_off : {false, true}) {
      if (explicit_off) {
        setenv("VTP_ADAPT", "0", 1);
      } else {
        unsetenv("VTP_ADAPT");
      }
      std::uint64_t packets = 0, fwd = 0, rev = 0;
      const std::uint64_t digest = SessionWireDigest(golden.loss, &packets, &fwd, &rev);
      EXPECT_EQ(digest, golden.wire_digest)
          << "loss=" << golden.loss << " explicit_off=" << explicit_off;
      EXPECT_EQ(packets, golden.wire_packets) << "loss=" << golden.loss;
      EXPECT_EQ(fwd, golden.decoded_fwd) << "loss=" << golden.loss;
      EXPECT_EQ(rev, golden.decoded_rev) << "loss=" << golden.loss;
    }
  }
  unsetenv("VTP_ADAPT");
}

}  // namespace
}  // namespace vtp::transport
