// Run-to-completion lane suite: the AdaptiveReshardController's
// imbalance feed (observe_lanes splits a hot lane while the mean
// holds, refuses to shrink while a merge would overload the hot lane,
// and reduces to the scalar observe() on balanced lanes); the
// VpnServer lanes end to end (per-session ordering at 1/2/4/8 lanes,
// lossless 1→8→2 reshard, starved-lane pool adoption, and a controller
// split driven by the server's own lane stats).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "ca/authority.hpp"
#include "common/rng.hpp"
#include "endbox/reshard_controller.hpp"
#include "sgx/enclave.hpp"
#include "sgx/platform.hpp"
#include "vpn/client.hpp"
#include "vpn/server.hpp"

namespace endbox {
namespace {

// ---- AdaptiveReshardController imbalance feed -----------------------

ReshardPolicy lane_policy() {
  ReshardPolicy policy;
  policy.min_shards = 1;
  policy.max_shards = 8;
  policy.shard_capacity = 100.0;
  policy.ewma_alpha = 0.5;
  policy.grow_above = 0.85;
  policy.shrink_below = 0.35;
  policy.cooldown_intervals = 0;
  return policy;
}

TEST(LaneController, SplitsHotLaneWhileMeanHolds) {
  // One lane near saturation, three lukewarm: the mean sits in the
  // hold band (0.35 <= 0.375 < 0.85), but the hot-lane EWMA crosses
  // grow_above, so the controller doubles — the imbalance-driven split
  // a scalar feed can never trigger.
  AdaptiveReshardController controller(lane_policy(), 4);
  std::vector<double> loads = {90.0, 20.0, 20.0, 20.0};
  EXPECT_LT((90.0 + 60.0) / (4 * 100.0), 0.85);  // mean under grow
  EXPECT_GE((90.0 + 60.0) / (4 * 100.0), 0.35);  // and over shrink
  std::size_t target = controller.observe_lanes(loads);
  EXPECT_EQ(target, 8u);
  EXPECT_EQ(controller.grow_decisions(), 1u);
  EXPECT_GT(controller.hot_lane_utilisation(), 0.85);
}

TEST(LaneController, BalancedLanesNeverSplitInHoldBand) {
  // A comparable total load spread evenly stays put (mean 0.5, hot
  // 0.5, both inside the hold band): the split above was driven by
  // imbalance, not by the aggregate.
  AdaptiveReshardController controller(lane_policy(), 4);
  std::vector<double> loads = {50.0, 50.0, 50.0, 50.0};
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(controller.observe_lanes(loads), 4u);
  EXPECT_EQ(controller.grow_decisions(), 0u);
  EXPECT_EQ(controller.shrink_decisions(), 0u);
}

TEST(LaneController, ShrinkHeldWhileMergeWouldOverloadHotLane) {
  // Mean utilisation is deep in the shrink band, but one lane carries
  // half a shard's capacity: merging would double that lane's load
  // past grow_above, so the shrink is vetoed until the hot lane cools.
  AdaptiveReshardController controller(lane_policy(), 4);
  std::vector<double> hot = {50.0, 1.0, 1.0, 1.0};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(controller.observe_lanes(hot), 4u)
        << "shrink must hold while 2*hot_u > grow_above";
  }
  EXPECT_EQ(controller.shrink_decisions(), 0u);

  // Once the hot lane drains, the same mean machinery shrinks as ever.
  std::vector<double> cool = {10.0, 10.0, 10.0, 10.0};
  std::size_t shards = 4;
  for (int i = 0; i < 20 && shards > 2; ++i)
    shards = controller.observe_lanes(cool);
  EXPECT_EQ(shards, 2u);
  EXPECT_GE(controller.shrink_decisions(), 1u);
}

TEST(LaneController, ScalarObserveMatchesBalancedLaneFeed) {
  // observe(load) assumes balance (hot = load / shards): feeding the
  // same totals as exactly balanced lane vectors must reproduce every
  // decision, so the two entry points stay interchangeable for
  // balanced workloads.
  AdaptiveReshardController scalar(lane_policy(), 1);
  AdaptiveReshardController lanes(lane_policy(), 1);
  std::vector<double> ramp = {40, 90, 180, 360, 700, 700, 300,
                              120, 60,  30,  15,  15,  15};
  for (double total : ramp) {
    std::size_t from_scalar = scalar.observe(total);
    std::vector<double> even(lanes.shards(), total / lanes.shards());
    std::size_t from_lanes = lanes.observe_lanes(even);
    ASSERT_EQ(from_scalar, from_lanes) << "diverged at total " << total;
    ASSERT_DOUBLE_EQ(scalar.load_ewma(), lanes.load_ewma());
  }
}

// ---- VpnServer lane pipeline ---------------------------------------

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

// Same twin-rig pattern as server_shard_test: shared PKI, fixed seeds.
struct Pki {
  Rng rng{0x5eed5a};
  sim::Clock clock;
  sgx::AttestationService ias{rng};
  ca::CertificateAuthority authority{rng, ias};
  sgx::SgxPlatform platform{"client-1", rng, clock};
  sgx::Enclave enclave{platform, "endbox-v1", sgx::SgxMode::Hardware};
  crypto::RsaKeyPair enclave_key = crypto::rsa_generate(rng);
  ca::Certificate certificate;

  Pki() {
    ias.register_platform("client-1", platform.attestation_key().pub);
    authority.allow_measurement(enclave.measurement());
    sgx::QuotingEnclave qe(platform);
    auto quote = qe.quote(enclave.create_report(
        sgx::bind_report_data(enclave_key.pub.serialize())));
    auto response = authority.provision(quote->serialize(), enclave_key.pub);
    certificate = response->certificate;
  }
};

struct LaneRig {
  Rng server_rng;
  vpn::VpnServer server;
  std::vector<std::unique_ptr<Rng>> client_rngs;
  std::vector<vpn::VpnClientSession> clients;

  LaneRig(Pki& pki, std::size_t lanes, std::size_t sessions,
          std::uint64_t seed = 0xfeed01)
      : server_rng(seed),
        server(server_rng, pki.authority.public_key(), [&] {
          vpn::VpnServerConfig config;
          config.session_shards = lanes;
          return config;
        }()) {
    clients.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      client_rngs.push_back(std::make_unique<Rng>(seed ^ (0x1000 + i)));
      clients.emplace_back(*client_rngs.back(), pki.certificate,
                           pki.enclave_key, server.public_key(),
                           vpn::VpnClientConfig{});
      auto init = clients.back().create_handshake_init();
      auto event = server.handle(init.serialize(), 0);
      EXPECT_TRUE(event.ok()) << event.error();
      auto& done = std::get<vpn::VpnServer::HandshakeDone>(*event);
      auto reply = vpn::WireMessage::parse(done.reply_wire);
      EXPECT_TRUE(reply.ok());
      auto status = clients.back().process_handshake_reply(*reply);
      EXPECT_TRUE(status.ok()) << status.error();
    }
  }

  /// Seals `per_session` payloads per client, session-interleaved
  /// (s0 f0, s1 f0, ..., s0 f1, ...), so lanes interleave at dispatch.
  std::vector<Bytes> interleaved_burst(std::size_t per_session,
                                       int round = 0) {
    std::vector<Bytes> frames;
    for (std::size_t f = 0; f < per_session; ++f)
      for (std::size_t i = 0; i < clients.size(); ++i)
        clients[i].seal_packet_wire_at(
            to_bytes("lane payload r" + std::to_string(round) + " f" +
                     std::to_string(f) + " s" + std::to_string(i)),
            frames, frames.size());
    return frames;
  }
};

void expect_per_session_order(const vpn::VpnServer::OpenBatch& batch,
                              const char* what) {
  std::map<std::uint32_t, std::uint32_t> last_tag;
  for (std::size_t i = 0; i < batch.packet_count; ++i) {
    const auto& packet = batch.packets[i];
    auto it = last_tag.find(packet.session_id);
    if (it != last_tag.end()) {
      EXPECT_LT(it->second, packet.burst_tag)
          << what << ": session " << packet.session_id << " reordered at #"
          << i;
    }
    last_tag[packet.session_id] = packet.burst_tag;
  }
}

TEST(LanePipeline, PerSessionOrderHoldsAtEveryLaneCount) {
  Pki pki;
  for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
    LaneRig rig(pki, lanes, 12, 0xabc000 + lanes);
    auto frames = rig.interleaved_burst(5);
    vpn::VpnServer::OpenBatch out;
    rig.server.open_batch(frames, 0, out);
    EXPECT_EQ(out.complete, frames.size()) << lanes << " lanes";
    EXPECT_EQ(out.rejected, 0u) << lanes << " lanes";
    EXPECT_EQ(out.packet_count, frames.size()) << lanes << " lanes";
    expect_per_session_order(out, "lane pipeline");
  }
}

TEST(LanePipeline, Reshard1To8To2LlosslessUnderTraffic) {
  Pki pki;
  LaneRig rig(pki, 1, 10);
  std::map<std::uint32_t, std::uint32_t> last_tag;
  int round = 0;
  for (std::size_t lanes : {1u, 8u, 2u}) {
    ASSERT_TRUE(rig.server.reshard_sessions(lanes).ok());
    EXPECT_EQ(rig.server.session_shard_count(), lanes);
    // Replay windows, session keys and per-session ordering must all
    // survive the migration: the next burst opens completely.
    auto frames = rig.interleaved_burst(4, round++);
    vpn::VpnServer::OpenBatch out;
    rig.server.open_batch(frames, 0, out);
    EXPECT_EQ(out.complete, frames.size()) << "at " << lanes << " lanes";
    EXPECT_EQ(out.rejected, 0u) << "at " << lanes << " lanes";
    expect_per_session_order(out, "resharded lane pipeline");
  }
  EXPECT_EQ(rig.server.session_count(), 10u);
}

TEST(LanePipeline, StarvedLaneAdoptsBuffersFromRichestSibling) {
  Pki pki;
  LaneRig rig(pki, 4, 12, 0xfeed22);
  // Find one lane with sessions and at least one populated sibling.
  std::vector<std::vector<std::size_t>> by_lane(4);
  for (std::size_t i = 0; i < rig.clients.size(); ++i)
    by_lane[rig.server.shard_of_session(rig.clients[i].session_id())]
        .push_back(i);
  std::size_t hot = 4;
  for (std::size_t l = 0; l < 4; ++l) {
    if (!by_lane[l].empty() && hot == 4) hot = l;
  }
  ASSERT_LT(hot, 4u);

  // Warm the sibling lanes' pools with fragmenting payloads: a
  // 3-fragment packet acquires three bodies but completes into one,
  // and the reassembler returns the surplus to the lane-local pool —
  // the only net pool growth in steady state. The hot lane's pool
  // stays cold because its sessions stay silent.
  vpn::VpnServer::OpenBatch out;
  for (int warm = 0; warm < 3; ++warm) {
    std::vector<Bytes> frames;
    for (std::size_t l = 0; l < 4; ++l) {
      if (l == hot) continue;
      for (std::size_t i : by_lane[l])
        for (int f = 0; f < 2; ++f)
          rig.clients[i].seal_packet_wire_at(
              Bytes(20000, static_cast<unsigned char>('a' + warm * 2 + f)),
              frames, frames.size());
    }
    rig.server.open_batch(frames, 0, out);
    ASSERT_EQ(out.rejected, 0u);
  }
  std::size_t richest = 0;
  for (std::size_t l = 0; l < 4; ++l) {
    if (l == hot) continue;
    richest = std::max(richest, rig.server.lane_pool_buffers(l));
  }
  ASSERT_GT(richest, 1u) << "warm-up must leave a donor with spare buffers";

  // Now flood the cold lane only: its first frames miss the empty pool
  // (pool_starved counts each heap fallback), and the end-of-burst
  // rebalance makes it adopt half the richest sibling's buffers
  // instead of staying on the heap forever.
  std::uint64_t refills_before = rig.server.pool_refills(hot);
  std::vector<Bytes> flood;
  for (std::size_t i : by_lane[hot])
    for (int f = 0; f < 8; ++f)
      rig.clients[i].seal_packet_wire_at(
          to_bytes("flood " + std::to_string(f)), flood, flood.size());
  rig.server.open_batch(flood, 0, out);
  EXPECT_EQ(out.rejected, 0u);
  EXPECT_GT(rig.server.pool_starved(hot), 0u);
  EXPECT_GT(rig.server.pool_refills(hot), refills_before)
      << "a starved lane must adopt buffers, not heap-allocate forever";
  EXPECT_GT(rig.server.lane_pool_buffers(hot), 0u);
}

TEST(LanePipeline, ServerLaneStatsDriveHotLaneSplit) {
  // End to end: a skewed burst leaves one lane's frame count far above
  // its siblings'; feeding exactly those per-lane stats into
  // observe_lanes splits the lane while the mean sits in the hold
  // band — the lanes' busy share is the controller's imbalance signal,
  // not a synthetic vector.
  Pki pki;
  LaneRig rig(pki, 4, 12, 0xfeed33);
  std::vector<std::vector<std::size_t>> by_lane(4);
  for (std::size_t i = 0; i < rig.clients.size(); ++i)
    by_lane[rig.server.shard_of_session(rig.clients[i].session_id())]
        .push_back(i);
  std::size_t hot = 0;
  for (std::size_t l = 1; l < 4; ++l)
    if (by_lane[l].size() > by_lane[hot].size()) hot = l;
  ASSERT_FALSE(by_lane[hot].empty());

  // 40 frames to the hot lane, ≤2 to each other lane.
  rig.server.reset_lane_stats();
  std::vector<Bytes> frames;
  for (int f = 0; f < 40; ++f)
    rig.clients[by_lane[hot][static_cast<std::size_t>(f) %
                            by_lane[hot].size()]]
        .seal_packet_wire_at(to_bytes("hot " + std::to_string(f)), frames,
                             frames.size());
  for (std::size_t l = 0; l < 4; ++l) {
    if (l == hot || by_lane[l].empty()) continue;
    for (int f = 0; f < 2; ++f)
      rig.clients[by_lane[l][0]].seal_packet_wire_at(
          to_bytes("cold " + std::to_string(f)), frames, frames.size());
  }
  vpn::VpnServer::OpenBatch out;
  rig.server.open_batch(frames, 0, out);
  ASSERT_EQ(out.rejected, 0u);

  std::vector<double> lane_load;
  std::uint64_t lane_total = 0;
  for (std::size_t l = 0; l < 4; ++l) {
    lane_total += rig.server.lane_frames(l);
    lane_load.push_back(static_cast<double>(rig.server.lane_frames(l)));
  }
  // Every opened frame ran on exactly one lane.
  EXPECT_EQ(lane_total, frames.size());
  EXPECT_EQ(lane_total, out.complete);
  EXPECT_EQ(rig.server.lane_frames(hot), 40u);

  ReshardPolicy policy = lane_policy();
  policy.shard_capacity = 44.0;  // hot lane ~0.9, mean ~0.26: hold band
  AdaptiveReshardController controller(policy, 4);
  std::size_t target = controller.observe_lanes(lane_load);
  EXPECT_EQ(target, 8u) << "ring/busy imbalance must split the hot lane";
  EXPECT_EQ(controller.grow_decisions(), 1u);
  ASSERT_TRUE(rig.server.reshard_sessions(target).ok());
  EXPECT_EQ(rig.server.session_shard_count(), 8u);
}

}  // namespace
}  // namespace endbox
