// Focused tests for EndBoxEnclave's ecall surface: provisioning checks,
// sealed-credential restore, config install edge cases, data-path
// guards, EPC accounting, and verdicts and ocall counts that must not
// depend on the lane count.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "endbox_world.hpp"

namespace endbox {
namespace {

using testing::World;

struct EnclaveFixture : ::testing::Test {
  World world;
  config::ConfigBundle bundle = world.publish(UseCase::Nop);

  EndBoxEnclave& provisioned() {
    auto& client = world.add_client(bundle);
    return client.enclave();
  }
};

TEST_F(EnclaveFixture, ProvisioningRejectsForeignCertificate) {
  sgx::SgxPlatform platform("c1", world.rng, world.clock);
  EndBoxEnclave enclave(platform, sgx::SgxMode::Hardware,
                        world.authority.public_key(), world.rng);
  // Certificate signed by a different CA.
  Rng rng(3);
  sgx::AttestationService other_ias(rng);
  ca::CertificateAuthority other_ca(rng, other_ias);
  auto cert = other_ca.issue_legacy_certificate(enclave.ecall_public_key());
  ca::ProvisioningResponse response;
  response.certificate = *cert;
  response.encrypted_config_key = Bytes(8, 0);
  EXPECT_FALSE(enclave.ecall_store_provisioning(response).ok());
  EXPECT_FALSE(enclave.provisioned());
}

TEST_F(EnclaveFixture, ProvisioningRejectsCertificateForOtherKey) {
  sgx::SgxPlatform platform("c1", world.rng, world.clock);
  EndBoxEnclave enclave(platform, sgx::SgxMode::Hardware,
                        world.authority.public_key(), world.rng);
  auto other_key = crypto::rsa_generate(world.rng);
  auto cert = world.authority.issue_legacy_certificate(other_key.pub);
  ca::ProvisioningResponse response;
  response.certificate = *cert;
  response.encrypted_config_key = Bytes(8, 0);
  auto status = enclave.ecall_store_provisioning(response);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().find("different key"), std::string::npos);
}

TEST_F(EnclaveFixture, SealedCredentialsRejectGarbage) {
  auto& enclave = provisioned();
  EXPECT_FALSE(enclave.ecall_restore_credentials(Bytes{}).ok());
  EXPECT_FALSE(enclave.ecall_restore_credentials(Bytes(64, 0xaa)).ok());
  Bytes sealed = enclave.ecall_sealed_credentials();
  Bytes tampered = sealed;
  tampered[tampered.size() / 2] ^= 1;
  EXPECT_FALSE(enclave.ecall_restore_credentials(tampered).ok());
  // The genuine blob restores.
  EXPECT_TRUE(enclave.ecall_restore_credentials(sealed).ok());
}

TEST_F(EnclaveFixture, SealedCredentialsBoundToPlatform) {
  auto& enclave = provisioned();
  Bytes sealed = enclave.ecall_sealed_credentials();
  // Same code, different machine: unseal must fail (stolen blob).
  sgx::SgxPlatform thief("thief", world.rng, world.clock);
  EndBoxEnclave other(thief, sgx::SgxMode::Hardware, world.authority.public_key(),
                      world.rng);
  EXPECT_FALSE(other.ecall_restore_credentials(sealed).ok());
}

TEST_F(EnclaveFixture, InstallConfigRequiresProvisioning) {
  sgx::SgxPlatform platform("c1", world.rng, world.clock);
  EndBoxEnclave enclave(platform, sgx::SgxMode::Hardware,
                        world.authority.public_key(), world.rng);
  EXPECT_FALSE(enclave.ecall_install_config(bundle).ok());
}

TEST_F(EnclaveFixture, InstallConfigRejectsBrokenGraph) {
  auto& enclave = provisioned();
  auto broken = world.server.publish_config(5, "x :: NoSuchElement;", true, 0, 0);
  ASSERT_TRUE(broken.ok());
  EXPECT_FALSE(enclave.ecall_install_config(*broken).ok());
  // Old router keeps running (atomicity).
  EXPECT_NE(enclave.router(), nullptr);
  EXPECT_EQ(enclave.config_version(), 2u);
}

TEST_F(EnclaveFixture, EpcAccountingTracksConfigs) {
  auto& enclave = provisioned();
  std::size_t small_epc = enclave.epc_used();
  EXPECT_GT(small_epc, 0u);
  auto big = world.server.publish_config(5, use_case_config(UseCase::Ddos), true, 0, 0);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(enclave.ecall_install_config(*big).ok());
  EXPECT_GT(enclave.epc_used(), small_epc);  // bigger graph, more trusted heap
  EXPECT_FALSE(enclave.epc_over_limit());
}

TEST_F(EnclaveFixture, HandshakeBeforeProvisioningFails) {
  sgx::SgxPlatform platform("c1", world.rng, world.clock);
  EndBoxEnclave enclave(platform, sgx::SgxMode::Hardware,
                        world.authority.public_key(), world.rng);
  EXPECT_FALSE(enclave.ecall_handshake_init(world.server.public_key()).ok());
}

TEST_F(EnclaveFixture, DataPathGuardsWhenNotConnected) {
  sgx::SgxPlatform platform("c1", world.rng, world.clock);
  EndBoxEnclave enclave(platform, sgx::SgxMode::Hardware,
                        world.authority.public_key(), world.rng);
  EXPECT_FALSE(enclave.ecall_process_egress(world.benign_packet()).ok());
  EXPECT_FALSE(enclave.ecall_process_ingress(Bytes(32, 0)).ok());
  EXPECT_FALSE(enclave.ecall_create_ping().ok());
  EXPECT_FALSE(enclave.ecall_handle_ping(Bytes(32, 0)).ok());
}

TEST_F(EnclaveFixture, PingOnDataPathRejected) {
  auto& client = world.add_client(bundle);
  // A ping message fed into the data-ingress ecall is refused (strict
  // interface separation, section IV-B).
  Bytes ping = world.server.create_ping(1);
  EXPECT_FALSE(client.enclave().ecall_process_ingress(ping).ok());
}

TEST_F(EnclaveFixture, DecryptedPayloadNeverLeavesEnclave) {
  // Even if an element attaches plaintext, the egress path clears the
  // annotation before sealing.
  auto& client = world.add_client(bundle);
  net::Packet packet = world.benign_packet();
  packet.decrypted_payload = to_bytes("plaintext-that-must-not-leak");
  auto sent = client.send_packet(std::move(packet), 0);
  ASSERT_TRUE(sent.ok());
  Bytes marker = to_bytes("plaintext-that-must-not-leak");
  for (const auto& wire : sent->wire) {
    auto it = std::search(wire.begin(), wire.end(), marker.begin(), marker.end());
    EXPECT_EQ(it, wire.end());
  }
}

TEST_F(EnclaveFixture, TrustedTimeOcallsAreCounted) {
  // The DDoS config's TrustedSplitter reads trusted time via an ocall;
  // with SAMPLE 500000 each lane's splitter reads it once, on the first
  // packet that lane sees. Lanes run on worker threads and tally the
  // calls lane-locally, so this pins the fold into the enclave's ocall
  // count at every lane count: exactly one ocall per lane touched.
  for (std::size_t lanes : {1u, 2u, 4u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    World ddos_world;
    auto ddos_bundle = ddos_world.publish(UseCase::Ddos);
    EndBoxClientOptions options;
    options.shards = lanes;
    auto& enclave = ddos_world.add_client(ddos_bundle, options).enclave();
    ASSERT_EQ(enclave.shard_count(), lanes);
    auto ocalls_before = enclave.transitions().ocalls;
    std::set<std::size_t> touched;
    for (std::uint16_t flow = 0; flow < 16; ++flow) {
      net::Packet packet = ddos_world.benign_packet();
      packet.src_port = static_cast<std::uint16_t>(41000 + flow);
      touched.insert(click::shard_of(net::FlowKey::of(packet), lanes));
      ASSERT_TRUE(enclave.ecall_process_egress(std::move(packet)).ok());
    }
    EXPECT_EQ(touched.size(), lanes);
    EXPECT_EQ(enclave.transitions().ocalls - ocalls_before, touched.size());
  }
}

// A Tee delivers each packet to ToDevice once per output, port 0 last.
// Here port 1 accepts and port 0 rejects, so every packet is delivered
// accepted, then rejected. The per-packet verdict is the last delivery
// ("rejected"); the batch path seals one frame set per accepted
// delivery. Both must read the same whatever the lane count: a lane
// sink that dropped rejected deliveries turned the per-packet verdict
// into "accepted" at 4 lanes.
TEST_F(EnclaveFixture, TeeFanOutVerdictsMatchAtEveryLaneCount) {
  const std::string tee_config =
      "from_device :: FromDevice;\n"
      "to_device :: ToDevice;\n"
      "t :: Tee(2);\n"
      "from_device -> t;\n"
      "t[0] -> [1]to_device;\n"
      "t[1] -> [0]to_device;\n";
  constexpr std::uint16_t kFlows = 16;
  for (std::size_t lanes : {1u, 4u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    World tee_world;
    auto tee_bundle = tee_world.server.publish_config(2, tee_config, true, 0, 0);
    ASSERT_TRUE(tee_bundle.ok());
    EndBoxClientOptions options;
    options.shards = lanes;
    auto& enclave = tee_world.add_client(*tee_bundle, options).enclave();
    ASSERT_EQ(enclave.shard_count(), lanes);
    auto flow_packet = [&](std::uint16_t flow) {
      net::Packet packet = tee_world.benign_packet(200);
      packet.src_port = static_cast<std::uint16_t>(42000 + flow);
      return packet;
    };

    std::set<std::size_t> touched;
    for (std::uint16_t flow = 0; flow < kFlows; ++flow) {
      net::Packet packet = flow_packet(flow);
      touched.insert(click::shard_of(net::FlowKey::of(packet), lanes));
      auto result = enclave.ecall_process_egress(std::move(packet));
      ASSERT_TRUE(result.ok());
      EXPECT_FALSE(result->accepted) << "flow " << flow;
      EXPECT_TRUE(result->wire.empty());
    }
    EXPECT_EQ(touched.size(), lanes);
    EXPECT_EQ(enclave.packets_rejected_by_click(), kFlows);

    click::PacketBatch batch;
    for (std::uint16_t flow = 0; flow < kFlows; ++flow)
      batch.push_back(flow_packet(flow));
    EgressBatch out;
    ASSERT_TRUE(enclave.ecall_process_egress_batch(std::move(batch), out).ok());
    EXPECT_EQ(out.accepted, kFlows);
    EXPECT_EQ(out.rejected, 0u);
    EXPECT_EQ(out.frame_count, kFlows);  // one frame per accepted delivery
    EXPECT_EQ(enclave.packets_rejected_by_click(), kFlows);
  }
}

TEST_F(EnclaveFixture, RulesetRegistrationIsEcall) {
  auto& enclave = provisioned();
  auto ecalls_before = enclave.transitions().ecalls;
  enclave.ecall_add_ruleset("extra", world.community_rules);
  EXPECT_EQ(enclave.transitions().ecalls, ecalls_before + 1);
}

TEST_F(EnclaveFixture, MeasurementMatchesCanonicalIdentity) {
  auto& enclave = provisioned();
  EXPECT_EQ(enclave.measurement(),
            sgx::measure(std::string(kEndBoxEnclaveIdentity)));
}

}  // namespace
}  // namespace endbox
