// One EndBox deployment as the benchmark runs it: CA and attestation
// service, the VPN server with its config file server, and N attested,
// provisioned and connected EndBox clients. Frames never cross a link
// or the netsim topology; the driver hands them between the calls in
// memory.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "ca/authority.hpp"
#include "endbox/client.hpp"
#include "endbox/configs.hpp"
#include "endbox/server.hpp"
#include "sgx/ias.hpp"
#include "traffic.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Config text a deployment installs: the use case's canonical Click
/// config, tagged with the version so every rollout ships new bytes.
inline std::string versioned_config(endbox::UseCase use_case, std::uint32_t version) {
  return endbox::use_case_config(use_case) + "// config version " +
         std::to_string(version) + "\n";
}

struct ClientRig {
  Rng rng;  ///< owned: the platform and client keep references to it
  endbox::sim::CpuAccount cpu;
  endbox::sgx::SgxPlatform platform;
  endbox::EndBoxClient client;
  std::uint32_t session_id = 0;

  ClientRig(const std::string& name, Rng stream, const endbox::sim::Clock& clock,
            const endbox::sim::PerfModel& model,
            endbox::crypto::RsaPublicKey ca_key,
            endbox::EndBoxClientOptions options)
      : rng(stream),
        cpu(static_cast<unsigned>(std::max<std::size_t>(1, options.shards)),
            model.client_hz),
        platform(name, rng, clock),
        client(name, platform, rng, cpu, model, ca_key, options) {}
};

struct Deployment {
  const WorkloadSpec& spec;
  Rng rng;
  endbox::sim::Clock clock;
  endbox::sim::PerfModel model;
  endbox::sgx::AttestationService ias{rng};
  endbox::ca::CertificateAuthority authority{rng, ias};
  endbox::sim::CpuAccount server_cpu;
  endbox::EndBoxServer server;
  std::vector<idps::SnortRule> rules;
  std::vector<std::unique_ptr<ClientRig>> clients;
  std::vector<std::uint32_t> client_of_session;  ///< indexed by session id
  std::uint32_t config_version = 2;
  /// Start and end (ns) of each handshake's server-side handle.
  std::vector<std::pair<std::int64_t, std::int64_t>> handshakes;

  static endbox::vpn::VpnServerConfig vpn_config(const WorkloadSpec& spec) {
    endbox::vpn::VpnServerConfig config;
    config.session_shards = spec.server_lanes;
    config.allow_integrity_only = !spec.encrypt;
    return config;
  }

  Deployment(const WorkloadSpec& workload, std::uint64_t seed)
      : spec(workload),
        rng(seed),
        server_cpu(model.server_cores, model.server_hz),
        server(rng, authority, server_cpu, model, endbox::ServerMode::Plain,
               vpn_config(workload)),
        rules(community_rules()) {
    authority.allow_measurement(
        endbox::sgx::measure(std::string(endbox::kEndBoxEnclaveIdentity)));
    auto bundle = server.publish_config(
        config_version, versioned_config(spec.use_case, config_version), true, 0, 0);
    if (!bundle.ok()) throw std::runtime_error("publish: " + bundle.error());

    endbox::EndBoxClientOptions options;
    options.encrypt_data = spec.encrypt;
    options.shards = spec.enclave_lanes;
    for (std::size_t i = 0; i < spec.clients; ++i) {
      auto rig = std::make_unique<ClientRig>("client-" + std::to_string(i + 1),
                                             rng.fork(i), clock, model,
                                             authority.public_key(), options);
      endbox::EndBoxClient& client = rig->client;
      ias.register_platform(rig->platform.platform_id(),
                            rig->platform.attestation_key().pub);
      if (auto s = client.attest(authority); !s.ok())
        throw std::runtime_error("attest: " + s.error());
      client.add_ruleset("community", rules);
      if (auto t = client.install_config(*bundle, 0); !t.ok())
        throw std::runtime_error("install: " + t.error());
      auto init = client.start_connect(server.public_key());
      if (!init.ok()) throw std::runtime_error("connect: " + init.error());
      std::int64_t start = now_ns();
      auto handled = server.handle_wire(*init, 0);
      handshakes.emplace_back(start, now_ns());
      if (!handled.ok()) throw std::runtime_error("handshake: " + handled.error());
      auto& done = std::get<endbox::vpn::VpnServer::HandshakeDone>(handled->event);
      if (auto s = client.finish_connect(done.reply_wire); !s.ok())
        throw std::runtime_error("connect: " + s.error());
      rig->session_id = done.session_id;
      if (client_of_session.size() <= done.session_id)
        client_of_session.resize(done.session_id + 1, 0);
      client_of_session[done.session_id] = static_cast<std::uint32_t>(i);
      clients.push_back(std::move(rig));
    }
  }
};

}  // namespace perfbench
