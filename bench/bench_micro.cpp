// Micro-benchmarks (google-benchmark) for the hot primitives underneath
// the experiments: crypto, Aho-Corasick matching, Click config parsing
// and hot-swap, VPN seal/open. These quantify real (wall-clock) costs
// of our implementations, independent of the virtual-time model.
//
// The PR-2 fast paths (zero-allocation WireBuffer seal/open, flattened
// Aho-Corasick) and the PR-3 batched element graph (PacketBatch +
// PacketPool vs packet-at-a-time pushes) are benchmarked side by side
// with the per-packet/reference paths that stayed callable for exactly
// this purpose, the PR-4 sharded chain (per-core element-graph clones,
// critical-path costing) against its single-shard baseline, and the
// PR-5 session-sharded VPN server (open_batch + seal_jobs across
// session shards) against the pre-sharding single-threaded loop, and
// the PR-6 timer-wheel session-table churn against a periodic
// full-scan map, and the PR-7 robustness layer (control-plane connect
// cycle vs the raw handshake, LRU-eviction admission churn vs manual
// recycle), and the run-to-completion lanes (per-lane open+seal
// critical path at 1/2/4/8 lanes against the 1-lane burst), and the
// hardware crypto kernels (AES-NI CBC, SHA-NI HMAC) against the
// portable T-table / scalar kernels they dispatch around.
// Running with `--json [path]` skips google-benchmark and instead
// writes a before/after summary (default BENCH_pr12.json) that CI diffs
// against the checked-in baselines. Note on refreshing baselines: the
// JSON mode always emits every row (that is what CI's bench-current
// run needs), but each checked-in BENCH_prN.json should keep only the
// rows its PR introduced or materially changed — the regression gate
// takes the most recent baseline per key, so re-recording untouched
// rows would silently move their expectations to whatever machine the
// refresh ran on. Trim before committing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <unordered_map>

#include "ca/authority.hpp"
#include "click/packet_batch.hpp"
#include "common/hash.hpp"
#include "common/lifecycle_table.hpp"
#include "click/router.hpp"
#include "click/sharded_router.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/kernel.hpp"
#include "crypto/sha256.hpp"
#include "elements/context.hpp"
#include "endbox/configs.hpp"
#include "idps/engine.hpp"
#include "net/packet_pool.hpp"
#include "sgx/enclave.hpp"
#include "sgx/platform.hpp"
#include "vpn/client.hpp"
#include "vpn/control.hpp"
#include "vpn/server.hpp"
#include "vpn/session_crypto.hpp"
#include "vpn/session_crypto_reference.hpp"

using namespace endbox;

namespace {

// Case-sensitive automaton over every content pattern of the synthetic
// community rule set — the same pattern population the IDPS engine
// scans with.
idps::AhoCorasick community_automaton() {
  Rng rng(7);
  auto rules = idps::generate_community_ruleset(377, rng);
  idps::AhoCorasick automaton;
  for (std::size_t r = 0; r < rules.size(); ++r)
    for (std::size_t c = 0; c < rules[r].contents.size(); ++c)
      automaton.add_pattern(rules[r].contents[c].bytes,
                            static_cast<int>(r << 8 | c));
  automaton.build();
  return automaton;
}

// The representative enclave element chain of the acceptance criteria
// (CheckIPHeader -> IPFilter(16 rules) -> IDSMatcher -> ToDevice) with
// the paper's 16-rule firewall set that matches no evaluation traffic.
std::string chain_config() {
  std::string rules;
  for (int i = 1; i <= 16; ++i)
    rules += "drop src 192.0.2." + std::to_string(i) + ", ";
  return "from_device :: FromDevice; check :: CheckIPHeader;"
         "fw :: IPFilter(" + rules + "allow all);"
         "ids :: IDSMatcher(RULESET bench); to_device :: ToDevice;"
         "from_device -> check -> fw -> ids -> to_device;"
         "check[1] -> [1]to_device; fw[1] -> [1]to_device;"
         "ids[1] -> [1]to_device;";
}

// One wired chain instance, driveable per-packet (fresh payload buffer
// per push, like the pre-batching enclave ingress) or batched
// (pool-recycled buffers, one virtual call per element per burst).
// `ids_rules` sizes the IDSMatcher rule set: a compact set keeps the
// chain graph-overhead-bound (the regime batching targets), the full
// 377-rule community set makes it scan-bound (batching's floor).
struct ChainBench {
  elements::ElementContext context;
  tls::SessionKeyStore store;
  click::ElementRegistry registry;
  std::unique_ptr<click::Router> router;
  net::PacketPool pool;
  std::uint64_t accepted = 0;
  bool recycle = false;

  explicit ChainBench(std::size_t ids_rules = 12)
      : registry(elements::make_endbox_registry(context)) {
    context.key_store = &store;
    Rng rules_rng(7);
    context.rulesets["bench"] = idps::generate_community_ruleset(ids_rules, rules_rng);
    context.to_device = [this](net::Packet&& packet, bool ok) {
      accepted += ok;
      if (recycle) pool.release(std::move(packet));
    };
    auto built = click::Router::from_config(chain_config(), registry);
    if (!built.ok()) std::abort();
    router = std::move(*built);
  }

  /// Pushes one burst per-packet: each packet is built with a freshly
  /// allocated payload, exactly like the packet-at-a-time data path.
  void run_per_packet(const Bytes& payload, std::size_t burst) {
    for (std::size_t k = 0; k < burst; ++k) {
      net::Packet packet = net::Packet::udp(net::Ipv4(10, 8, 0, 2),
                                            net::Ipv4(10, 0, 0, 1), 40000, 5001,
                                            payload);
      router->push_to("from_device", std::move(packet));
    }
  }

  /// Pushes one burst as a PacketBatch drawing payload buffers from the
  /// pool (ToDevice recycles them).
  void run_batch(const Bytes& payload, std::size_t burst) {
    recycle = true;
    click::PacketBatch batch;
    for (std::size_t k = 0; k < burst; ++k) {
      net::Packet packet = pool.acquire();
      packet.src = net::Ipv4(10, 8, 0, 2);
      packet.dst = net::Ipv4(10, 0, 0, 1);
      packet.proto = net::IpProto::Udp;
      packet.src_port = 40000;
      packet.dst_port = 5001;
      packet.payload.assign(payload.begin(), payload.end());
      batch.push_back(std::move(packet));
    }
    router->push_batch_to("from_device", std::move(batch));
    recycle = false;
  }
};

// The same chain cloned into N element-graph shards with per-shard
// contexts and pools (the enclave's sharded layout). The canonical
// burst is 64 packets over 32 flows; each packet's shard follows the
// RSS FlowKey hash, so the assignment is deterministic. run_shard(s)
// builds and runs shard s's share of the burst on the calling thread —
// PR-4's bench methodology times each shard serially and reports the
// burst's critical path (the slowest shard), i.e. the completion time
// when every shard owns a core, matching the repo's virtual-time cost
// model (CI containers often expose a single core, where wall-clock
// parallel timing would measure the scheduler instead of the router).
struct ShardedChainBench {
  static constexpr std::size_t kBurst = click::PacketBatch::kMaxBurst;
  static constexpr std::size_t kFlows = 32;

  struct Rig {
    elements::ElementContext context;
    tls::SessionKeyStore store;
    click::ElementRegistry registry;
    net::PacketPool pool;
    std::uint64_t accepted = 0;
    Rig() : registry(elements::make_endbox_registry(context)) {}
  };

  std::vector<idps::SnortRule> rules;
  std::vector<std::unique_ptr<Rig>> rigs;
  std::unique_ptr<click::ShardedRouter> router;
  std::vector<std::size_t> shard_of_packet;  // packet index -> shard

  explicit ShardedChainBench(std::size_t shards, std::size_t ids_rules = 377) {
    Rng rules_rng(7);
    rules = idps::generate_community_ruleset(ids_rules, rules_rng);
    auto built = click::ShardedRouter::create(
        chain_config(), shards, [this](std::size_t i, const std::string& cfg) {
          while (rigs.size() <= i) {
            auto rig = std::make_unique<Rig>();
            rig->context.key_store = &rig->store;
            rig->context.rulesets["bench"] = rules;
            Rig* raw = rig.get();
            rig->context.to_device = [raw](net::Packet&& packet, bool ok) {
              raw->accepted += ok;
              raw->pool.release(std::move(packet));
            };
            rigs.push_back(std::move(rig));
          }
          return click::Router::from_config(cfg, rigs[i]->registry);
        });
    if (!built.ok()) std::abort();
    router = std::move(*built);
    for (std::size_t k = 0; k < kBurst; ++k) {
      net::FlowKey key{net::Ipv4(10, 8, 0, 2), net::Ipv4(10, 0, 0, 1),
                       static_cast<std::uint16_t>(40000 + k % kFlows), 5001,
                       net::IpProto::Udp};
      shard_of_packet.push_back(click::shard_of(key, shards));
    }
  }

  std::size_t shard_packets(std::size_t s) const {
    std::size_t n = 0;
    for (std::size_t shard : shard_of_packet) n += shard == s;
    return n;
  }

  /// Builds and runs shard `s`'s share of the canonical burst (pool-
  /// backed packets, one push_batch into that shard's graph).
  void run_shard(std::size_t s, const Bytes& payload) {
    Rig& rig = *rigs[s];
    click::PacketBatch batch;
    for (std::size_t k = 0; k < kBurst; ++k) {
      if (shard_of_packet[k] != s) continue;
      net::Packet packet = rig.pool.acquire();
      packet.src = net::Ipv4(10, 8, 0, 2);
      packet.dst = net::Ipv4(10, 0, 0, 1);
      packet.proto = net::IpProto::Udp;
      packet.src_port = static_cast<std::uint16_t>(40000 + k % kFlows);
      packet.dst_port = 5001;
      packet.payload.assign(payload.begin(), payload.end());
      batch.push_back(std::move(packet));
    }
    if (!batch.empty())
      router->shard(s).push_batch_to("from_device", std::move(batch));
  }
};

// The session-sharded VPN server driven the way the uplink drives it:
// a 64-frame train spanning 16 sessions (4 frames each) opened with
// open_batch, then the 64 reassembled packets sealed back downlink
// with seal_jobs. run_lane(l) runs lane l's slice of both halves inline
// on the calling thread, each lane is timed serially, and the burst is
// costed at the slowest lane — the completion time when every lane
// owns a core (wall-clock parallel timing on a 1-2 core CI box would
// measure the scheduler). reset_replay_windows() makes the identical
// pre-sealed train fresh every iteration, so the open side times real
// MAC+decrypt work instead of replay rejections. Session ids are
// assigned sequentially by the server, so an arbitrary 16-session
// population can land lopsided across 8 lanes and the critical path
// would measure the skew, not the lanes. The fixture therefore handshakes
// candidate sessions until it holds exactly two per splitmix64 residue
// class mod 8 (closing the rest), which is balanced at 8 lanes and —
// because x % 4 == (x % 8) % 4 — at 4, 2 and 1 as well: every
// lane-count row times the same per-lane work shape.
struct LaneChainBench {
  static constexpr std::size_t kSessions = 16;
  static constexpr std::size_t kFramesPerSession = 4;
  static constexpr std::size_t kBurst = kSessions * kFramesPerSession;  // 64

  Rng pki_rng{0x5eed5a};
  sim::Clock clock;
  sgx::AttestationService ias{pki_rng};
  ca::CertificateAuthority authority{pki_rng, ias};
  sgx::SgxPlatform platform{"bench-lane", pki_rng, clock};
  sgx::Enclave enclave{platform, "endbox-v1", sgx::SgxMode::Hardware};
  crypto::RsaKeyPair enclave_key = crypto::rsa_generate(pki_rng);
  ca::Certificate certificate;

  Rng server_rng{0x1a9e5};
  vpn::VpnServer server;
  std::vector<std::unique_ptr<Rng>> client_rngs;
  std::vector<vpn::VpnClientSession> clients;
  Bytes payload;
  std::vector<Bytes> burst;  ///< pre-sealed uplink train
  std::vector<vpn::VpnServer::SealJob> jobs;
  std::vector<Bytes> seal_frames;
  vpn::VpnServer::OpenBatch out;

  explicit LaneChainBench(std::size_t lanes, std::size_t payload_bytes = 1500)
      : server(server_rng, authority.public_key(), [&] {
          vpn::VpnServerConfig config;
          config.session_shards = lanes;
          return config;
        }()) {
    ias.register_platform("bench-lane", platform.attestation_key().pub);
    authority.allow_measurement(enclave.measurement());
    sgx::QuotingEnclave qe(platform);
    auto quote = qe.quote(enclave.create_report(
        sgx::bind_report_data(enclave_key.pub.serialize())));
    auto response = authority.provision(quote->serialize(), enclave_key.pub);
    if (!response.ok()) std::abort();
    certificate = response->certificate;

    clients.reserve(kSessions + 1);
    std::array<std::size_t, 8> per_residue{};
    for (std::size_t attempt = 0; clients.size() < kSessions; ++attempt) {
      if (attempt >= 512) std::abort();  // residue classes never filled
      client_rngs.push_back(std::make_unique<Rng>(0x3000 + attempt));
      clients.emplace_back(*client_rngs.back(), certificate, enclave_key,
                           server.public_key(), vpn::VpnClientConfig{});
      auto init = clients.back().create_handshake_init();
      auto event = server.handle(init.serialize(), 0);
      if (!event.ok()) std::abort();
      auto reply = vpn::WireMessage::parse(
          std::get<vpn::VpnServer::HandshakeDone>(*event).reply_wire);
      if (!clients.back().process_handshake_reply(*reply).ok()) std::abort();
      std::size_t residue =
          splitmix64(clients.back().session_id()) % per_residue.size();
      if (per_residue[residue] >= kSessions / per_residue.size()) {
        server.close_session(clients.back().session_id());
        clients.pop_back();
        client_rngs.pop_back();
        continue;
      }
      ++per_residue[residue];
    }

    Rng data_rng(9);
    payload = data_rng.bytes(payload_bytes);
    for (std::size_t f = 0; f < kFramesPerSession; ++f)
      for (std::size_t i = 0; i < kSessions; ++i)
        clients[i].seal_packet_wire_at(payload, burst, burst.size());
    for (std::size_t k = 0; k < kBurst; ++k)
      jobs.push_back({clients[k % kSessions].session_id(), payload});
  }

  bool lane_has_work(std::size_t l) const {
    for (const auto& client : clients)
      if (server.shard_of_session(client.session_id()) == l) return true;
    return false;
  }

  /// Lane l's run-to-completion slice: the full serial dispatch
  /// (header scan + hash per frame — that cost is real on every lane)
  /// plus open and seal of the lane's own frames, inline on the caller.
  void run_lane(std::size_t l) {
    server.reset_replay_windows();
    server.open_batch_lane(l, burst, 0, out);
    server.seal_jobs_shard(l, jobs, seal_frames);
  }

  /// The production lane pipeline end to end.
  void run_full() {
    server.reset_replay_windows();
    server.open_batch(burst, 0, out);
    server.seal_jobs(jobs, seal_frames);
  }

  /// The pre-sharding single-threaded loop kept callable in-tree.
  void run_reference() {
    server.reset_replay_windows();
    server.open_batch_reference(burst, 0, out);
    std::size_t at = 0;
    for (const auto& job : jobs)
      at = server.seal_packet_wire_at(job.session_id, job.ip_packet,
                                      seal_frames, at);
  }
};

}  // namespace

// Args: payload bytes, IDS rule count (12 = compact set, 377 = the
// paper's community set).
static void BM_ClickChainPerPacket(benchmark::State& state) {
  ChainBench chain(static_cast<std::size_t>(state.range(1)));
  Rng rng(9);
  Bytes payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kBurst = click::PacketBatch::kMaxBurst;
  for (auto _ : state) {
    chain.run_per_packet(payload, kBurst);
    benchmark::DoNotOptimize(chain.accepted);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_ClickChainPerPacket)
    ->Args({64, 12})->Args({256, 12})->Args({1500, 12})
    ->Args({64, 377})->Args({1500, 377});

static void BM_ClickChainBatch(benchmark::State& state) {
  ChainBench chain(static_cast<std::size_t>(state.range(1)));
  Rng rng(9);
  Bytes payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kBurst = click::PacketBatch::kMaxBurst;
  for (auto _ : state) {
    chain.run_batch(payload, kBurst);
    benchmark::DoNotOptimize(chain.accepted);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_ClickChainBatch)
    ->Args({64, 12})->Args({256, 12})->Args({1500, 12})
    ->Args({64, 377})->Args({1500, 377});

static void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1500)->Arg(16384);

static void BM_HmacSha256(benchmark::State& state) {
  Rng rng(2);
  Bytes key = rng.bytes(32);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(1500);

static void BM_HmacSha256Precomputed(benchmark::State& state) {
  Rng rng(2);
  crypto::HmacKey key(rng.bytes(32));
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(key.mac(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256Precomputed)->Arg(1500);

static void BM_Aes128CbcEncrypt(benchmark::State& state) {
  Rng rng(3);
  auto key = crypto::make_aes_key(rng.bytes(16));
  Bytes iv = rng.bytes(16);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::aes128_cbc_encrypt(key, iv, data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes128CbcEncrypt)->Arg(256)->Arg(1500);

static void BM_AhoCorasickScan(benchmark::State& state) {
  Rng rng(4);
  idps::IdpsEngine engine(idps::generate_community_ruleset(377, rng));
  net::Packet packet = net::Packet::udp(net::Ipv4(10, 8, 0, 2),
                                        net::Ipv4(10, 0, 0, 1), 1, 2,
                                        rng.bytes(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) benchmark::DoNotOptimize(engine.inspect(packet));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AhoCorasickScan)->Arg(256)->Arg(1500)->Arg(9000);

static void BM_AcScanFlat(benchmark::State& state) {
  Rng rng(4);
  idps::AhoCorasick automaton = community_automaton();
  Bytes text = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::size_t sink = 0;
  for (auto _ : state) {
    sink += automaton.match(text, [](const idps::AcMatch&) { return true; });
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AcScanFlat)->Arg(1500)->Arg(9000);

static void BM_AcScanReference(benchmark::State& state) {
  Rng rng(4);
  idps::AhoCorasick automaton = community_automaton();
  Bytes text = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::size_t sink = 0;
  for (auto _ : state) {
    sink += automaton.match_reference(text, [](const idps::AcMatch&) { return true; });
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AcScanReference)->Arg(1500)->Arg(9000);

static void BM_ClickConfigParse(benchmark::State& state) {
  std::string config = use_case_config(UseCase::Fw);
  for (auto _ : state) benchmark::DoNotOptimize(click::parse_config(config));
}
BENCHMARK(BM_ClickConfigParse);

static void BM_ClickHotSwap(benchmark::State& state) {
  elements::ElementContext context;
  tls::SessionKeyStore store;
  context.key_store = &store;
  Rng rng(5);
  context.rulesets["community"] = idps::generate_community_ruleset(377, rng);
  auto registry = elements::make_endbox_registry(context);
  click::RouterManager manager(registry);
  std::string a = use_case_config(UseCase::Nop);
  std::string b = use_case_config(UseCase::Fw);
  if (!manager.install(a).ok()) state.SkipWithError("install failed");
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.hot_swap(flip ? a : b).ok());
    flip = !flip;
  }
}
BENCHMARK(BM_ClickHotSwap);

static void BM_VpnSeal(benchmark::State& state) {
  Rng rng(6);
  auto keys = vpn::derive_vpn_keys(1234, rng.bytes(16), rng.bytes(16));
  Bytes payload = rng.bytes(1500);
  vpn::FragmentHeader frag{1, 1, 0, 1};
  WireBuffer out;
  for (auto _ : state) {
    vpn::seal_data_body(keys, frag, payload, rng, out);
    benchmark::DoNotOptimize(out.data());
    ++frag.packet_id;
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_VpnSeal);

static void BM_VpnSealReference(benchmark::State& state) {
  Rng rng(6);
  auto keys = vpn::derive_vpn_keys(1234, rng.bytes(16), rng.bytes(16));
  Bytes payload = rng.bytes(1500);
  vpn::FragmentHeader frag{1, 1, 0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vpn::reference::seal_data_body(keys, frag, payload, rng));
    ++frag.packet_id;
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_VpnSealReference);

static void BM_VpnSealOpen(benchmark::State& state) {
  Rng rng(6);
  auto keys = vpn::derive_vpn_keys(1234, rng.bytes(16), rng.bytes(16));
  Bytes payload = rng.bytes(1500);
  vpn::FragmentHeader frag{1, 1, 0, 1};
  WireBuffer sealed;
  Bytes body;
  for (auto _ : state) {
    vpn::seal_data_body(keys, frag, payload, rng, sealed);
    body.assign(sealed.view().begin(), sealed.view().end());
    benchmark::DoNotOptimize(vpn::open_data_body(keys, std::move(body)));
    ++frag.packet_id;
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_VpnSealOpen);

static void BM_VpnSealOpenReference(benchmark::State& state) {
  Rng rng(6);
  auto keys = vpn::derive_vpn_keys(1234, rng.bytes(16), rng.bytes(16));
  Bytes payload = rng.bytes(1500);
  vpn::FragmentHeader frag{1, 1, 0, 1};
  for (auto _ : state) {
    Bytes body = vpn::reference::seal_data_body(keys, frag, payload, rng);
    benchmark::DoNotOptimize(vpn::reference::open_data_body(keys, body));
    ++frag.packet_id;
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_VpnSealOpenReference);

// Arg: session-lane count. Runs the production lane path (worker
// pool and all); the --json mode instead times lanes serially and
// reports the critical path, which is what CI gates on.
static void BM_ServerShardOpenSeal(benchmark::State& state) {
  LaneChainBench bench(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bench.run_full();
    benchmark::DoNotOptimize(bench.out.complete);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(LaneChainBench::kBurst));
}
BENCHMARK(BM_ServerShardOpenSeal)->Arg(1)->Arg(2)->Arg(4);

// PR-6: session-table churn. One step = one expiry pass + one admission
// + one touch of a random live session at a steady-state population —
// the per-packet bookkeeping the VPN server's session shards pay. New
// path: LifecycleTable fronted by the hierarchical timer wheel
// (amortised O(1) expiry per step). Reference: the naive bounded map a
// leak fix usually starts with — an unordered_map plus a periodic
// full-table sweep (every kScanInterval steps), whose amortised cost
// grows with the population instead of the expiry rate.
struct ChurnWheelBench {
  using Table = LifecycleTable<std::uint64_t, std::uint64_t>;
  Table table;
  std::uint64_t population;
  sim::Time now = 0;
  std::uint64_t next_key = 0;
  Rng rng{0x0c11e47};

  explicit ChurnWheelBench(std::uint64_t population_in)
      : table([&] {
          Table::Options options;
          options.capacity = static_cast<std::size_t>(population_in) * 2;
          options.idle_timeout = static_cast<sim::Time>(population_in);
          options.wheel.tick = 1;  // churn time is the step count
          return options;
        }()),
        population(population_in) {
    for (std::uint64_t i = 0; i < population; ++i) step();
  }

  void step() {
    ++now;
    table.expire_idle(now, [](const std::uint64_t&, std::uint64_t&&) {});
    table.insert(next_key++, std::uint64_t{now}, now);
    if (next_key > population)
      table.find_touch(
          next_key - 1 - rng.uniform(std::uint64_t{0}, population - 1), now);
  }
};

struct ChurnScanBench {
  static constexpr std::uint64_t kScanInterval = 1024;
  struct Entry {
    std::uint64_t value;
    sim::Time last_activity;
  };
  std::unordered_map<std::uint64_t, Entry> table;
  std::uint64_t population;
  sim::Time now = 0;
  std::uint64_t next_key = 0;
  Rng rng{0x0c11e47};

  explicit ChurnScanBench(std::uint64_t population_in)
      : population(population_in) {
    table.reserve(static_cast<std::size_t>(population) * 2);
    for (std::uint64_t i = 0; i < population; ++i) step();
  }

  void step() {
    ++now;
    if (now % kScanInterval == 0) {
      const sim::Time timeout = static_cast<sim::Time>(population);
      for (auto it = table.begin(); it != table.end();) {
        if (it->second.last_activity + timeout <= now)
          it = table.erase(it);
        else
          ++it;
      }
    }
    table.emplace(next_key++, Entry{static_cast<std::uint64_t>(now), now});
    if (next_key > population) {
      auto it = table.find(next_key - 1 -
                           rng.uniform(std::uint64_t{0}, population - 1));
      if (it != table.end()) it->second.last_activity = now;
    }
  }
};

// Arg: steady-state session population.
static void BM_SessionTableChurn(benchmark::State& state) {
  ChurnWheelBench bench(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    bench.step();
    benchmark::DoNotOptimize(bench.now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionTableChurn)->Arg(8192)->Arg(65536);

static void BM_SessionTableChurnFullScan(benchmark::State& state) {
  ChurnScanBench bench(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    bench.step();
    benchmark::DoNotOptimize(bench.now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionTableChurnFullScan)->Arg(8192)->Arg(65536);

// PR-7: the control-plane reliability layer on a loss-free loopback —
// one full connect cycle through ClientControlPlane (timer-wheel
// arm/cancel, backoff bookkeeping, cached-init management) against the
// raw three-message handshake it wraps. Keepalives are off so both
// sides time exactly one handshake; a ratio near 1.0 shows the retry
// machinery is free when the network behaves.
struct ControlRetryBench {
  Rng pki_rng{0x7e77a1};
  sim::Clock clock;
  sgx::AttestationService ias{pki_rng};
  ca::CertificateAuthority authority{pki_rng, ias};
  sgx::SgxPlatform platform{"bench-retry", pki_rng, clock};
  sgx::Enclave enclave{platform, "endbox-v1", sgx::SgxMode::Hardware};
  crypto::RsaKeyPair enclave_key = crypto::rsa_generate(pki_rng);
  ca::Certificate certificate;

  Rng server_rng{0xbe7717};
  vpn::VpnServer server;
  Rng client_rng{0x301711};
  std::optional<vpn::VpnClientSession> client;
  std::unique_ptr<vpn::ClientControlPlane> cp;
  Bytes pending_reply;
  sim::Time now = 0;

  ControlRetryBench()
      : server(server_rng, authority.public_key(), [] {
          vpn::VpnServerConfig config;
          config.handshake_dedupe_horizon = 0;  // every cycle mints fresh
          return config;
        }()) {
    ias.register_platform("bench-retry", platform.attestation_key().pub);
    authority.allow_measurement(enclave.measurement());
    sgx::QuotingEnclave qe(platform);
    auto quote = qe.quote(enclave.create_report(
        sgx::bind_report_data(enclave_key.pub.serialize())));
    auto response = authority.provision(quote->serialize(), enclave_key.pub);
    if (!response.ok()) std::abort();
    certificate = response->certificate;
    client.emplace(client_rng, certificate, enclave_key, server.public_key(),
                   vpn::VpnClientConfig{});

    vpn::ControlPlaneConfig config;
    config.keepalive_interval = 0;   // isolate the connect cycle
    config.retry_initial = sim::kMillisecond;  // orphan drains in 2 ticks
    vpn::ClientControlPlane::Hooks hooks;
    hooks.make_init = [this]() -> Result<Bytes> {
      return client->create_handshake_init().serialize();
    };
    hooks.on_reply = [this](ByteView wire) -> Status {
      auto parsed = vpn::WireMessage::parse(wire);
      if (!parsed.ok()) return err(parsed.error());
      return client->process_handshake_reply(*parsed);
    };
    hooks.send = [this](ByteView wire, sim::Time t) {
      auto event = server.handle(wire, t);
      if (!event.ok()) return;
      if (auto* done = std::get_if<vpn::VpnServer::HandshakeDone>(&*event))
        pending_reply = done->reply_wire;
    };
    cp = std::make_unique<vpn::ClientControlPlane>(config, std::move(hooks));
  }

  /// One connect cycle through the reliability layer (loopback reply,
  /// delivered after start() returns, as a transport would).
  void cycle_control_plane() {
    now += 2 * sim::kMillisecond;
    cp->advance(now);  // drain the previous cycle's orphaned retry timer
    if (!cp->start(now).ok()) std::abort();
    if (!cp->deliver(pending_reply, now).ok()) std::abort();
    if (!cp->established()) std::abort();
    server.close_session(client->session_id());
  }

  /// The raw handshake the layer wraps.
  void cycle_direct() {
    auto init = client->create_handshake_init();
    auto event = server.handle(init.serialize(), now);
    if (!event.ok()) std::abort();
    auto reply = vpn::WireMessage::parse(
        std::get<vpn::VpnServer::HandshakeDone>(*event).reply_wire);
    if (!reply.ok() || !client->process_handshake_reply(*reply).ok())
      std::abort();
    server.close_session(client->session_id());
  }
};

static void BM_ControlPlaneConnectCycle(benchmark::State& state) {
  ControlRetryBench bench;
  for (auto _ : state) {
    bench.cycle_control_plane();
    benchmark::DoNotOptimize(bench.now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControlPlaneConnectCycle);

static void BM_DirectConnectCycle(benchmark::State& state) {
  ControlRetryBench bench;
  for (auto _ : state) {
    bench.cycle_direct();
    benchmark::DoNotOptimize(bench.now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectConnectCycle);

// PR-7: admission churn at a full table. The LRU side admits by
// evicting the idle-longest unpinned entry (clock-hand victim scan +
// slot recycle — the VPN server's admission-storm policy); the manual
// side is the exact-oldest recycle a caller would hand-roll (erase the
// tracked oldest key, then insert).
struct LruChurnBench {
  using Table = LifecycleTable<std::uint64_t, std::uint64_t>;
  static constexpr std::size_t kCapacity = 4096;
  Table lru;
  Table manual;
  std::uint64_t next_lru_key = 0;
  std::uint64_t next_manual_key = 0;
  sim::Time now = 0;

  LruChurnBench()
      : lru([] {
          Table::Options options;
          options.capacity = kCapacity;
          options.eviction = EvictionPolicy::EvictIdleLongest;
          return options;
        }()),
        manual([] {
          Table::Options options;
          options.capacity = kCapacity;
          return options;
        }()) {
    for (std::size_t i = 0; i < kCapacity; ++i) {
      ++now;
      lru.insert(next_lru_key++, 0, now);
      manual.insert(next_manual_key++, 0, now);
    }
  }

  void step_lru() {
    ++now;
    if (!lru.insert(next_lru_key++, 0, now)) std::abort();
  }
  void step_manual() {
    ++now;
    manual.erase(next_manual_key - kCapacity);
    if (!manual.insert(next_manual_key++, 0, now)) std::abort();
  }
};

static void BM_LruEvictionChurn(benchmark::State& state) {
  LruChurnBench bench;
  for (auto _ : state) {
    bench.step_lru();
    benchmark::DoNotOptimize(bench.now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruEvictionChurn);

// ---------------------------------------------------------------------------
// --json mode: deterministic before/after summary for the bench trajectory.
// ---------------------------------------------------------------------------
namespace {

// Thread CPU time: immune to scheduler preemption and CPU steal on
// shared/CI machines, which otherwise swamp before/after ratios.
double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// One timed chunk: runs `op` for at least `min_ms` of CPU time and
// returns ns per op.
template <typename Op>
double time_chunk_ns(Op&& op, double min_ms) {
  std::uint64_t iters = 0;
  double start = thread_cpu_ns();
  double elapsed_ns = 0;
  do {
    for (int i = 0; i < 16; ++i) op();
    iters += 16;
    elapsed_ns = thread_cpu_ns() - start;
  } while (elapsed_ns < min_ms * 1e6);
  return elapsed_ns / static_cast<double>(iters);
}

// Runs `op` repeatedly for at least `min_ms` of CPU time after a
// warm-up and returns ns per operation — minimum over 3 repetitions,
// so transient noise inflates neither path of a comparison.
template <typename Op>
double time_ns_per_op(Op&& op, double min_ms = 60.0) {
  for (int i = 0; i < 8; ++i) op();  // warm-up: fault in tables, size scratch
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    double ns = time_chunk_ns(op, min_ms);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

// Measures an A/B pair with interleaved chunks (A,B,A,B,...), so slow
// drift — frequency scaling, thermal throttling, a noisy neighbour on
// a shared core — hits both sides alike instead of biasing the ratio.
// Returns the per-op minimum of each side.
template <typename OpA, typename OpB>
std::pair<double, double> time_pair_ns_per_op(OpA&& op_a, OpB&& op_b,
                                              double min_ms = 25.0) {
  for (int i = 0; i < 8; ++i) {
    op_a();
    op_b();
  }
  double best_a = 0, best_b = 0;
  for (int rep = 0; rep < 11; ++rep) {
    double a = time_chunk_ns(op_a, min_ms);
    double b = time_chunk_ns(op_b, min_ms);
    if (rep == 0 || a < best_a) best_a = a;
    if (rep == 0 || b < best_b) best_b = b;
  }
  return {best_a, best_b};
}

/// Benign HTTP text for the prefilter text rows: a request or status
/// line and headers, then English prose with the odd number — the
/// bytes community contents are made of, none of the contents
/// themselves. Generated here so the rows need no corpus on disk.
Bytes http_text(Rng& rng, std::size_t length) {
  static const char* kWords[] = {
      "the",      "of",      "and",     "to",      "in",     "is",
      "that",     "for",     "it",      "as",      "was",    "with",
      "be",       "by",      "on",      "not",     "this",   "are",
      "which",    "from",    "or",      "have",    "an",     "they",
      "people",   "year",    "between", "quality", "public", "document",
      "security", "network", "service", "account", "office", "server"};
  static const char* kHeads[] = {
      "GET /index.html HTTP/1.1\r\nHost: www.example.org\r\n"
      "User-Agent: Mozilla/5.0 (X11; Linux x86_64)\r\nAccept: text/html\r\n"
      "Accept-Language: en-US,en;q=0.5\r\nConnection: keep-alive\r\n\r\n",
      "HTTP/1.1 200 OK\r\nDate: Mon, 12 Oct 2026 10:20:30 GMT\r\n"
      "Content-Type: text/html; charset=utf-8\r\nCache-Control: max-age=600"
      "\r\n\r\n<html><head><title>Report</title></head><body><p>"};
  std::string text = kHeads[rng.uniform(0, std::size(kHeads) - 1)];
  while (text.size() < length) {
    text += kWords[rng.uniform(0, std::size(kWords) - 1)];
    if (rng.uniform(0, 9) == 0) text += std::to_string(rng.uniform(0, 2026));
    text += rng.uniform(0, 11) == 0 ? ". " : " ";
  }
  text.resize(length);
  return to_bytes(text);
}

struct Comparison {
  const char* name;
  double ns_new;
  double ns_ref;
  std::size_t bytes = 0;  ///< bytes per op for mb_per_s; 0 = the payload size
  double speedup() const { return ns_ref / ns_new; }
};

// new = the hardware kernel (AES-NI / SHA-NI), ref = the portable one,
// each pinned through crypto/kernel.hpp around its timed op. A row is
// emitted only when its hardware kernel can run here, so a CPU without
// SHA-NI records no HMAC rows rather than a 1.0x that fails the gate.
void crypto_kernel_rows(std::vector<Comparison>& rows) {
  using crypto::CryptoKernel;
  constexpr std::size_t kTunnelBytes = 1400;
  Rng rng(12);
  const crypto::AesKey key = crypto::make_aes_key(rng.bytes(16));
  crypto::Aes128 aes(key);
  Bytes iv = rng.bytes(16);
  Bytes buf = rng.bytes(crypto::cbc_padded_size(kTunnelBytes));
  Bytes ct = crypto::aes128_cbc_encrypt(key, iv, rng.bytes(kTunnelBytes));
  Bytes scratch = ct;
  auto aes_pair = [&](auto&& op) {
    auto pinned = [&](CryptoKernel kernel) {
      return [&, kernel] {
        crypto::pin_aes_kernel(kernel);
        op();
      };
    };
    return time_pair_ns_per_op(pinned(CryptoKernel::Hardware),
                               pinned(CryptoKernel::Portable));
  };
  const CryptoKernel aes_prev = crypto::aes_kernel();
  if (crypto::pin_aes_kernel(CryptoKernel::Hardware)) {
    auto [enc_hw, enc_sw] = aes_pair([&] {
      crypto::aes128_cbc_encrypt_inplace(aes, iv.data(), buf, kTunnelBytes);
      benchmark::DoNotOptimize(buf.data());
    });
    // Decrypt + padding check of one ciphertext, restored by a copy
    // each op on both sides.
    auto [dec_hw, dec_sw] = aes_pair([&] {
      std::memcpy(scratch.data(), ct.data(), ct.size());
      if (!crypto::aes128_cbc_decrypt_inplace(aes, iv.data(), scratch).ok()) std::abort();
    });
    rows.push_back({"aes_cbc_encrypt_1400B", enc_hw, enc_sw, kTunnelBytes});
    rows.push_back({"aes_cbc_decrypt_1400B", dec_hw, dec_sw, kTunnelBytes});

    // Multi-buffer CBC-encrypt: one aes128_cbc_encrypt_multi over four
    // 1400 B buffers under four keys (new) vs four serial hardware
    // aes128_cbc_encrypt_inplace calls (ref), both on AES-NI.
    crypto::pin_aes_kernel(CryptoKernel::Hardware);
    constexpr std::size_t kJobs = 4;
    std::vector<crypto::Aes128> keys;
    std::vector<Bytes> ivs, bufs;
    std::vector<crypto::CbcJob> jobs;
    for (std::size_t j = 0; j < kJobs; ++j) {
      keys.emplace_back(crypto::make_aes_key(rng.bytes(16)));
      ivs.push_back(rng.bytes(16));
      bufs.push_back(rng.bytes(crypto::cbc_padded_size(kTunnelBytes)));
    }
    for (std::size_t j = 0; j < kJobs; ++j)
      jobs.push_back({&keys[j], ivs[j].data(), bufs[j], kTunnelBytes});
    auto [multi_ns, serial_ns] = time_pair_ns_per_op(
        [&] {
          crypto::aes128_cbc_encrypt_multi(jobs);
          benchmark::DoNotOptimize(bufs[0].data());
        },
        [&] {
          for (std::size_t j = 0; j < kJobs; ++j)
            crypto::aes128_cbc_encrypt_inplace(keys[j], ivs[j].data(), bufs[j],
                                               kTunnelBytes);
          benchmark::DoNotOptimize(bufs[0].data());
        });
    rows.push_back({"aes_cbc_encrypt_multi_4x1400B", multi_ns, serial_ns,
                    kJobs * kTunnelBytes});
  }
  crypto::pin_aes_kernel(aes_prev);

  const CryptoKernel sha_prev = crypto::sha256_kernel();
  if (crypto::pin_sha256_kernel(CryptoKernel::Hardware)) {
    crypto::HmacKey mac_key(rng.bytes(32));
    Bytes data = rng.bytes(kTunnelBytes);
    auto hmac_pair = [&](std::size_t len) {
      auto pinned = [&, len](CryptoKernel kernel) {
        return [&, len, kernel] {
          crypto::pin_sha256_kernel(kernel);
          benchmark::DoNotOptimize(mac_key.mac(ByteView(data.data(), len)));
        };
      };
      return time_pair_ns_per_op(pinned(CryptoKernel::Hardware),
                                 pinned(CryptoKernel::Portable));
    };
    auto [mac64_hw, mac64_sw] = hmac_pair(64);
    auto [mac1400_hw, mac1400_sw] = hmac_pair(kTunnelBytes);
    rows.push_back({"hmac_sha256_64B", mac64_hw, mac64_sw, 64});
    rows.push_back({"hmac_sha256_1400B", mac1400_hw, mac1400_sw, kTunnelBytes});
  }
  crypto::pin_sha256_kernel(sha_prev);
}

int run_json_mode(const std::string& path) {
  // Spin ~200ms so a power-managed core reaches its steady frequency
  // before the first comparison (the first pair otherwise measures the
  // ramp, not the code).
  double spin_until = thread_cpu_ns() + 2e8;
  std::uint64_t spin_sink = 0;
  while (thread_cpu_ns() < spin_until) {
    ++spin_sink;
    benchmark::DoNotOptimize(spin_sink);
  }

  constexpr std::size_t kPayload = 1500;
  Rng rng(6);
  auto keys = vpn::derive_vpn_keys(1234, rng.bytes(16), rng.bytes(16));
  Bytes payload = rng.bytes(kPayload);
  vpn::FragmentHeader frag{1, 1, 0, 1};

  WireBuffer sealed;
  Bytes body;
  double seal_new = time_ns_per_op([&] {
    vpn::seal_data_body(keys, frag, payload, rng, sealed);
    ++frag.packet_id;
  });
  double seal_ref = time_ns_per_op([&] {
    benchmark::DoNotOptimize(
        vpn::reference::seal_data_body(keys, frag, payload, rng));
    ++frag.packet_id;
  });

  vpn::seal_data_body(keys, frag, payload, rng, sealed);
  Bytes sealed_template(sealed.view().begin(), sealed.view().end());
  double open_new = time_ns_per_op([&] {
    body.assign(sealed_template.begin(), sealed_template.end());
    auto opened = vpn::open_data_body(keys, std::move(body));
    if (!opened.ok()) std::abort();
    body = std::move(opened->payload);
  });
  double open_ref = time_ns_per_op([&] {
    auto opened = vpn::reference::open_data_body(keys, sealed_template);
    if (!opened.ok()) std::abort();
  });

  idps::AhoCorasick automaton = community_automaton();
  Bytes text = rng.bytes(kPayload);
  auto count_all = [](const idps::AcMatch&) { return true; };
  double ac_new = time_ns_per_op([&] { automaton.match(text, count_all); });
  double ac_ref =
      time_ns_per_op([&] { automaton.match_reference(text, count_all); });

  // PR-3: the representative element chain, 64-packet bursts, batched
  // (PacketBatch + pooled buffers) vs the per-packet path kept callable
  // as the honest baseline. Reported per packet. The compact-ruleset
  // rows isolate the graph traversal batching amortises; the community
  // rows show the floor when Aho-Corasick scanning dominates.
  constexpr std::size_t kBurst = click::PacketBatch::kMaxBurst;
  auto chain_pair = [&](std::size_t payload_size, std::size_t ids_rules,
                        double& ns_batch, double& ns_single) {
    ChainBench chain(ids_rules);
    Rng payload_rng(9);
    Bytes payload = payload_rng.bytes(payload_size);
    auto [batch_ns, single_ns] =
        time_pair_ns_per_op([&] { chain.run_batch(payload, kBurst); },
                            [&] { chain.run_per_packet(payload, kBurst); });
    ns_batch = batch_ns / static_cast<double>(kBurst);
    ns_single = single_ns / static_cast<double>(kBurst);
  };
  double chain64_batch = 0, chain64_single = 0;
  double chain256_batch = 0, chain256_single = 0;
  double chain1500_batch = 0, chain1500_single = 0;
  double community64_batch = 0, community64_single = 0;
  double community1500_batch = 0, community1500_single = 0;
  chain_pair(64, 12, chain64_batch, chain64_single);
  chain_pair(256, 12, chain256_batch, chain256_single);
  chain_pair(1500, 12, chain1500_batch, chain1500_single);
  chain_pair(64, 377, community64_batch, community64_single);
  chain_pair(1500, 377, community1500_batch, community1500_single);

  // PR-4: the sharded chain. Each shard's share of the canonical
  // 64-packet/32-flow burst is timed serially (thread CPU time); the
  // burst's cost at N shards is its critical path — the slowest shard —
  // which is the completion time when every shard owns a core. Reported
  // per packet of the whole burst, so the N-shard rows read as
  // aggregate throughput.
  constexpr std::size_t kShardBurst = ShardedChainBench::kBurst;
  Rng shard_rng(9);
  Bytes shard_payload = shard_rng.bytes(kPayload);
  auto sharded_burst_ns = [&](std::size_t shards) {
    ShardedChainBench bench(shards);
    double critical = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      if (bench.shard_packets(s) == 0) continue;
      double ns = time_ns_per_op([&] { bench.run_shard(s, shard_payload); });
      critical = std::max(critical, ns);
    }
    return critical;
  };
  double sharded1 = sharded_burst_ns(1) / static_cast<double>(kShardBurst);
  double sharded2 = sharded_burst_ns(2) / static_cast<double>(kShardBurst);
  double sharded4 = sharded_burst_ns(4) / static_cast<double>(kShardBurst);

  // Single-shard overhead row: the 1-shard ShardedRouter against the
  // plain Router driven identically (same flows, pool, payload) —
  // interleaved so the ratio isolates the sharding layer's overhead.
  ChainBench plain_chain(377);
  ShardedChainBench one_shard(1);
  auto [one_shard_ns, plain_ns] = time_pair_ns_per_op(
      [&] { one_shard.run_shard(0, shard_payload); },
      [&] { plain_chain.run_batch(shard_payload, kShardBurst); });

  // PR-6: session-table churn at steady state — timer-wheel lifecycle
  // table vs the periodic full-scan map, interleaved per population.
  auto churn_pair = [&](std::uint64_t population, double& ns_wheel,
                        double& ns_scan) {
    ChurnWheelBench wheel(population);
    ChurnScanBench scan(population);
    auto [w, s] =
        time_pair_ns_per_op([&] { wheel.step(); }, [&] { scan.step(); });
    ns_wheel = w;
    ns_scan = s;
  };
  double churn8k_wheel = 0, churn8k_scan = 0;
  double churn64k_wheel = 0, churn64k_scan = 0;
  churn_pair(8192, churn8k_wheel, churn8k_scan);
  churn_pair(65536, churn64k_wheel, churn64k_scan);

  // PR-7: the robustness layer — a loopback connect cycle through the
  // ClientControlPlane vs the raw handshake it wraps, and LRU-eviction
  // admission churn vs an exact-oldest manual recycle.
  ControlRetryBench retry;
  auto [retry_cp_ns, retry_direct_ns] = time_pair_ns_per_op(
      [&] { retry.cycle_control_plane(); }, [&] { retry.cycle_direct(); });
  LruChurnBench lru_churn;
  auto [lru_ns, manual_ns] = time_pair_ns_per_op(
      [&] { lru_churn.step_lru(); }, [&] { lru_churn.step_manual(); });

  // The session lanes. Each lane's slice of the balanced
  // 64-frame open+seal burst — serial dispatch included — is timed
  // inline; the burst is costed at the slowest lane (one core per
  // lane). The 1-lane row compares the production lane path, end to
  // end, against the pre-sharding single-threaded loop kept callable
  // in-tree.
  auto lane_burst_ns = [&](std::size_t lanes) {
    LaneChainBench bench(lanes);
    double critical = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!bench.lane_has_work(l)) continue;
      double ns = time_ns_per_op([&] { bench.run_lane(l); });
      critical = std::max(critical, ns);
    }
    return critical;
  };
  constexpr double kLaneBurst = static_cast<double>(LaneChainBench::kBurst);
  double lane1 = lane_burst_ns(1);
  double lane2 = lane_burst_ns(2);
  double lane4 = lane_burst_ns(4);
  double lane8 = lane_burst_ns(8);
  LaneChainBench lane_server(1), prepr_server(1);
  auto [server_lane_ns, server_prepr_ns] = time_pair_ns_per_op(
      [&] { lane_server.run_full(); }, [&] { prepr_server.run_reference(); });

  // PR-9: stream-aware inspection. One op scans the whole kPayload
  // stream delivered as split-byte segments against the 377-rule
  // community set: new = the resumable walk (automaton state and
  // content hits persist across segments, so straddled patterns are
  // caught), ref = the per-packet rescan it replaces (every segment
  // walked from the root — less bookkeeping, blind to split
  // patterns). The small-split rows price the per-segment overhead of
  // carrying state; at wire-typical segments the two converge.
  Rng stream_rng(4);
  auto stream_rules = idps::generate_community_ruleset(377, stream_rng);
  net::Packet stream_probe = net::Packet::udp(
      net::Ipv4(10, 8, 0, 2), net::Ipv4(10, 0, 0, 1), 1, 2, {});
  auto stream_pair = [&](std::size_t split, double& ns_resume,
                         double& ns_rescan) {
    idps::IdpsEngine resume_engine(stream_rules);
    idps::IdpsEngine rescan_engine(stream_rules);
    idps::IdpsEngine::InspectScratch scratch;
    idps::StreamMatchState state;
    auto [r, p] = time_pair_ns_per_op(
        [&] {
          state = idps::StreamMatchState{};
          for (std::size_t pos = 0; pos < text.size(); pos += split) {
            std::size_t len = std::min(split, text.size() - pos);
            resume_engine.inspect_stream(
                stream_probe, ByteView(text.data() + pos, len), state, scratch);
          }
        },
        [&] {
          for (std::size_t pos = 0; pos < text.size(); pos += split) {
            std::size_t len = std::min(split, text.size() - pos);
            rescan_engine.inspect(stream_probe,
                                  ByteView(text.data() + pos, len), scratch);
          }
        });
    ns_resume = r;
    ns_rescan = p;
  };
  double stream2_resume = 0, stream2_rescan = 0;
  double stream8_resume = 0, stream8_rescan = 0;
  double stream64_resume = 0, stream64_rescan = 0;
  stream_pair(2, stream2_resume, stream2_rescan);
  stream_pair(8, stream8_resume, stream8_rescan);
  stream_pair(64, stream64_resume, stream64_rescan);

  // PR-10: the two-tier scanning engine. Clean rows scan a benign
  // random payload — the common case — through the prefiltered
  // inspect vs the full automaton walk kept callable as
  // inspect_reference: the prefilter's SIMD literal screen clears the
  // payload without entering the automaton, so the ratio is the tier-1
  // skip-rate payoff per packet size. The dirty row plants community
  // contents through the payload so tier 2 confirms real candidate
  // windows — the ratio shows the prefilter still pays when some
  // windows need walking. The stream row re-runs the 8B-split stream
  // scan through the tail-carry prefilter path vs the resumable
  // reference walk. The memcpy row prices the clean 1500B scan against
  // a plain copy of the same bytes (new = the scan, ref = the copy, so
  // the speedup is memcpy/scan — it approaches 1.0 as the scan
  // approaches the memory floor, and improving the scan raises it).
  idps::IdpsEngine pf_engine(stream_rules);
  idps::IdpsEngine pf_ref_engine(stream_rules);
  idps::IdpsEngine::InspectScratch pf_scratch, pf_ref_scratch;
  Rng pf_rng(12);
  auto prefilter_pair = [&](ByteView payload, double& ns_new,
                            double& ns_ref) {
    auto [n, r] = time_pair_ns_per_op(
        [&] {
          benchmark::DoNotOptimize(
              pf_engine.inspect(stream_probe, payload, pf_scratch));
        },
        [&] {
          benchmark::DoNotOptimize(pf_ref_engine.inspect_reference(
              stream_probe, payload, pf_ref_scratch));
        });
    ns_new = n;
    ns_ref = r;
  };
  Bytes clean64 = pf_rng.bytes(64);
  Bytes clean512 = pf_rng.bytes(512);
  Bytes clean1500 = pf_rng.bytes(kPayload);
  Bytes dirty1500 = pf_rng.bytes(kPayload);
  for (std::size_t at = 100; at + 64 < dirty1500.size(); at += 350) {
    const Bytes& planted =
        stream_rules[(at / 350) % stream_rules.size()].contents[0].bytes;
    std::copy(planted.begin(), planted.end(),
              dirty1500.begin() + static_cast<std::ptrdiff_t>(at));
  }
  double pf_clean64 = 0, pf_clean64_ref = 0;
  double pf_clean512 = 0, pf_clean512_ref = 0;
  double pf_clean1500 = 0, pf_clean1500_ref = 0;
  double pf_dirty1500 = 0, pf_dirty1500_ref = 0;
  prefilter_pair(clean64, pf_clean64, pf_clean64_ref);
  prefilter_pair(clean512, pf_clean512, pf_clean512_ref);
  prefilter_pair(clean1500, pf_clean1500, pf_clean1500_ref);
  prefilter_pair(dirty1500, pf_dirty1500, pf_dirty1500_ref);

  // Text rows: the same pair on benign HTTP text, where nibble
  // candidates are frequent and only the exact fragment confirm keeps
  // tier 2 idle.
  Bytes text512 = http_text(pf_rng, 512);
  Bytes text1500 = http_text(pf_rng, 1500);
  double pf_text512 = 0, pf_text512_ref = 0;
  double pf_text1500 = 0, pf_text1500_ref = 0;
  prefilter_pair(text512, pf_text512, pf_text512_ref);
  prefilter_pair(text1500, pf_text1500, pf_text1500_ref);

  Bytes memcpy_dst(kPayload);
  auto [text_memcpy_ns, pf_text1500_again] = time_pair_ns_per_op(
      [&] {
        std::memcpy(memcpy_dst.data(), text1500.data(), text1500.size());
        benchmark::DoNotOptimize(memcpy_dst.data());
      },
      [&] {
        benchmark::DoNotOptimize(
            pf_engine.inspect(stream_probe, text1500, pf_scratch));
      });
  auto [memcpy_ns, pf_clean1500_again] = time_pair_ns_per_op(
      [&] {
        std::memcpy(memcpy_dst.data(), clean1500.data(), clean1500.size());
        benchmark::DoNotOptimize(memcpy_dst.data());
      },
      [&] {
        benchmark::DoNotOptimize(
            pf_engine.inspect(stream_probe, clean1500, pf_scratch));
      });

  double stream_pf8 = 0, stream_pf8_ref = 0;
  {
    idps::IdpsEngine tail_engine(stream_rules);
    idps::IdpsEngine resume_engine(stream_rules);
    idps::IdpsEngine::InspectScratch scratch;
    idps::StreamMatchState state;
    auto scan_stream = [&](auto&& step) {
      state = idps::StreamMatchState{};
      for (std::size_t pos = 0; pos < clean1500.size(); pos += 8) {
        std::size_t len = std::min<std::size_t>(8, clean1500.size() - pos);
        step(ByteView(clean1500.data() + pos, len));
      }
    };
    auto [t, r] = time_pair_ns_per_op(
        [&] {
          scan_stream([&](ByteView chunk) {
            tail_engine.inspect_stream(stream_probe, chunk, state, scratch);
          });
        },
        [&] {
          scan_stream([&](ByteView chunk) {
            resume_engine.inspect_stream_reference(stream_probe, chunk, state,
                                                   scratch);
          });
        });
    stream_pf8 = t;
    stream_pf8_ref = r;
  }

  std::vector<Comparison> comparisons = {
      {"seal_data_1500B", seal_new, seal_ref},
      {"open_data_1500B", open_new, open_ref},
      {"ac_scan_1500B", ac_new, ac_ref},
      {"click_chain_64B_burst64", chain64_batch, chain64_single},
      {"click_chain_256B_burst64", chain256_batch, chain256_single},
      {"click_chain_1500B_burst64", chain1500_batch, chain1500_single},
      {"click_chain_community_64B_burst64", community64_batch, community64_single},
      {"click_chain_community_1500B_burst64", community1500_batch,
       community1500_single},
      // new = N-shard critical path, ref = the 1-shard burst: speedup is
      // the aggregate-throughput gain of sharding.
      {"sharded_chain_community_1500B_burst64_2shards", sharded2, sharded1},
      {"sharded_chain_community_1500B_burst64_4shards", sharded4, sharded1},
      // new = 1-shard ShardedRouter, ref = plain Router: speedup ~1.0
      // shows the sharding layer costs nothing when not sharded.
      {"sharded_chain_1shard_vs_plain_1500B_burst64",
       one_shard_ns / static_cast<double>(kShardBurst),
       plain_ns / static_cast<double>(kShardBurst)},
      // new = the production 1-lane path end to end, ref = the
      // pre-sharding single-threaded loop: speedup ~1.0 shows lane
      // dispatch costs nothing when not parallel.
      {"server_shard_1shard_vs_prepr", server_lane_ns / kLaneBurst,
       server_prepr_ns / kLaneBurst},
      // new = LifecycleTable + timer wheel, ref = unordered_map with a
      // periodic full-table expiry scan, per churn step (expiry pass +
      // admission + touch) at a steady-state session population.
      {"session_table_churn_8k", churn8k_wheel, churn8k_scan},
      {"session_table_churn_64k", churn64k_wheel, churn64k_scan},
      // new = one connect cycle through the ClientControlPlane (timers
      // + backoff bookkeeping), ref = the raw three-message handshake:
      // speedup ~1.0 shows retry reliability is free on a clean link.
      {"control_plane_connect_cycle", retry_cp_ns, retry_direct_ns},
      // new = LRU admission into a full table (clock-hand victim scan
      // + recycle), ref = exact-oldest erase+insert by hand.
      {"lru_eviction_churn_4k", lru_ns, manual_ns},
      // new = N-lane critical path of the run-to-completion open+seal
      // burst, ref = the 1-lane burst: speedup is the aggregate gain
      // of the lane pipeline, serial dispatch charged on every lane.
      {"lane_chain_open_seal_2lanes", lane2 / kLaneBurst, lane1 / kLaneBurst},
      {"lane_chain_open_seal_4lanes", lane4 / kLaneBurst, lane1 / kLaneBurst},
      {"lane_chain_open_seal_8lanes", lane8 / kLaneBurst, lane1 / kLaneBurst},
      // new = resumable stream scan of one 1500B stream in split-byte
      // segments, ref = per-packet rescan of the same segments.
      // Speedup near 1.0 means cross-segment correctness is close to
      // free; the ref path cannot see straddled patterns at all.
      {"stream_scan_resume_2B_split", stream2_resume, stream2_rescan},
      {"stream_scan_resume_8B_split", stream8_resume, stream8_rescan},
      {"stream_scan_resume_64B_split", stream64_resume, stream64_rescan},
      // new = two-tier prefiltered inspect, ref = the full automaton
      // walk (inspect_reference). Clean payloads never enter the
      // automaton; the dirty row confirms planted candidate windows.
      {"prefilter_clean_64B", pf_clean64, pf_clean64_ref},
      {"prefilter_clean_512B", pf_clean512, pf_clean512_ref},
      {"prefilter_clean_1500B", pf_clean1500, pf_clean1500_ref},
      {"prefilter_dirty_1500B", pf_dirty1500, pf_dirty1500_ref},
      // new = the clean prefiltered 1500B scan, ref = memcpy of the
      // same bytes: speedup climbs toward 1.0 as the scan approaches
      // the memory floor.
      {"prefilter_clean_1500B_vs_memcpy", pf_clean1500_again, memcpy_ns},
      // new = tail-carry prefiltered stream scan of one 1500B clean
      // stream in 8B chunks, ref = the resumable full walk.
      {"stream_prefilter_8B_split", stream_pf8, stream_pf8_ref},
      // The text rows: two-tier inspect vs the full walk on benign
      // HTTP text, and the 1500B text scan vs memcpy of it.
      {"prefilter_text_http_512B", pf_text512, pf_text512_ref, 512},
      {"prefilter_text_http_1500B", pf_text1500, pf_text1500_ref, 1500},
      {"prefilter_text_1500B_vs_memcpy", pf_text1500_again, text_memcpy_ns,
       1500},
  };
  crypto_kernel_rows(comparisons);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"pr\": 13,\n  \"payload_bytes\": %zu,\n", kPayload);
  std::fprintf(f,
               "  \"note\": \"ref = pre-PR implementation kept callable "
               "in-tree; click_chain rows are ns/packet for 64-packet bursts "
               "(batched vs per-packet); sharded_chain rows "
               "are critical-path ns/packet for 64-packet bursts, each shard "
               "timed serially and the burst costed at the slowest shard (one "
               "core per shard, the virtual-time model); "
               "server_shard_1shard_vs_prepr is the 1-lane open_batch + "
               "seal_jobs burst over 16 sessions vs the pre-sharding loop; "
               "session_table_churn rows are ns per churn step (expiry pass + "
               "admission + touch) at a steady-state population, timer-wheel "
               "LifecycleTable vs an unordered_map with a periodic full-table "
               "expiry scan (mb_per_s is meaningless for these rows); "
               "control_plane_connect_cycle is one loopback connect through "
               "the ClientControlPlane vs the raw handshake; "
               "lru_eviction_churn_4k is one at-capacity admission, clock-hand "
               "LRU eviction vs exact-oldest manual recycle; lane_chain rows "
               "are critical-path ns/packet of the run-to-completion lane "
               "pipeline's 64-frame open+seal burst (each lane timed serially, "
               "dispatch included, burst costed at the slowest lane, sessions "
               "balanced across residue classes); stream_scan_resume rows "
               "scan one 1500B stream "
               "delivered as N-byte segments, resumable Aho-Corasick walk "
               "(state persists across segments, straddles caught) vs the "
               "per-packet rescan it replaces (blind to split patterns); "
               "prefilter rows scan one payload against the 377-rule "
               "community set, two-tier SIMD literal prefilter + "
               "candidate-window confirm vs the full automaton walk "
               "(clean = random bytes the rules never match, dirty = "
               "community contents planted every ~350B); "
               "prefilter_clean_1500B_vs_memcpy prices the clean scan "
               "against a plain copy of the same bytes (speedup -> 1.0 at "
               "the memory floor); stream_prefilter_8B_split is the "
               "tail-carry prefiltered stream path vs the resumable full "
               "walk on a clean 1500B stream in 8B chunks; "
               "prefilter_text_http rows are the same pair on benign HTTP "
               "request/response text generated in-file, and "
               "prefilter_text_1500B_vs_memcpy the 1500B text scan vs a copy "
               "of it; aes_cbc and "
               "hmac_sha256 rows time one tunnel-sized buffer (or a 64B "
               "MAC) on the hardware kernel (AES-NI, SHA-NI) vs the "
               "portable T-table / scalar kernel, and are recorded only on "
               "CPUs that have the instructions\",\n");
  std::fprintf(f, "  \"results\": {\n");
  for (std::size_t i = 0; i < std::size(comparisons); ++i) {
    const Comparison& c = comparisons[i];
    const double bytes = static_cast<double>(c.bytes ? c.bytes : kPayload);
    double mbps_new = bytes * 1e3 / c.ns_new;
    double mbps_ref = bytes * 1e3 / c.ns_ref;
    std::fprintf(f,
                 "    \"%s\": {\"ns_per_op\": %.1f, \"ns_per_op_ref\": %.1f, "
                 "\"mb_per_s\": %.1f, \"mb_per_s_ref\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 c.name, c.ns_new, c.ns_ref, mbps_new, mbps_ref, c.speedup(),
                 i + 1 < std::size(comparisons) ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);

  for (const Comparison& c : comparisons)
    std::printf("%-45s new %9.1f ns/op   ref %9.1f ns/op   speedup %.2fx\n",
                c.name, c.ns_new, c.ns_ref, c.speedup());
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      std::string path = "BENCH_pr13.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') path = argv[i + 1];
      return run_json_mode(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
