#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "click/router.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "elements/context.hpp"
#include "vpn/session_crypto.hpp"
#include "vpn/wire.hpp"

namespace perfbench {

namespace {

namespace click = endbox::click;
namespace crypto = endbox::crypto;
namespace elements = endbox::elements;

// Frame layout of a sealed data frame (vpn/session_crypto): wire header,
// fragment header, then IV + CBC ciphertext when encrypted, then the MAC.
constexpr std::size_t kFramePrefix =
    endbox::vpn::kWireHeaderSize + endbox::vpn::kFragHeaderSize;

/// Element context as the enclave builds one: rule sets installed,
/// time sources stubbed (the benchmark never advances virtual time),
/// ToDevice discarding the verdicts.
void init_context(elements::ElementContext& context,
                  const std::vector<idps::SnortRule>& rules) {
  context.rulesets["community"] = rules;
  context.trusted_time = [] { return endbox::sim::Time{0}; };
  context.untrusted_time = [] { return endbox::sim::Time{0}; };
  context.to_device = [](net::Packet&&, bool) {};
}

/// A standalone element graph with its own context.
struct StandaloneRouter {
  elements::ElementContext context;
  click::ElementRegistry registry;
  std::unique_ptr<click::Router> router;

  StandaloneRouter(const std::string& config,
                   const std::vector<idps::SnortRule>& rules)
      : registry(elements::make_endbox_registry(context)) {
    init_context(context, rules);
    auto built = click::Router::from_config(config, registry);
    if (!built.ok()) throw std::runtime_error("replay router: " + built.error());
    router = std::move(*built);
  }
  StandaloneRouter(const StandaloneRouter&) = delete;
  StandaloneRouter& operator=(const StandaloneRouter&) = delete;

  /// Pushes one call's packets as one burst; returns the wall time.
  std::int64_t push(const CapturedCall& call) {
    click::PacketBatch batch;
    for (const net::Packet& p : call.packets) batch.push_back(net::Packet(p));
    std::int64_t start = now_ns();
    router->push_batch_to("from_device", std::move(batch));
    return now_ns() - start;
  }
};

/// Seal/open crypto of a call's frames: AES-128-CBC over the ciphertext
/// (encrypted tunnels only) and HMAC-SHA-256 over the authenticated
/// body, as the VPN data channel does it.
class CryptoReplay {
 public:
  CryptoReplay()
      : aes_(crypto::make_aes_key(Bytes(16, 0x42))), mac_(Bytes(32, 0x24)),
        buf_(64 * 1024, 0x5a), iv_(16, 0x11) {}

  static std::size_t cipher_len(std::uint32_t frame) {
    std::size_t overhead = kFramePrefix + 16 + endbox::vpn::kMacSize;
    std::size_t body = frame > overhead ? frame - overhead : 16;
    return std::max<std::size_t>(16, body / 16 * 16);
  }
  static std::size_t mac_len(std::uint32_t frame) {
    return frame > endbox::vpn::kMacSize ? frame - endbox::vpn::kMacSize : 1;
  }

  /// Returns the wall time of seal (`open` = false) or open crypto over
  /// `frames`; accumulates AES time and bytes.
  std::int64_t run(const std::vector<std::uint32_t>& frames, bool encrypt, bool open) {
    std::int64_t total = 0;
    if (encrypt) {
      std::int64_t start = now_ns();
      for (std::uint32_t f : frames) {
        std::size_t n = cipher_len(f);
        if (open) {
          // The CBC decrypt loop of aes128_cbc_decrypt_inplace, minus
          // its padding check (replayed bytes carry no valid padding).
          std::uint8_t prev[16];
          std::memcpy(prev, iv_.data(), 16);
          for (std::size_t off = 0; off < n; off += 16) {
            std::uint8_t* block = buf_.data() + off;
            std::uint8_t saved[16];
            std::memcpy(saved, block, 16);
            aes_.decrypt_block(block, block);
            for (int i = 0; i < 16; ++i) block[i] ^= prev[i];
            std::memcpy(prev, saved, 16);
          }
        } else {
          crypto::aes128_cbc_encrypt_inplace(
              aes_, iv_.data(), std::span<std::uint8_t>(buf_.data(), n), n - 16);
        }
        aes_bytes_ += n;
      }
      std::int64_t spent = now_ns() - start;
      aes_ns_ += spent;
      total += spent;
    }
    std::int64_t start = now_ns();
    for (std::uint32_t f : frames) {
      auto digest = mac_.mac(ByteView(buf_.data(), mac_len(f)));
      buf_[0] ^= digest[0];
    }
    total += now_ns() - start;
    return total;
  }

  /// HMAC cost as fixed + per-byte, least squares over the frame sizes
  /// seen (16 timed repetitions per sampled size).
  void fit_hmac(const std::vector<std::uint32_t>& sizes, double& fixed_ns,
                double& per_byte_ns) {
    double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
    std::size_t step = std::max<std::size_t>(1, sizes.size() / 256);
    for (std::size_t i = 0; i < sizes.size(); i += step) {
      std::size_t len = mac_len(sizes[i]);
      constexpr int kReps = 16;
      std::int64_t start = now_ns();
      for (int r = 0; r < kReps; ++r) buf_[0] ^= mac_.mac(ByteView(buf_.data(), len))[0];
      double ns = static_cast<double>(now_ns() - start) / kReps;
      double x = static_cast<double>(len);
      n += 1;
      sx += x;
      sy += ns;
      sxx += x * x;
      sxy += x * ns;
    }
    double denom = n * sxx - sx * sx;
    if (n < 2 || std::fabs(denom) < 1e-9) {
      per_byte_ns = 0;
      fixed_ns = n > 0 ? sy / n : 0;
      return;
    }
    per_byte_ns = (n * sxy - sx * sy) / denom;
    fixed_ns = (sy - per_byte_ns * sx) / n;
  }

  /// AES-128-CBC encrypt cost per byte over the given frame sizes, for
  /// workloads whose tunnels run integrity-only.
  void time_aes(const std::vector<std::uint32_t>& sizes) {
    run(sizes, /*encrypt=*/true, /*open=*/false);
  }

  double aes_ns_per_byte() const {
    return aes_bytes_ ? static_cast<double>(aes_ns_) / static_cast<double>(aes_bytes_) : 0;
  }

 private:
  crypto::Aes128 aes_;
  crypto::HmacKey mac_;
  Bytes buf_;
  Bytes iv_;
  std::int64_t aes_ns_ = 0;
  std::uint64_t aes_bytes_ = 0;
};

struct FlowKeyHash {
  std::size_t operator()(const net::FlowKey& k) const { return std::hash<net::FlowKey>{}(k); }
};

/// Per-packet and stream IDPS replays over one call's packets.
class IdpsReplay {
 public:
  explicit IdpsReplay(const std::vector<idps::SnortRule>& rules)
      : engine_(rules), oracle_(rules), share_engine_(rules),
        stream_engine_(rules), stream_oracle_(rules) {}

  /// inspect_batch over the call (timed), checked against the
  /// reference engine and against the verdicts fixed at generation.
  std::int64_t scan(const CapturedCall& call, bool check_verdicts,
                    std::uint64_t& mismatches) {
    ptrs_.clear();
    payloads_.clear();
    for (const net::Packet& p : call.packets) {
      ptrs_.push_back(&p);
      payloads_.push_back(p.payload);
    }
    verdicts_.assign(ptrs_.size(), {});
    std::int64_t start = now_ns();
    engine_.inspect_batch(ptrs_, payloads_, batch_, verdicts_.data());
    std::int64_t spent = now_ns() - start;
    for (std::size_t i = 0; i < ptrs_.size(); ++i) {
      idps::IdpsVerdict ref = oracle_.inspect_reference(*ptrs_[i], payloads_[i], scratch_);
      if (ref.matched != verdicts_[i].matched || ref.drop != verdicts_[i].drop)
        ++mismatches;
      if (check_verdicts && verdicts_[i].drop != static_cast<bool>(call.drop[i]))
        ++mismatches;
      std::uint64_t before = share_engine_.prefilter_stats().confirmed_windows;
      share_engine_.inspect(*ptrs_[i], payloads_[i], share_scratch_);
      if (share_engine_.prefilter_stats().confirmed_windows == before) ++cleared_;
      ++packets_;
    }
    return spent;
  }

  /// inspect_stream_batch over the call's non-empty payloads, each
  /// packet a chunk of its 5-tuple's stream (timed), checked against
  /// inspect_stream_reference on separate states.
  std::int64_t stream(const CapturedCall& call, std::uint64_t& mismatches) {
    ptrs_.clear();
    payloads_.clear();
    states_.clear();
    for (const net::Packet& p : call.packets) {
      if (p.payload.empty()) continue;
      ptrs_.push_back(&p);
      payloads_.push_back(p.payload);
      states_.push_back(&live_states_[net::FlowKey::of(p)]);
    }
    if (ptrs_.empty()) return 0;
    verdicts_.assign(ptrs_.size(), {});
    std::int64_t start = now_ns();
    stream_engine_.inspect_stream_batch(ptrs_, payloads_, states_, batch_,
                                        verdicts_.data());
    std::int64_t spent = now_ns() - start;
    for (std::size_t i = 0; i < ptrs_.size(); ++i) {
      idps::IdpsVerdict ref = stream_oracle_.inspect_stream_reference(
          *ptrs_[i], payloads_[i], oracle_states_[net::FlowKey::of(*ptrs_[i])], scratch_);
      if (ref.matched != verdicts_[i].matched || ref.drop != verdicts_[i].drop)
        ++mismatches;
    }
    chunks_ += ptrs_.size();
    return spent;
  }

  const idps::IdpsEngine& engine() const { return engine_; }
  const idps::IdpsEngine& oracle() const { return oracle_; }
  const idps::IdpsEngine& stream_engine() const { return stream_engine_; }
  const idps::IdpsEngine& stream_oracle() const { return stream_oracle_; }
  std::size_t packets() const { return packets_; }
  std::size_t chunks() const { return chunks_; }
  std::size_t cleared() const { return cleared_; }

 private:
  idps::IdpsEngine engine_;
  idps::IdpsEngine oracle_;
  idps::IdpsEngine share_engine_;
  idps::IdpsEngine stream_engine_;
  idps::IdpsEngine stream_oracle_;
  idps::IdpsEngine::BatchScratch batch_;
  idps::IdpsEngine::InspectScratch scratch_;
  idps::IdpsEngine::InspectScratch share_scratch_;
  std::vector<const net::Packet*> ptrs_;
  std::vector<ByteView> payloads_;
  std::vector<idps::StreamMatchState*> states_;
  std::vector<idps::IdpsVerdict> verdicts_;
  std::unordered_map<net::FlowKey, idps::StreamMatchState, FlowKeyHash> live_states_;
  std::unordered_map<net::FlowKey, idps::StreamMatchState, FlowKeyHash> oracle_states_;
  std::size_t packets_ = 0;
  std::size_t chunks_ = 0;
  std::size_t cleared_ = 0;
};

constexpr const char* kReassemblyConfig =
    "from_device :: FromDevice;\n"
    "to_device :: ToDevice;\n"
    "ctx :: CTXManager(CAPACITY 4096, IDLE_PKTS 8192);\n"
    "tcp_in :: TCPIn;\n"
    "tcp_out :: TCPOut;\n"
    "from_device -> ctx -> tcp_in -> tcp_out -> to_device;\n"
    "tcp_in[1] -> [1]to_device;\n";


}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank ? rank - 1 : 0)];
}

struct LayerReplay::State {
  State(Deployment& deployment)
      : dep(deployment),
        chain(versioned_config(deployment.spec.use_case, deployment.config_version),
              deployment.rules),
        reassembly(kReassemblyConfig, deployment.rules),
        idps(deployment.rules) {}

  /// Replays one direction's client calls; returns nothing, adds to the
  /// attribution slots given.
  void calls(const std::vector<CapturedCall>& calls, std::int64_t& crypto_ns,
             std::int64_t& click_ns, std::int64_t& idps_ns, bool ingress) {
    const bool stream_mix = dep.spec.mix == Mix::StreamDownloads;
    for (const CapturedCall& call : calls) {
      result.packets += call.packets.size();
      crypto_ns += crypto.run(call.frame_sizes, dep.spec.encrypt, /*open=*/ingress);
      frames.insert(frames.end(), call.frame_sizes.begin(), call.frame_sizes.end());
      std::int64_t chain_call = chain.push(call);
      click_ns += chain_call;
      chain_ns += chain_call;
      std::int64_t scan = idps.scan(call, !stream_mix, result.verdict_mismatches);
      std::int64_t streamed = idps.stream(call, result.verdict_mismatches);
      scan_ns += scan;
      stream_ns += streamed;
      idps_ns += stream_mix ? streamed : scan;
      reassembly_ns += reassembly.push(call);
    }
  }

  Deployment& dep;
  StandaloneRouter chain;
  StandaloneRouter reassembly;
  CryptoReplay crypto;
  IdpsReplay idps;
  ReplayResult result;
  std::vector<std::uint32_t> frames;
  std::int64_t chain_ns = 0, scan_ns = 0, stream_ns = 0, reassembly_ns = 0;
};

LayerReplay::LayerReplay(Deployment& deployment)
    : state_(std::make_unique<State>(deployment)) {}

LayerReplay::~LayerReplay() = default;

void LayerReplay::replay(const CapturedRound& round) {
  State& s = *state_;
  Attribution& attr = s.result.attribution;
  s.calls(round.egress, attr.egress_crypto, attr.egress_click, attr.egress_idps, false);
  // The server opens what the clients sealed, and seals what they open.
  for (const CapturedCall& call : round.egress)
    attr.open_crypto += s.crypto.run(call.frame_sizes, s.dep.spec.encrypt, /*open=*/true);
  for (const CapturedCall& call : round.ingress)
    attr.seal_crypto += s.crypto.run(call.frame_sizes, s.dep.spec.encrypt, /*open=*/false);
  s.calls(round.ingress, attr.ingress_crypto, attr.ingress_click, attr.ingress_idps, true);
}

ReplayResult LayerReplay::finish(const Capture& capture) {
  State& s = *state_;
  ReplayResult& result = s.result;
  const bool stream_mix = s.dep.spec.mix == Mix::StreamDownloads;
  if (!s.dep.spec.encrypt) s.crypto.time_aes(s.frames);
  result.aes_ns_per_byte = s.crypto.aes_ns_per_byte();
  s.crypto.fit_hmac(s.frames, result.hmac_fixed_ns, result.hmac_ns_per_byte);

  double packets = static_cast<double>(result.packets);
  result.click_chain_us_per_pkt = ratio(static_cast<double>(s.chain_ns) / 1e3, packets);
  result.idps_scan_us_per_pkt = ratio(static_cast<double>(s.scan_ns) / 1e3, packets);
  result.reassembly_us_per_seg = ratio(static_cast<double>(s.reassembly_ns) / 1e3, packets);
  result.stream_us_per_chunk = ratio(static_cast<double>(s.stream_ns) / 1e3,
                                     static_cast<double>(s.idps.chunks()));
  result.confirmed_windows_per_pkt =
      ratio(static_cast<double>(s.idps.engine().prefilter_stats().confirmed_windows),
            static_cast<double>(s.idps.packets()));
  result.prefiltered_share = ratio(static_cast<double>(s.idps.cleared()),
                                   static_cast<double>(s.idps.packets()));
  const idps::IdpsEngine& engine = stream_mix ? s.idps.stream_engine() : s.idps.engine();
  const idps::IdpsEngine& oracle = stream_mix ? s.idps.stream_oracle() : s.idps.oracle();
  result.alerts = engine.alerts();
  result.drops = engine.drops();
  result.oracle_alerts = oracle.alerts();
  result.oracle_drops = oracle.drops();

  // Lane speed-up: the same captured uplink trains through the
  // single-threaded reference loop and the lane pipeline, alternating,
  // with the live server resharded to each lane count in turn.
  auto& vpn = s.dep.server.vpn();
  endbox::vpn::VpnServer::OpenBatch out;
  for (std::size_t lanes : kReplayLanes) {
    if (!vpn.reshard_sessions(lanes).ok()) {
      result.lane_replay_consistent = false;
      continue;
    }
    std::int64_t reference_ns = 0, lanes_ns = 0;
    for (int rep = 0; rep < 3; ++rep) {
      for (const CapturedRound& round : capture.rounds) {
        vpn.reset_replay_windows();
        std::int64_t start = now_ns();
        vpn.open_batch_reference(round.uplink, 0, out);
        reference_ns += now_ns() - start;
        std::size_t reference_count = out.packet_count;
        vpn.reset_replay_windows();
        start = now_ns();
        vpn.open_batch(round.uplink, 0, out);
        lanes_ns += now_ns() - start;
        if (out.packet_count != reference_count || out.rejected != 0)
          result.lane_replay_consistent = false;
      }
    }
    result.lane_speedup.push_back(
        ratio(static_cast<double>(reference_ns), static_cast<double>(lanes_ns)));
  }
  if (!vpn.reshard_sessions(s.dep.spec.server_lanes).ok())
    result.lane_replay_consistent = false;
  return result;
}

double replay_hot_swap_ms(const Deployment& dep, int repetitions) {
  elements::ElementContext context;
  init_context(context, dep.rules);
  click::ElementRegistry registry = elements::make_endbox_registry(context);
  click::RouterManager manager(registry);
  if (!manager.install(versioned_config(dep.spec.use_case, 1)).ok())
    throw std::runtime_error("hot-swap replay: install failed");
  std::vector<double> ms;
  for (int i = 0; i < repetitions; ++i) {
    std::string config = versioned_config(dep.spec.use_case, static_cast<std::uint32_t>(i + 2));
    std::int64_t start = now_ns();
    auto status = manager.hot_swap(config);
    ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
    if (!status.ok()) throw std::runtime_error("hot-swap replay: " + status.error());
  }
  return median(ms);
}

double replay_engine_build_ms(const std::vector<idps::SnortRule>& rules, int repetitions) {
  std::vector<double> ms;
  for (int i = 0; i < repetitions; ++i) {
    std::int64_t start = now_ns();
    idps::IdpsEngine engine(rules);
    ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
    if (engine.rule_count() != rules.size()) throw std::runtime_error("engine build");
  }
  return median(ms);
}

}  // namespace perfbench
