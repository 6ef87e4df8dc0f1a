// Seeded traffic generators and the verdict oracle for the round-trip
// benchmark.
//
// Everything a run sends is derived from the workload seed before the
// clock starts: request/response exchanges for the enterprise and ISP
// mixes, object templates and their segmentation for the stream mix,
// and the open-loop arrival schedule. Each generated packet carries
// the verdict the enclave must reach, computed by the full-walk
// reference engine (IdpsEngine::inspect_reference /
// inspect_stream_reference) over the same rule set, so the driver can
// check every delivery and every drop.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "endbox/configs.hpp"
#include "idps/engine.hpp"
#include "net/packet.hpp"

namespace perfbench {

using endbox::Bytes;
using endbox::ByteView;
using endbox::Rng;
namespace net = endbox::net;
namespace idps = endbox::idps;

inline constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

enum class Mix { EnterpriseWeb, IspSmallPackets, StreamDownloads };

/// One benchmark workload: the deployment it runs on and the traffic
/// it sends. The open-loop rate is a fixed constant (about a third of
/// the closed-loop capacity measured when the benchmark was defined),
/// never derived at run time.
struct WorkloadSpec {
  const char* name;
  Mix mix;
  endbox::UseCase use_case;
  std::size_t clients;
  bool encrypt;               ///< false: integrity-only tunnels
  std::size_t server_lanes;   ///< VpnServerConfig::session_shards
  std::size_t enclave_lanes;  ///< EndBoxClientOptions::shards
  std::size_t round_exchanges;  ///< exchanges per closed-loop round
  double open_rate;           ///< open-loop offered exchanges per second
  std::size_t rollout_versions;  ///< config versions pushed during the run
};

std::span<const WorkloadSpec> all_workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

/// The 377-rule community set, generated exactly as the repository's
/// testbed generates it.
std::vector<idps::SnortRule> community_rules();

/// Benign ASCII text: lowercase words, digits, spaces and punctuation.
/// It never contains '_', and every generated rule content does, so no
/// rule can match it.
void fill_benign_text(Rng& rng, std::span<std::uint8_t> out);

net::Ipv4 client_addr(std::size_t client);
net::Ipv4 server_addr();

/// The test-side verdict oracle: the full-walk reference engine over the
/// same rules the enclaves run. `drop_mode` mirrors IDSMatcher's DROP
/// argument (any match drops) versus alert mode (drop rules only).
class Oracle {
 public:
  Oracle(std::vector<idps::SnortRule> rules, bool drop_mode);

  idps::IdpsVerdict inspect(const net::Packet& packet);
  bool dropped(const net::Packet& packet);

  /// Stream-order verdict of one TCP flow: `header` supplies the packet
  /// header the rules see, `object` the stream bytes, `seg_end` the
  /// exclusive end offset of each segment.
  struct StreamOutcome {
    std::size_t kill_segment = kNone;   ///< first segment the enclave drops
    std::uint64_t evasions = 0;         ///< cross-segment matches up to it
  };
  StreamOutcome stream(const net::Packet& header, ByteView object,
                       std::span<const std::uint32_t> seg_end);

  const std::vector<idps::SnortRule>& rules() const { return rules_; }

 private:
  std::vector<idps::SnortRule> rules_;
  idps::IdpsEngine engine_;
  idps::IdpsEngine::InspectScratch scratch_;
  bool drop_mode_;
};

/// One generated IP packet and the verdict the enclave must reach.
struct GenPacket {
  net::Packet packet;
  bool drop = false;     ///< the oracle says the enclave drops it
  bool planted = false;  ///< carries a complete rule content
};

/// One request/response exchange of the enterprise or ISP mix: a
/// request up from `client`, and the replies the managed network sends
/// back once the request has arrived.
struct Exchange {
  std::uint32_t client = 0;
  GenPacket up;
  std::vector<GenPacket> down;
};

/// `count` exchanges of the enterprise or ISP mix.
std::vector<Exchange> make_exchanges(const WorkloadSpec& spec, std::size_t count,
                                     Rng& rng, Oracle& oracle);

// ---- Stream mix ------------------------------------------------------

/// One downloadable object and how the server segments it.
struct FlowTemplate {
  Bytes object;
  std::vector<std::uint32_t> seg_end;  ///< exclusive end of each segment
  bool planted = false;     ///< a rule content straddles a segment boundary
  std::size_t kill_segment = kNone;
  std::uint64_t evasions = 0;  ///< cross-segment matches the enclave reports
  std::uint32_t seg_begin(std::size_t i) const { return i ? seg_end[i - 1] : 0; }
};

/// `count` objects of 4..64 KB; one in 200 is planted.
std::vector<FlowTemplate> make_flow_templates(std::size_t count, Rng& rng,
                                              Oracle& oracle);

/// Header the oracle and the enclave see for download segments.
inline constexpr std::uint16_t kServerPort = 80;
net::Packet download_segment(const FlowTemplate& flow, std::size_t segment,
                             std::uint16_t client_port, std::uint32_t isn);
net::Packet download_ack(std::uint16_t client_port, std::uint32_t ack);

/// Draws the next flight of the stream mix: one ACK up, then the next
/// 1..4 segments of one of `concurrent` live downloads. A finished
/// download is replaced by a fresh one on a new port (churn); about 2%
/// of segments arrive swapped with their predecessor.
class FlightScheduler {
 public:
  FlightScheduler(std::span<const FlowTemplate> templates, std::size_t concurrent,
                  std::uint64_t seed);

  struct Flight {
    const FlowTemplate* flow = nullptr;
    std::uint16_t client_port = 0;
    std::uint32_t isn = 0;
    std::size_t first = 0;    ///< first segment index
    std::size_t count = 0;    ///< segments in this flight
    std::size_t swap_at = kNone;  ///< segments first+swap_at and +1 swap
  };
  Flight next();

 private:
  struct Live {
    const FlowTemplate* flow;
    std::uint16_t port;
    std::uint32_t isn;
    std::size_t next_segment;
  };
  Live fresh();

  std::span<const FlowTemplate> templates_;
  Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t next_template_ = 0;
  std::uint64_t flows_started_ = 0;
  std::vector<Live> live_;
};

// ---- Open loop ---------------------------------------------------------

/// Poisson arrivals at `rate` per second over `seconds`: due times in
/// nanoseconds from the start of the phase.
std::vector<std::int64_t> poisson_due_times(Rng& rng, double rate, double seconds);

}  // namespace perfbench
