// The load generator: one thread that pushes each round of exchanges
// through client egress -> VpnServer::open_batch -> managed-network
// reply -> VpnServer::seal_jobs -> client ingress, timing every call on
// the wall clock and checking every delivery against the oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "deployment.hpp"
#include "traffic.hpp"

namespace perfbench {

// ---- Spans -----------------------------------------------------------------

/// One timed call the driver made into a layer. Spans of one round share
/// its burst id; `parent` indexes the enclosing span (-1 for a root).
struct Span {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::int32_t parent;
  std::uint32_t burst;
};

/// Keeps the first kMaxSpans spans in memory, reserved up front so
/// recording never reallocates on the timed path; later spans are only
/// counted. No metric is computed from the stored spans.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 18;

  Tracer() { spans_.reserve(kMaxSpans); }
  /// Returns the span's id, or -1 when the buffer is full.
  std::int32_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int32_t parent, std::uint32_t burst) {
    if (spans_.size() == kMaxSpans) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, start, end, parent, burst});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void set_end(std::int32_t id, std::int64_t end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Writes one JSON object per line. Returns false when the file
  /// cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// ---- One round -------------------------------------------------------------

struct PacketRef {
  const net::Packet* packet = nullptr;
  bool drop = false;  ///< oracle: the enclave drops it
};

struct StagedExchange {
  std::uint32_t client = 0;
  std::int64_t due = 0;    ///< open loop: when it was due (ns)
  std::int64_t done = -1;  ///< when its last reply left the ingress call
  PacketRef up;
  std::uint32_t down_begin = 0;  ///< into Round::downs
  std::uint32_t down_count = 0;
  bool request_arrived = false;
};

struct Round {
  std::vector<StagedExchange> exchanges;
  std::vector<PacketRef> downs;
  /// Packets built for this round only (stream mix); reserved up front
  /// so PacketRefs into it stay valid.
  std::vector<net::Packet> owned;
  void clear() {
    exchanges.clear();
    downs.clear();
    owned.clear();
  }
};

/// Where a round's exchanges come from.
class Source {
 public:
  virtual ~Source() = default;
  virtual void stage(Round& round, std::int64_t due) = 0;
  /// Cross-segment matches and killed flows the staged traffic must
  /// produce in the enclaves (stream mix; zero otherwise).
  std::uint64_t expected_evasions = 0;
  std::uint64_t expected_kills = 0;
};

/// Cycles through a pre-generated exchange pool.
class PoolSource : public Source {
 public:
  explicit PoolSource(std::vector<Exchange> pool) : pool_(std::move(pool)) {}
  void stage(Round& round, std::int64_t due) override;

 private:
  std::vector<Exchange> pool_;
  std::size_t next_ = 0;
};

/// Draws download flights from pre-generated object templates.
class FlightSource : public Source {
 public:
  FlightSource(std::vector<FlowTemplate> templates, std::uint64_t seed)
      : templates_(std::move(templates)), scheduler_(templates_, 512, seed) {}
  void stage(Round& round, std::int64_t due) override;

 private:
  std::vector<FlowTemplate> templates_;
  FlightScheduler scheduler_;
};

/// Builds the workload's traffic from the seed.
std::unique_ptr<Source> make_source(const WorkloadSpec& spec, std::uint64_t seed,
                                    const std::vector<idps::SnortRule>& rules);

// ---- Accounting ----------------------------------------------------------

/// Packet outcomes and time spent, summed over rounds. Every attempted
/// packet ends as exactly one of delivered / expected drop / failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t expected_drops = 0;
  std::uint64_t failed = 0;
  std::uint64_t spurious = 0;       ///< deliveries matching no sent packet
  std::uint64_t call_errors = 0;    ///< layer calls that returned an error
  std::uint64_t payload_bytes = 0;  ///< application bytes delivered
  std::uint64_t up_packets = 0;     ///< handed to client egress
  std::uint64_t down_packets = 0;   ///< handed to seal_jobs
  std::uint64_t up_frames = 0;
  std::uint64_t down_frames = 0;
  std::uint64_t open_rejected = 0;
  std::int64_t egress_ns = 0;
  std::int64_t open_ns = 0;
  std::int64_t seal_ns = 0;
  std::int64_t ingress_ns = 0;
  std::int64_t round_ns = 0;        ///< main path, capture time excluded
  std::int64_t elapsed_ns = 0;      ///< wall time of the phase

  std::int64_t client_ns() const { return egress_ns + ingress_ns; }
  std::int64_t gateway_ns() const { return open_ns + seal_ns; }
  bool conserved() const {
    return attempted == delivered + expected_drops + failed;
  }
  Tally& operator+=(const Tally& other);
};

// ---- Capture for replay -----------------------------------------------------

/// One client call's input, kept for replay through standalone layers.
struct CapturedCall {
  std::uint32_t client = 0;
  std::vector<net::Packet> packets;
  std::vector<std::uint8_t> drop;          ///< oracle verdicts
  std::vector<std::uint32_t> frame_sizes;  ///< tunnel frames of this call
  std::int64_t ns = 0;                     ///< live span duration
};

struct CapturedRound {
  std::vector<CapturedCall> egress;
  std::vector<CapturedCall> ingress;
  std::vector<Bytes> uplink;  ///< open_batch input
  std::int64_t round_ns = 0;
  std::int64_t open_ns = 0;
  std::int64_t seal_ns = 0;
};

struct Capture {
  std::size_t limit = 0;
  std::vector<CapturedRound> rounds;
  /// Called with each captured round right after it ran.
  std::function<void(const CapturedRound&)> on_round;
};

// ---- The driver ---------------------------------------------------------------

struct OpenLoopResult {
  Tally tally;
  std::vector<double> latency_us;  ///< per completed exchange
  std::vector<double> lag_us;      ///< generator lateness per exchange
  std::uint64_t backlog_max = 0;   ///< most due-but-unsent exchanges seen
  std::uint64_t not_sent = 0;      ///< due inside the phase, never sent
};

/// One closed-loop round: its wall time (staging included) and what it
/// delivered, for statistics over rounds.
struct RoundTiming {
  std::int64_t wall_ns = 0;
  std::int64_t client_ns = 0;
  std::int64_t gateway_ns = 0;
  std::uint32_t delivered = 0;
  std::uint32_t payload_bytes = 0;
};

class Driver {
 public:
  Driver(Deployment& deployment, Source& source);

  /// Closed loop: rounds of spec.round_exchanges back to back.
  /// Appends one RoundTiming per round to `rounds` when given.
  Tally run_closed(double seconds, Tracer* tracer = nullptr, Capture* capture = nullptr,
                   std::vector<RoundTiming>* rounds = nullptr);
  /// Open loop: Poisson arrivals at spec.open_rate, each due exchange
  /// sent in the next round (at most spec.round_exchanges per round).
  OpenLoopResult run_open(double seconds, Rng& rng, Tracer* tracer = nullptr);

  /// Highest Σ flows_tracked over the clients seen after any round
  /// (sampled every 16 rounds while tracing).
  std::size_t flows_tracked_peak() const { return flows_tracked_peak_; }

 private:
  void run_round(Round& round, Tally& tally, Tracer* tracer, Capture* capture);
  void capture_round(Capture& capture, std::int64_t round_ns);
  void check_uplink(const endbox::vpn::VpnServer::BatchPacket& opened, Round& round,
                    Tally& tally);
  void stage_replies(std::uint32_t client, StagedExchange& exchange, Round& round);

  struct UpSlot {
    PacketRef ref;
    std::uint32_t exchange = 0;
    bool arrived = false;
  };
  struct DownSlot {
    PacketRef ref;
    std::uint32_t wire = 0;  ///< index into wires_
    bool arrived = false;
  };
  struct ClientScratch {
    endbox::click::PacketBatch up;
    endbox::EgressBatch egress;
    endbox::IngressBatch ingress;
    std::vector<UpSlot> up_slots;
    std::vector<DownSlot> down_slots;
    std::vector<std::uint32_t> exchanges;  ///< this round's, by index
    std::vector<std::uint32_t> up_frame_sizes;
    std::size_t down_first = 0;  ///< first frame in down_frames_
    std::int64_t egress_ns = 0;
    std::int64_t ingress_ns = 0;
  };

  Deployment& dep_;
  Source& source_;
  std::vector<ClientScratch> scratch_;
  std::vector<std::uint32_t> touched_;
  std::vector<Bytes> uplink_;
  std::size_t uplink_count_ = 0;
  endbox::vpn::VpnServer::OpenBatch opened_;
  std::vector<Bytes> wires_;  ///< serialized replies, reused
  std::size_t wire_count_ = 0;
  std::vector<endbox::vpn::VpnServer::SealJob> jobs_;
  std::vector<Bytes> down_frames_;
  std::int64_t open_span_ns_ = 0;
  std::int64_t seal_span_ns_ = 0;
  Round round_;
  std::uint32_t burst_ = 0;
  std::size_t flows_tracked_peak_ = 0;
};

}  // namespace perfbench
