// Replays of captured rounds through standalone layer instances: the
// traced run's per-layer view. Each replay feeds one layer exactly the
// inputs the live run handed it (the same packets, frame sizes and
// uplink trains), timed on the wall clock, so the layer's share of an
// enclosing live span can be attributed from outside the program.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "driver.hpp"

namespace perfbench {

/// Server lane counts the captured uplink trains are replayed at; the
/// reported vpn.lane_speedup is the one at 2 lanes.
inline constexpr std::size_t kReplayLanes[] = {1, 2, 4};
inline constexpr std::size_t kReportedLaneIndex = 1;

/// Replayed time (ns), summed over the captured rounds, of the layers
/// nested in each live span.
struct Attribution {
  std::int64_t egress_crypto = 0;
  std::int64_t egress_click = 0;  ///< whole chain, IDPS included
  std::int64_t egress_idps = 0;
  std::int64_t open_crypto = 0;
  std::int64_t seal_crypto = 0;
  std::int64_t ingress_crypto = 0;
  std::int64_t ingress_click = 0;
  std::int64_t ingress_idps = 0;
};

struct ReplayResult {
  Attribution attribution;
  double aes_ns_per_byte = 0;
  double hmac_ns_per_byte = 0;
  double hmac_fixed_ns = 0;
  double click_chain_us_per_pkt = 0;
  double idps_scan_us_per_pkt = 0;
  double confirmed_windows_per_pkt = 0;
  double prefiltered_share = 0;  ///< packets tier 1 cleared without a window
  double stream_us_per_chunk = 0;
  double reassembly_us_per_seg = 0;
  /// open_batch_reference time / open_batch time, one per kReplayLanes.
  std::vector<double> lane_speedup;
  std::uint64_t alerts = 0;      ///< replay engine, prefilter path
  std::uint64_t drops = 0;
  std::uint64_t oracle_alerts = 0;  ///< reference engine, same inputs
  std::uint64_t oracle_drops = 0;
  std::uint64_t verdict_mismatches = 0;  ///< replay verdict vs generation oracle
  bool lane_replay_consistent = true;  ///< both open paths opened the same packets
  std::size_t packets = 0;             ///< captured packets replayed
};

/// Replays captured rounds through a standalone click::Router built
/// from the deployment's config, standalone IdpsEngines,
/// crypto::Aes128 / HmacKey and a CTXManager -> TCPIn -> TCPOut router.
/// Each round is replayed right after it ran live (outside its timed
/// span), so live and replayed times see the same host conditions.
class LayerReplay {
 public:
  explicit LayerReplay(Deployment& deployment);
  ~LayerReplay();
  LayerReplay(const LayerReplay&) = delete;
  LayerReplay& operator=(const LayerReplay&) = delete;

  void replay(const CapturedRound& round);
  /// Adds the end-of-run replays -- the HMAC cost fit, and the live
  /// server's open_batch_reference versus open_batch on the captured
  /// uplink trains at each of kReplayLanes (resharding the server and
  /// resetting its replay windows, so call it after the traffic) --
  /// and returns every replay figure.
  ReplayResult finish(const Capture& capture);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Median wall time of RouterManager::hot_swap on the deployment's
/// config, milliseconds.
double replay_hot_swap_ms(const Deployment& deployment, int repetitions);
/// Median wall time of the IdpsEngine constructor on the rule set,
/// milliseconds.
double replay_engine_build_ms(const std::vector<idps::SnortRule>& rules, int repetitions);

double median(std::vector<double> values);
/// num / den, or 0 when den is not positive.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

}  // namespace perfbench
