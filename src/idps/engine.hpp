// IDPS matching engine: compiles a Snort rule set into Aho-Corasick
// automatons (one case-sensitive, one case-insensitive) and evaluates
// packets. A rule fires when its header constraints match AND all of
// its content patterns occur in the payload. Drop rules mark the
// packet; alert rules record an event.
//
// Scanning is two-tier. Tier 1 is one fused pass of the two
// automatons' Teddy-style literal prefilters (built at
// AhoCorasick::build() time with one shared fragment width) over the
// raw payload: it finds where some pattern's rare W-byte fragment
// occurs — nibble-table candidates confirmed exactly against the
// stored fragments, case-folded for the nocase set — and widens each
// occurrence into a window sized by the patterns owning that fragment.
// Tier 2 walks each automaton only over its merged windows, from the
// root; nocase windows are ASCII-lowered first. A payload with no
// fragment occurrence (the common case on benign text) never enters
// either automaton. The prefilter is sound (no false negatives), so
// verdicts, offsets, MASK bytes and once-per-flow firing are
// bit-identical to the full walk, which stays callable as the
// inspect*_reference family. Rule sets containing a content literal
// shorter than 2 bytes disable the prefilter engine-wide and every
// scan takes the full walk. All case folding is ASCII-only
// (ascii_lower), independent of the process locale.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "idps/aho_corasick.hpp"
#include "idps/snort_rules.hpp"
#include "net/packet.hpp"

namespace endbox::idps {

struct IdpsVerdict {
  bool matched = false;   ///< some rule fired
  bool drop = false;      ///< a drop rule fired
  std::uint32_t sid = 0;  ///< first firing rule's sid
};

/// Persistent per-flow stream inspection state (lives in the flow's
/// CTX context, lane-local): the resume states of both Aho-Corasick
/// automatons, the content-hit bits accumulated over the life of the
/// flow (sparse — hits are rare), and the rules that already fired so
/// a completed rule alerts once per flow, not once per subsequent
/// segment. Cheap when idle: two ints and two empty vectors.
struct StreamMatchState {
  std::uint32_t cs_state = 0;  ///< case-sensitive automaton resume state
  std::uint32_t ci_state = 0;  ///< nocase automaton resume state
  /// Prefilter tail carry: the last maxlen-1 stream bytes, prepended
  /// to the next chunk so a literal straddling the chunk boundary
  /// still lands inside one scanned buffer. Only the prefilter path
  /// maintains it (the reference path resumes cs_state/ci_state
  /// instead); matches ending inside the tail were already reported by
  /// the chunk that delivered them and are suppressed.
  Bytes prefilter_tail;
  bool drop_flow = false;      ///< a drop verdict fired; rest of flow dies
  std::uint64_t bytes_scanned = 0;
  /// Matches whose pattern began in an earlier segment — each one is a
  /// split-payload delivery the per-packet matcher would have missed.
  std::uint64_t cross_segment_matches = 0;
  std::uint64_t bytes_masked = 0;
  /// rule index -> content-hit bitmask, only rules with at least one hit.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> hits;
  /// Rules that already completed (fired or were header-rejected once).
  std::vector<std::uint32_t> completed;
};

/// Two-tier scanning statistics: how much traffic the prefilter
/// cleared without automaton work, how many candidate windows needed
/// confirming, and how many scans fell back to the full walk (rule
/// sets with sub-fragment-width literals).
struct PrefilterStats {
  std::uint64_t prefiltered_bytes = 0;   ///< bytes screened by tier 1
  std::uint64_t confirmed_windows = 0;   ///< candidate runs walked by tier 2
  std::uint64_t fallback_scans = 0;      ///< full walks (prefilter unusable)
};

class IdpsEngine {
 public:
  explicit IdpsEngine(std::vector<SnortRule> rules);

  /// Reusable working memory for inspect(): the per-rule content-hit
  /// bitmasks and the lower-cased payload copy. One scratch reused
  /// across a burst turns the per-packet heap traffic of inspection
  /// into capacity reuse, and the hit table resets sparsely — only the
  /// rules the previous packet touched are cleared, not all N — which
  /// is the batch path's main win for small packets.
  struct InspectScratch {
    std::vector<std::uint64_t> content_hits;
    std::vector<std::uint32_t> touched;  ///< rules with non-zero bits
    Bytes lowered;
    std::vector<CandidateRun> runs;     ///< case-sensitive set's windows
    std::vector<CandidateRun> ci_runs;  ///< nocase set's windows
    Bytes combined;                     ///< stream path: tail + chunk
  };

  /// Working memory for inspect_batch: per-stream match lists and
  /// lowered copies on top of the shared rule-evaluation scratch.
  struct BatchScratch {
    std::vector<std::vector<AcMatch>> matches;  ///< per stream
    std::vector<Bytes> lowered;                 ///< per stream (nocase scan)
    std::vector<ByteView> views;                ///< span storage for lowered
    std::vector<std::uint32_t> owner;  ///< prefilter: slice -> packet index
    std::vector<ByteView> ci_views;    ///< prefilter: lowered nocase slices
    std::vector<std::uint32_t> ci_owner;  ///< nocase slice -> packet index
    InspectScratch rules;
    // inspect_stream_batch round scheduling (two chunks of one flow
    // must walk sequentially, not in the same interleave round).
    std::vector<std::uint32_t> rounds;     ///< per packet: interleave round
    std::vector<std::uint32_t> order;      ///< packet ids of the current round
    std::vector<std::uint32_t> ac_states;  ///< gathered resume states
  };

  /// Evaluates one packet; also tallies alert/drop statistics.
  IdpsVerdict inspect(const net::Packet& packet);

  /// Scratch-reusing variant: headers come from `packet`, content is
  /// scanned from `payload` (the decrypted payload when TLSDecrypt ran
  /// upstream), so callers need neither a probe copy nor fresh buffers.
  /// Two-tier: the prefilter screens the payload and only candidate
  /// windows reach the automaton; verdict-identical to
  /// inspect_reference.
  IdpsVerdict inspect(const net::Packet& packet, ByteView payload,
                      InspectScratch& scratch);

  /// The full-walk path (both automatons over every byte), kept
  /// callable as the equivalence baseline for the prefiltered inspect
  /// and for benches pricing the tier-1 skip rate.
  IdpsVerdict inspect_reference(const net::Packet& packet, ByteView payload,
                                InspectScratch& scratch);

  /// Burst variant: scans all payloads with the interleaved multi-
  /// stream Aho-Corasick walk (independent transition chains overlap in
  /// the memory system, hiding the table-walk latency a single scan is
  /// bound by), then evaluates each packet's rules exactly as
  /// inspect(). `verdicts[i]` corresponds to `packets[i]`; verdicts and
  /// statistics are identical to per-packet inspection.
  void inspect_batch(std::span<const net::Packet* const> packets,
                     std::span<const ByteView> payloads, BatchScratch& scratch,
                     IdpsVerdict* verdicts);

  /// Full-walk burst baseline (pre-prefilter inspect_batch).
  void inspect_batch_reference(std::span<const net::Packet* const> packets,
                               std::span<const ByteView> payloads,
                               BatchScratch& scratch, IdpsVerdict* verdicts);

  /// Stream-resume inspection: scans `chunk` (the flow's next run of
  /// in-order stream bytes) continuing from `state`, so content split
  /// across TCP segments matches exactly as if delivered in one
  /// segment. Multi-content rules complete across segments (hit bits
  /// persist in `state`); a rule fires once per flow, on the packet
  /// whose chunk completes it, with the same verdict/sid the
  /// single-segment per-packet path produces. When `mask` is non-empty
  /// it must alias the chunk's bytes in the packet payload: every
  /// content occurrence is overwritten with 'X' (best effort — the
  /// part of a straddling match already forwarded in an earlier
  /// segment cannot be rewritten).
  /// Two-tier stream path: tier 1 screens the flow's carried tail
  /// (last maxlen-1 stream bytes) + chunk so boundary-straddling
  /// literals are caught without resuming automaton state; matches
  /// ending inside the tail were reported by an earlier chunk and are
  /// suppressed. Verdicts, cross-segment counts and MASK bytes are
  /// identical to inspect_stream_reference.
  IdpsVerdict inspect_stream(const net::Packet& packet, ByteView chunk,
                             StreamMatchState& state, InspectScratch& scratch,
                             std::span<std::uint8_t> mask = {});

  /// Full-walk stream baseline: resumes cs_state/ci_state across
  /// chunks (the pre-prefilter inspect_stream). A flow must stay on
  /// one path for its lifetime — the two paths persist different
  /// resume state.
  IdpsVerdict inspect_stream_reference(const net::Packet& packet,
                                       ByteView chunk, StreamMatchState& state,
                                       InspectScratch& scratch,
                                       std::span<std::uint8_t> mask = {});

  /// Burst variant of inspect_stream: verdict-identical to calling
  /// inspect_stream per packet in burst order. In prefilter mode the
  /// burst runs sequentially — each chunk's scan needs the tail its
  /// same-flow predecessor produces, and clean chunks have no
  /// automaton walk left to interleave; the fallback path keeps the
  /// interleaved round-scheduled resumable walk. `masks` is either
  /// empty or one (possibly empty) span per packet.
  void inspect_stream_batch(std::span<const net::Packet* const> packets,
                            std::span<const ByteView> chunks,
                            std::span<StreamMatchState* const> states,
                            BatchScratch& scratch, IdpsVerdict* verdicts,
                            std::span<const std::span<std::uint8_t>> masks = {});

  /// Full-walk burst stream baseline (round-scheduled interleaved
  /// resumable walk; the pre-prefilter inspect_stream_batch).
  void inspect_stream_batch_reference(
      std::span<const net::Packet* const> packets,
      std::span<const ByteView> chunks,
      std::span<StreamMatchState* const> states, BatchScratch& scratch,
      IdpsVerdict* verdicts,
      std::span<const std::span<std::uint8_t>> masks = {});

  std::size_t rule_count() const { return rules_.size(); }
  std::uint64_t packets_inspected() const { return packets_inspected_; }
  std::uint64_t alerts() const { return alerts_; }
  std::uint64_t drops() const { return drops_; }
  std::size_t automaton_nodes() const {
    return cs_automaton_.node_count() + ci_automaton_.node_count();
  }
  /// True when both automatons compiled usable prefilters (every
  /// content literal is at least fragment-width bytes).
  bool prefilter_enabled() const { return prefilter_enabled_; }
  const PrefilterStats& prefilter_stats() const { return prefilter_stats_; }
  const AhoCorasick& cs_automaton() const { return cs_automaton_; }
  const AhoCorasick& ci_automaton() const { return ci_automaton_; }
  /// Pins both prefilters' scan kernel (tests/benches); the caller must
  /// not force a level the hardware lacks.
  void force_prefilter_kernel(LiteralPrefilter::Kernel kernel) {
    cs_automaton_.prefilter().force_kernel(kernel);
    ci_automaton_.prefilter().force_kernel(kernel);
  }

 private:
  bool header_matches(const SnortRule& rule, const net::Packet& packet) const;
  /// Sparse hit-table reset: zero only the rules touched last time.
  void reset_hits(InspectScratch& scratch) const;
  /// Sets the content bit for one pattern hit (tracks touched rules).
  static void record_hit(InspectScratch& scratch, int pattern_id);
  /// First-match rule evaluation over a populated hit table (a no-op
  /// unless `any_hit`): walks only the touched rules, sorted so the
  /// first firing sid is the one a walk over all rules would find;
  /// tallies alert/drop statistics. With a stream `state`, each rule
  /// fires at most once per flow and completions are recorded there.
  IdpsVerdict evaluate_hits(const net::Packet& packet, InspectScratch& scratch,
                            bool any_hit, StreamMatchState* state = nullptr);
  /// Tier 1: one fused prefilter pass over `text` fills scratch.runs
  /// (case-sensitive set) and scratch.ci_runs (nocase set).
  void screen(ByteView text, InspectScratch& scratch);
  /// Seeds the sparse hit table from the flow's persisted hits (call
  /// right after reset_hits).
  void load_stream_hits(const StreamMatchState& state,
                        InspectScratch& scratch) const;
  /// Writes the combined hit table back into the flow state.
  void persist_stream_hits(StreamMatchState& state,
                           const InspectScratch& scratch) const;
  std::size_t content_length(int pattern_id) const {
    return rules_[static_cast<std::size_t>(pattern_id) >> 8]
        .contents[static_cast<std::size_t>(pattern_id) & 0xff]
        .bytes.size();
  }

  std::vector<SnortRule> rules_;
  // Pattern ids encode (rule index << 8 | content index within rule).
  AhoCorasick cs_automaton_;  ///< case-sensitive patterns
  AhoCorasick ci_automaton_;  ///< nocase patterns, stored lower-cased
  bool prefilter_enabled_ = false;
  /// Stream tail carry length: max pattern length over both automatons
  /// minus one — the longest prefix of a match that can live in
  /// earlier chunks.
  std::size_t stream_tail_len_ = 0;
  PrefilterStats prefilter_stats_;
  std::uint64_t packets_inspected_ = 0;
  std::uint64_t alerts_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace endbox::idps
