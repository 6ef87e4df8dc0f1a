// Teddy-style shuffled-literal pre-filter (Hyperscan's "Teddy", Wang
// et al., NSDI'19; also the rust aho-corasick packed searcher): the
// first tier of the two-tier scanning engine.
//
// Each pattern contributes its rarest W-byte fragment (W in [2, 4],
// at most its length), scored with a static byte-frequency rank for
// generic text and HTTP, so fragments avoid the bytes benign traffic
// is made of. Distinct fragments are grouped into 8 buckets (never
// mixing fragments whose rarest byte sits at different positions) and
// compiled into per-position nibble tables: for fragment position j,
// one pshufb pair over the input shifted by j bytes turns 16 (SSSE3)
// or 32 (AVX2) bytes into per-byte bucket bitmaps, and the W-way AND
// is non-zero wherever some bucket's fragment may start. The nibble
// test over-approximates (low and high nibbles may come from different
// fragments of a bucket), so every such candidate is then confirmed
// exactly: its W text bytes (ASCII-folded for a nocase set) are looked
// up in a hash of the stored fragments. Only true fragment occurrences
// become confirmation windows, each sized by the patterns owning that
// fragment — rewound by the largest offset of the fragment inside an
// owner and extended to the end of the longest owner — so every match
// whose fragment starts there lies wholly inside. Overlapping windows
// merge into runs the confirming automaton walks from its root; a
// payload with no fragment occurrence skips the automaton entirely.
//
// The engine scans its case-sensitive and nocase sets in one fused
// pass (find_runs over two filters): one load and one nibble split per
// block feed both table sets, and both run lists come out of the same
// pass. The AVX2, SSSE3 and portable SWAR kernels (per-byte 32-bit
// table holding all W position masks, one shift/or/and per byte) are
// templates on W; the level is picked at runtime via cpuid — or pinned
// with ENDBOX_FORCE_SCALAR — so tests and sanitizer CI are
// deterministic without AVX2.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/cpu_features.hpp"

namespace endbox::idps {

/// Locale-independent case fold: maps only ASCII 'A'-'Z' to 'a'-'z'.
/// Every nocase path (pattern compilation, confirm slices, the
/// full-walk reference and the prefilter's exact confirm) folds with
/// this one function, so they agree byte for byte; bytes >= 0x80 fold
/// to themselves whatever the process locale.
constexpr std::uint8_t ascii_lower(std::uint8_t b) {
  return static_cast<std::uint8_t>(
      static_cast<unsigned>(b - 'A') < 26u ? b + ('a' - 'A') : b);
}

/// Half-open byte range of a scanned text that may contain a match;
/// the confirming automaton walks only these slices.
struct CandidateRun {
  std::uint32_t begin;
  std::uint32_t end;

  bool operator==(const CandidateRun&) const = default;
};

class LiteralPrefilter {
 public:
  using Kernel = common::SimdLevel;

  /// Compiles the prefilter from the complete pattern set of one
  /// automaton. When `case_insensitive` is set the patterns must
  /// already be lower-cased (the nocase automaton stores them that
  /// way); the masks additionally admit the upper-case form of every
  /// alphabetic fragment byte and the exact confirm folds the text, so
  /// the filter scans the RAW text — only confirm slices pay for
  /// lowering. The fragment width is min(4, max_width, shortest
  /// pattern); callers that scan two filters fused give both the same
  /// `max_width`. Any pattern shorter than 2 bytes makes the filter
  /// unusable (a 1-byte literal has no fragment; the engine must fall
  /// back to the full walk). An empty pattern set is usable and reports
  /// no candidates.
  void build(std::span<const ByteView> patterns, bool case_insensitive,
             std::size_t max_width = 4);

  /// False when some pattern is too short for a fragment; the caller
  /// must then scan everything with the full automaton walk.
  bool usable() const { return usable_; }
  /// Fragment width W in [2, 4]; 0 for an empty pattern set.
  std::size_t fragment_width() const { return width_; }
  std::size_t max_pattern_length() const { return max_len_; }
  /// Distinct stored fragments (several patterns may share one).
  std::size_t fragment_count() const { return fragments_; }
  /// True when `window` (W bytes) is a stored fragment — exactly the
  /// test a nibble candidate must pass to become a window.
  bool is_fragment(ByteView window) const;

  Kernel kernel() const { return kernel_; }
  /// Pins the scan kernel (tests/benches); caller must not force a
  /// level the hardware lacks.
  void force_kernel(Kernel kernel) { kernel_ = kernel; }

  /// Scans `text` and appends the merged candidate runs (ascending,
  /// disjoint, clamped to the text). Returns the number of confirmed
  /// fragment occurrences. Every occurrence of every pattern lies
  /// wholly inside exactly one appended run.
  std::size_t find_runs(ByteView text, std::vector<CandidateRun>& runs) const;

  /// Fused screen: one pass over `text` feeds both filters' tables and
  /// appends each filter's runs to its own list, exactly as two
  /// find_runs calls would. Uses the narrower of the two kernels. The
  /// filters must share a fragment width unless one is empty (unequal
  /// widths fall back to two passes). Returns the total confirmed
  /// fragment occurrences.
  static std::size_t find_runs(const LiteralPrefilter& a,
                               const LiteralPrefilter& b, ByteView text,
                               std::vector<CandidateRun>& runs_a,
                               std::vector<CandidateRun>& runs_b);

 private:
  struct Kernels;  // the W-templated scan kernels (literal_prefilter.cpp)

  /// One stored fragment: its W bytes as a host-order key, and the
  /// window a text occurrence at position p widens to:
  /// [p - rewind, p + extent). extent == 0 marks an empty hash slot.
  struct Fragment {
    std::uint32_t key = 0;
    std::uint32_t rewind = 0;
    std::uint32_t extent = 0;
  };

  /// Registers byte `b` of fragment position `j` for `bucket`.
  void admit_byte(std::size_t j, std::uint8_t b, unsigned bucket);
  const Fragment* lookup(std::uint32_t key) const;

  bool usable_ = false;
  bool empty_ = true;
  bool case_insensitive_ = false;
  std::size_t width_ = 0;    ///< W: fragment bytes per pattern
  std::size_t max_len_ = 0;  ///< longest pattern
  std::size_t fragments_ = 0;
  Kernel kernel_ = Kernel::Scalar;
  // Per-position nibble tables: lo_[j][n] (hi_[j][n]) is the bitmap of
  // buckets owning a fragment whose j-th byte has low (high) nibble n.
  alignas(16) std::uint8_t lo_[4][16] = {};
  alignas(16) std::uint8_t hi_[4][16] = {};
  // SWAR fallback: byte j of tbl32_[b] is lo_[j][b&15] & hi_[j][b>>4]
  // (zero for j >= W), so the W-position AND pipelines through one
  // 32-bit shift/or/and per input byte.
  std::uint32_t tbl32_[256] = {};
  // Exact-confirm hash: open addressing, linear probing, power-of-two
  // size at least twice the fragment count.
  std::vector<Fragment> slots_;
  unsigned slot_shift_ = 32;
};

}  // namespace endbox::idps
