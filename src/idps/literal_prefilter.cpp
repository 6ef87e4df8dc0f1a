#include "idps/literal_prefilter.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <map>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace endbox::idps {

namespace {

// Byte-frequency rank for generic English text and HTTP/HTML traffic,
// in the spirit of the byte-rank tables the Rust memchr / aho-corasick
// crates use to pick rare bytes: higher = more common. Space and the
// common lower-case letters in English frequency order come first,
// then the structure bytes of HTTP (line breaks, '/', ':', '=',
// digits), the capitals that open words and spell methods and header
// names, markup punctuation, and last the rare letters and the
// escape / identifier punctuation; everything not listed — control
// bytes and non-ASCII — ranks 0. The ranking only affects how often
// the exact confirm runs on clean text, never correctness.
constexpr std::string_view kByFrequency =
    " etaoinsrhldcumfpgwybvk\r\n.,/-:=0123456789"
    "TSAICMBPHDRWLFENGOJKUVYXQZ\"'();<>&?!xjqz+*#%_[]@|{}\\$^~`\t";

constexpr std::array<std::uint8_t, 256> make_text_rank() {
  std::array<std::uint8_t, 256> rank{};
  for (std::size_t i = 0; i < kByFrequency.size(); ++i)
    rank[static_cast<std::uint8_t>(kByFrequency[i])] =
        static_cast<std::uint8_t>(255 - i);
  return rank;
}

constexpr std::array<std::uint8_t, 256> kTextRank = make_text_rank();

/// Commonness of a candidate fragment (lower = rarer in text): its
/// rarest byte first, then the rank sum. Ranking by the rarest byte
/// keeps all-capital tokens such as "POST" or "GET " — rare letters
/// one by one, but present in every request — from beating a window
/// that holds one genuinely rare byte.
unsigned window_commonness(const std::uint8_t* p, std::size_t width) {
  unsigned rarest = 255, sum = 0;
  for (std::size_t j = 0; j < width; ++j) {
    rarest = std::min<unsigned>(rarest, kTextRank[p[j]]);
    sum += kTextRank[p[j]];
  }
  return rarest << 10 | sum;
}

/// Position of a fragment's rarest byte (the first, on ties).
std::size_t rarest_position(const std::array<std::uint8_t, 4>& frag,
                            std::size_t width) {
  std::size_t best = 0;
  for (std::size_t j = 1; j < width; ++j)
    if (kTextRank[frag[j]] < kTextRank[frag[best]]) best = j;
  return best;
}

/// `width` bytes as a host-order key, ASCII-folded when `fold` (the
/// nocase set); stored fragments and text windows are keyed alike.
std::uint32_t fragment_key(const std::uint8_t* p, std::size_t width,
                           bool fold) {
  std::uint8_t bytes[4] = {};
  for (std::size_t j = 0; j < width; ++j)
    bytes[j] = fold ? ascii_lower(p[j]) : p[j];
  std::uint32_t key;
  std::memcpy(&key, bytes, sizeof(key));
  return key;
}

std::uint32_t slot_hash(std::uint32_t key, unsigned shift) {
  return static_cast<std::uint32_t>((key * 0x9e3779b1u) >> shift);
}

}  // namespace

void LiteralPrefilter::admit_byte(std::size_t j, std::uint8_t b,
                                  unsigned bucket) {
  lo_[j][b & 0x0f] |= static_cast<std::uint8_t>(1u << bucket);
  hi_[j][b >> 4] |= static_cast<std::uint8_t>(1u << bucket);
}

const LiteralPrefilter::Fragment* LiteralPrefilter::lookup(
    std::uint32_t key) const {
  const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size() - 1);
  for (std::uint32_t s = slot_hash(key, slot_shift_);; s = (s + 1) & mask) {
    const Fragment& slot = slots_[s];
    if (slot.extent == 0) return nullptr;
    if (slot.key == key) return &slot;
  }
}

bool LiteralPrefilter::is_fragment(ByteView window) const {
  if (empty_ || window.size() != width_) return false;
  return lookup(fragment_key(window.data(), width_, case_insensitive_)) !=
         nullptr;
}

void LiteralPrefilter::build(std::span<const ByteView> patterns,
                             bool case_insensitive, std::size_t max_width) {
  usable_ = false;
  empty_ = true;
  case_insensitive_ = case_insensitive;
  width_ = 0;
  max_len_ = 0;
  fragments_ = 0;
  std::memset(lo_, 0, sizeof(lo_));
  std::memset(hi_, 0, sizeof(hi_));
  std::memset(tbl32_, 0, sizeof(tbl32_));
  slots_.clear();
  kernel_ = common::current_simd_level();

  if (patterns.empty()) {
    usable_ = true;  // nothing can match: every payload is clean
    return;
  }
  std::size_t min_len = patterns[0].size();
  for (ByteView p : patterns) {
    min_len = std::min(min_len, p.size());
    max_len_ = std::max(max_len_, p.size());
  }
  if (min_len < 2) return;  // 1-byte literal: no fragment, stay unusable
  empty_ = false;
  width_ = std::min({std::size_t{4}, std::max<std::size_t>(2, max_width),
                     min_len});

  // Rarest W-byte window of each pattern becomes its fragment; patterns
  // sharing a fragment share its window, sized for all of them.
  std::map<std::array<std::uint8_t, 4>, Fragment> owned;
  for (ByteView p : patterns) {
    std::size_t best_off = 0;
    unsigned best_score = ~0u;
    for (std::size_t off = 0; off + width_ <= p.size(); ++off) {
      unsigned score = window_commonness(p.data() + off, width_);
      if (score < best_score) {
        best_score = score;
        best_off = off;
      }
    }
    std::array<std::uint8_t, 4> frag{};
    for (std::size_t j = 0; j < width_; ++j)
      frag[j] = case_insensitive ? ascii_lower(p[best_off + j]) : p[best_off + j];
    Fragment& f = owned[frag];
    f.rewind = std::max(f.rewind, static_cast<std::uint32_t>(best_off));
    f.extent = std::max(f.extent, static_cast<std::uint32_t>(p.size() - best_off));
  }
  fragments_ = owned.size();

  // Buckets never mix positions of the rarest byte: each position some
  // fragment's rarest byte sits at gets buckets of its own (one, plus
  // the spare buckets handed to the fullest), and its fragments split
  // contiguously in lexicographic order. That position's nibble sets
  // in a bucket then hold only rare bytes, and shared prefixes keep
  // the other positions' sets small, so text yields few cross-product
  // candidates for the exact confirm.
  std::array<std::size_t, 4> group_size{}, group_buckets{}, first_bucket{},
      placed{};
  for (const auto& entry : owned) ++group_size[rarest_position(entry.first, width_)];
  const std::size_t buckets = std::min<std::size_t>(8, owned.size());
  std::size_t assigned = 0;
  for (std::size_t g = 0; g < 4; ++g) {
    if (group_size[g] != 0) {
      group_buckets[g] = 1;
      ++assigned;
    }
  }
  for (; assigned < buckets; ++assigned) {
    std::size_t fullest = 4;
    for (std::size_t g = 0; g < 4; ++g)
      if (group_size[g] != 0 &&
          (fullest == 4 || group_size[g] * group_buckets[fullest] >
                               group_size[fullest] * group_buckets[g]))
        fullest = g;
    ++group_buckets[fullest];
  }
  for (std::size_t g = 1; g < 4; ++g)
    first_bucket[g] = first_bucket[g - 1] + group_buckets[g - 1];

  std::size_t slots = 2;
  while (slots < 2 * owned.size()) slots *= 2;
  slots_.assign(slots, Fragment{});
  slot_shift_ = 32 - static_cast<unsigned>(std::countr_zero(slots));
  for (auto& [frag, f] : owned) {
    const std::size_t g = rarest_position(frag, width_);
    const unsigned bucket = static_cast<unsigned>(
        first_bucket[g] + placed[g]++ * group_buckets[g] / group_size[g]);
    for (std::size_t j = 0; j < width_; ++j) {
      std::uint8_t b = frag[j];
      admit_byte(j, b, bucket);
      // Nocase fragments are stored lower-cased; admitting the upper
      // form too lets the filter scan the raw (unlowered) text.
      if (case_insensitive && b >= 'a' && b <= 'z')
        admit_byte(j, static_cast<std::uint8_t>(b - 'a' + 'A'), bucket);
    }
    f.key = fragment_key(frag.data(), width_, false);
    std::uint32_t s = slot_hash(f.key, slot_shift_);
    while (slots_[s].extent != 0) s = (s + 1) & (slots - 1);
    slots_[s] = f;
  }

  for (unsigned b = 0; b < 256; ++b) {
    std::uint32_t v = 0;
    for (std::size_t j = 0; j < width_; ++j)
      v |= static_cast<std::uint32_t>(lo_[j][b & 0x0f] & hi_[j][b >> 4])
           << (8 * j);
    tbl32_[b] = v;
  }
  usable_ = true;
}

struct LiteralPrefilter::Kernels {
  /// One table set being screened and the run list it appends to;
  /// `base` is the list's length before this scan, so merging never
  /// touches runs of an earlier text.
  struct Set {
    const LiteralPrefilter* filter;
    std::vector<CandidateRun>* runs;
    std::size_t base;
  };

  /// Exact confirm of a nibble candidate at `start`: only a true
  /// fragment occurrence becomes a window, merged into the set's runs.
  /// Candidates of one set arrive in ascending `start` order, and a
  /// window's end is at least its start, so a new window can only
  /// overlap the trailing runs — it absorbs them and the list stays
  /// ascending and disjoint.
  template <unsigned W>
  static std::size_t confirm(const Set& set, const std::uint8_t* data,
                             std::size_t start, std::size_t len) {
    const LiteralPrefilter& f = *set.filter;
    const Fragment* frag =
        f.lookup(fragment_key(data + start, W, f.case_insensitive_));
    if (frag == nullptr) return 0;
    std::uint32_t begin = static_cast<std::uint32_t>(
        start > frag->rewind ? start - frag->rewind : 0);
    std::uint32_t end =
        static_cast<std::uint32_t>(std::min(len, start + frag->extent));
    std::vector<CandidateRun>& runs = *set.runs;
    while (runs.size() > set.base && begin <= runs.back().end) {
      begin = std::min(begin, runs.back().begin);
      end = std::max(end, runs.back().end);
      runs.pop_back();
    }
    runs.push_back({begin, end});
    return 1;
  }

  /// Portable SWAR kernel. Zero-initialised history: byte j of `acc`
  /// becomes valid only after j+1 input bytes, so no fragment is taken
  /// to start before the text.
  template <unsigned W, unsigned N>
  static std::size_t scalar(const Set* sets, const std::uint8_t* data,
                            std::size_t len) {
    constexpr unsigned kShift = 8 * (W - 1);
    std::uint32_t acc[N] = {};
    std::size_t count = 0;
    for (std::size_t i = 0; i < len; ++i) {
      for (unsigned s = 0; s < N; ++s) {
        acc[s] = ((acc[s] << 8) | 0xffu) & sets[s].filter->tbl32_[data[i]];
        if ((acc[s] >> kShift) != 0)
          count += confirm<W>(sets[s], data, i - (W - 1), len);
      }
    }
    return count;
  }

#if defined(__x86_64__) || defined(__i386__)
  // Both SIMD kernels load the block once per fragment position j at
  // offset +j (shifted loads instead of shifting bucket bitmaps across
  // blocks), so result byte k covers the fragment starting at base+k
  // and no state carries between blocks. Each shifted load's nibble
  // split is shared by every table set. The last block is moved back
  // to end exactly at the text's last fragment start, overlapping its
  // predecessor; starts that block already covered are masked off, so
  // no scalar tail remains. Texts shorter than one block go to the
  // narrower kernel.

  template <unsigned W, unsigned N>
  __attribute__((target("ssse3"))) static std::size_t ssse3(
      const Set* sets, const std::uint8_t* data, std::size_t len) {
    if (len < 16 + W - 1) return scalar<W, N>(sets, data, len);
    __m128i lo[N][W], hi[N][W];
    for (unsigned s = 0; s < N; ++s) {
      for (unsigned j = 0; j < W; ++j) {
        lo[s][j] = _mm_load_si128(
            reinterpret_cast<const __m128i*>(sets[s].filter->lo_[j]));
        hi[s][j] = _mm_load_si128(
            reinterpret_cast<const __m128i*>(sets[s].filter->hi_[j]));
      }
    }
    const __m128i nibble = _mm_set1_epi8(0x0f);
    const __m128i zero = _mm_setzero_si128();
    const std::size_t last = len - 16 - (W - 1);
    std::size_t count = 0;
    for (std::size_t i = 0;; i += 16) {
      const std::size_t base = std::min(i, last);
      __m128i res[N];
      for (unsigned j = 0; j < W; ++j) {
        __m128i in =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + base + j));
        __m128i lo_n = _mm_and_si128(in, nibble);
        __m128i hi_n = _mm_and_si128(_mm_srli_epi16(in, 4), nibble);
        for (unsigned s = 0; s < N; ++s) {
          __m128i bits = _mm_and_si128(_mm_shuffle_epi8(lo[s][j], lo_n),
                                       _mm_shuffle_epi8(hi[s][j], hi_n));
          res[s] = j == 0 ? bits : _mm_and_si128(res[s], bits);
        }
      }
      __m128i any = res[0];
      for (unsigned s = 1; s < N; ++s) any = _mm_or_si128(any, res[s]);
      if (_mm_movemask_epi8(_mm_cmpeq_epi8(any, zero)) != 0xffff) {
        const unsigned fresh = (0xffffu << (i - base)) & 0xffffu;
        for (unsigned s = 0; s < N; ++s) {
          unsigned mask = ~static_cast<unsigned>(
                              _mm_movemask_epi8(_mm_cmpeq_epi8(res[s], zero))) &
                          fresh;
          for (; mask != 0; mask &= mask - 1)
            count += confirm<W>(sets[s], data, base + std::countr_zero(mask), len);
        }
      }
      if (base == last) return count;
    }
  }

  template <unsigned W, unsigned N>
  __attribute__((target("avx2"))) static std::size_t avx2(
      const Set* sets, const std::uint8_t* data, std::size_t len) {
    if (len < 32 + W - 1) return ssse3<W, N>(sets, data, len);
    __m256i lo[N][W], hi[N][W];
    for (unsigned s = 0; s < N; ++s) {
      for (unsigned j = 0; j < W; ++j) {
        lo[s][j] = _mm256_broadcastsi128_si256(_mm_load_si128(
            reinterpret_cast<const __m128i*>(sets[s].filter->lo_[j])));
        hi[s][j] = _mm256_broadcastsi128_si256(_mm_load_si128(
            reinterpret_cast<const __m128i*>(sets[s].filter->hi_[j])));
      }
    }
    const __m256i nibble = _mm256_set1_epi8(0x0f);
    const __m256i zero = _mm256_setzero_si256();
    const std::size_t last = len - 32 - (W - 1);
    std::size_t count = 0;
    for (std::size_t i = 0;; i += 32) {
      const std::size_t base = std::min(i, last);
      __m256i res[N];
      for (unsigned j = 0; j < W; ++j) {
        __m256i in = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(data + base + j));
        __m256i lo_n = _mm256_and_si256(in, nibble);
        __m256i hi_n = _mm256_and_si256(_mm256_srli_epi16(in, 4), nibble);
        for (unsigned s = 0; s < N; ++s) {
          __m256i bits = _mm256_and_si256(_mm256_shuffle_epi8(lo[s][j], lo_n),
                                          _mm256_shuffle_epi8(hi[s][j], hi_n));
          res[s] = j == 0 ? bits : _mm256_and_si256(res[s], bits);
        }
      }
      __m256i any = res[0];
      for (unsigned s = 1; s < N; ++s) any = _mm256_or_si256(any, res[s]);
      if (!_mm256_testz_si256(any, any)) {
        const std::uint32_t fresh = 0xffffffffu << (i - base);
        for (unsigned s = 0; s < N; ++s) {
          std::uint32_t mask = ~static_cast<std::uint32_t>(_mm256_movemask_epi8(
                                   _mm256_cmpeq_epi8(res[s], zero))) &
                               fresh;
          for (; mask != 0; mask &= mask - 1)
            count += confirm<W>(sets[s], data, base + std::countr_zero(mask), len);
        }
      }
      if (base == last) return count;
    }
  }
#endif  // x86

  template <unsigned W, unsigned N>
  static std::size_t run(Kernel kernel, const Set* sets, ByteView text) {
#if defined(__x86_64__) || defined(__i386__)
    if (kernel == Kernel::Avx2) return avx2<W, N>(sets, text.data(), text.size());
    if (kernel == Kernel::Ssse3) return ssse3<W, N>(sets, text.data(), text.size());
#else
    (void)kernel;
#endif
    return scalar<W, N>(sets, text.data(), text.size());
  }

  template <unsigned N>
  static std::size_t dispatch(Kernel kernel, std::size_t width, const Set* sets,
                              ByteView text) {
    if (text.size() < width) return 0;
    switch (width) {
      case 2:
        return run<2, N>(kernel, sets, text);
      case 3:
        return run<3, N>(kernel, sets, text);
      default:
        return run<4, N>(kernel, sets, text);
    }
  }
};

std::size_t LiteralPrefilter::find_runs(ByteView text,
                                        std::vector<CandidateRun>& runs) const {
  if (empty_) return 0;
  const Kernels::Set set{this, &runs, runs.size()};
  return Kernels::dispatch<1>(kernel_, width_, &set, text);
}

std::size_t LiteralPrefilter::find_runs(const LiteralPrefilter& a,
                                        const LiteralPrefilter& b, ByteView text,
                                        std::vector<CandidateRun>& runs_a,
                                        std::vector<CandidateRun>& runs_b) {
  if (a.empty_ || b.empty_ || a.width_ != b.width_)
    return a.find_runs(text, runs_a) + b.find_runs(text, runs_b);
  const Kernels::Set sets[2] = {{&a, &runs_a, runs_a.size()},
                                {&b, &runs_b, runs_b.size()}};
  return Kernels::dispatch<2>(std::min(a.kernel_, b.kernel_), a.width_, sets,
                              text);
}

}  // namespace endbox::idps
