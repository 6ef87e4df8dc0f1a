#include "crypto/sha256.hpp"

#include <atomic>
#include <stdexcept>

#include "common/cpu_features.hpp"
#include "crypto/kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ENDBOX_SHA_NI 1
#endif

namespace endbox::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

/// Portable compression of `blocks` consecutive 64-byte blocks.
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = get_u32(data + i * 4);
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = s0 + maj;
      h = g; g = f; f = e;
      e = d + temp1;
      d = c; c = b; b = a;
      a = temp1 + temp2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

/// Where the blocks of one HMAC's inner hash are: an optional first
/// block built on the stack (prefix plus the head of the data), whole
/// blocks read in place from the data, and the padded tail (one or two
/// blocks, on the stack).
struct HmacBlocks {
  const std::uint8_t* head;  ///< one block, or nullptr
  const std::uint8_t* body;
  std::size_t body_blocks;
  const std::uint8_t* tail;
  std::size_t tail_blocks;
};

/// Bit length of the outer hash's message: key^opad block + digest.
constexpr std::uint32_t kOuterBits = (64 + kSha256DigestSize) * 8;

void hmac_portable(const std::uint32_t* inner, const std::uint32_t* outer,
                   const HmacBlocks& blocks, std::uint8_t* mac) {
  std::uint32_t state[8];
  std::memcpy(state, inner, sizeof state);
  if (blocks.head) compress_portable(state, blocks.head, 1);
  compress_portable(state, blocks.body, blocks.body_blocks);
  compress_portable(state, blocks.tail, blocks.tail_blocks);
  std::uint8_t block[64] = {};
  for (int i = 0; i < 8; ++i) put_u32(block + 4 * i, state[i]);
  block[kSha256DigestSize] = 0x80;
  put_u64(block + 56, kOuterBits);
  std::memcpy(state, outer, sizeof state);
  compress_portable(state, block, 1);
  for (int i = 0; i < 8; ++i) put_u32(mac + 4 * i, state[i]);
}

#ifdef ENDBOX_SHA_NI

// SHA-NI kernels (Intel SHA extensions). sha256rnds2 keeps the working
// variables as ABEF/CDGH register pairs, so the state is repacked from
// A..H order once per call, not per block. Message words are scheduled
// four at a time: W[t..t+3] =
// msg2(msg1(W[t-16..], W[t-12..]) + W[t-7..t-4], W[t-4..t-1]).

#define ENDBOX_SHA_TARGET __attribute__((target("sha,sse4.1")))

ENDBOX_SHA_TARGET inline __m128i byte_swap_mask() {
  return _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
}

/// A..H state words -> ABEF/CDGH register pair.
ENDBOX_SHA_TARGET inline void load_state_ni(const std::uint32_t* state,
                                            __m128i& abef, __m128i& cdgh) {
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  abef = _mm_alignr_epi8(cdab, efgh, 8);
  cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
}

/// ABEF/CDGH register pair -> A..D and E..H, word i in lane i (the
/// layout of both the state array and a block's message words).
ENDBOX_SHA_TARGET inline void state_words_ni(__m128i abef, __m128i cdgh,
                                             __m128i& abcd, __m128i& efgh) {
  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  abcd = _mm_blend_epi16(feba, dchg, 0xf0);
  efgh = _mm_alignr_epi8(dchg, feba, 8);
}

/// The 64 rounds of one block whose message words W0..W15 are w0..w3
/// (W[4g+i] in lane i), plus the feed-forward of the input state.
ENDBOX_SHA_TARGET inline void rounds_ni(__m128i& abef, __m128i& cdgh, __m128i w0,
                                        __m128i w1, __m128i w2, __m128i w3) {
  const __m128i abef_in = abef, cdgh_in = cdgh;
  __m128i w[4] = {w0, w1, w2, w3};
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    __m128i& cur = w[g & 3];
    if (g >= 4) {
      const __m128i prev = w[(g - 1) & 3];
      cur = _mm_sha256msg1_epu32(cur, w[(g - 3) & 3]);
      cur = _mm_add_epi32(cur, _mm_alignr_epi8(prev, w[(g - 2) & 3], 4));
      cur = _mm_sha256msg2_epu32(cur, prev);
    }
    __m128i wk = _mm_add_epi32(
        cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * g)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
  }
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
}

/// Four big-endian message words from `p`, W[i] in lane i.
ENDBOX_SHA_TARGET inline __m128i load_words_ni(const std::uint8_t* p) {
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
                          byte_swap_mask());
}

ENDBOX_SHA_TARGET inline void blocks_ni(__m128i& abef, __m128i& cdgh,
                                        const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64)
    rounds_ni(abef, cdgh, load_words_ni(data), load_words_ni(data + 16),
              load_words_ni(data + 32), load_words_ni(data + 48));
}

ENDBOX_SHA_TARGET void compress_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                                       std::size_t blocks) {
  __m128i abef, cdgh, abcd, efgh;
  load_state_ni(state, abef, cdgh);
  blocks_ni(abef, cdgh, data, blocks);
  state_words_ni(abef, cdgh, abcd, efgh);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), efgh);
}

/// The whole HMAC in registers: the inner state, once the last inner
/// block is in, is already the outer block's first eight message words
/// (the digest as big-endian words), so it feeds the outer compression
/// without a byte-wise store and reload.
ENDBOX_SHA_TARGET void hmac_sha_ni(const std::uint32_t* inner, const std::uint32_t* outer,
                                   const HmacBlocks& blocks, std::uint8_t* mac) {
  __m128i abef, cdgh;
  load_state_ni(inner, abef, cdgh);
  if (blocks.head) blocks_ni(abef, cdgh, blocks.head, 1);
  blocks_ni(abef, cdgh, blocks.body, blocks.body_blocks);
  blocks_ni(abef, cdgh, blocks.tail, blocks.tail_blocks);
  __m128i w0, w1;
  state_words_ni(abef, cdgh, w0, w1);
  const __m128i w2 = _mm_set_epi32(0, 0, 0, static_cast<int>(0x80000000u));
  const __m128i w3 = _mm_set_epi32(static_cast<int>(kOuterBits), 0, 0, 0);
  load_state_ni(outer, abef, cdgh);
  rounds_ni(abef, cdgh, w0, w1, w2, w3);
  state_words_ni(abef, cdgh, w0, w1);
  const __m128i swap = byte_swap_mask();
  _mm_storeu_si128(reinterpret_cast<__m128i*>(mac), _mm_shuffle_epi8(w0, swap));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(mac + 16), _mm_shuffle_epi8(w1, swap));
}

#endif  // ENDBOX_SHA_NI

/// One implementation of the SHA-256 entry points.
struct ShaKernelSet {
  void (*compress)(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks);
  void (*hmac)(const std::uint32_t* inner, const std::uint32_t* outer,
               const HmacBlocks& blocks, std::uint8_t* mac);
};

constexpr ShaKernelSet kPortableSha{compress_portable, hmac_portable};
#ifdef ENDBOX_SHA_NI
constexpr ShaKernelSet kShaNi{compress_sha_ni, hmac_sha_ni};
#endif

const ShaKernelSet* kernel_set(CryptoKernel kernel) {
#ifdef ENDBOX_SHA_NI
  if (kernel == CryptoKernel::Hardware) return &kShaNi;
#endif
  (void)kernel;
  return &kPortableSha;
}

std::atomic<const ShaKernelSet*>& selected() {
  static std::atomic<const ShaKernelSet*> set{kernel_set(
      common::has_sha_ni() ? CryptoKernel::Hardware : CryptoKernel::Portable)};
  return set;
}

const ShaKernelSet& kernels() { return *selected().load(std::memory_order_relaxed); }

void compress(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  kernels().compress(state, data, blocks);
}

}  // namespace

CryptoKernel sha256_kernel() {
  return selected().load(std::memory_order_relaxed) == &kPortableSha
             ? CryptoKernel::Portable
             : CryptoKernel::Hardware;
}

bool pin_sha256_kernel(CryptoKernel kernel) {
  if (kernel == CryptoKernel::Hardware && !common::hardware_has_sha_ni()) return false;
  selected().store(kernel_set(kernel), std::memory_order_relaxed);
  return true;
}

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

Sha256::Sha256(const Sha256State& state, std::uint64_t bytes_hashed)
    : state_(state), total_bytes_(bytes_hashed) {}

void Sha256::update(ByteView data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    std::size_t to_copy = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), to_copy);
    buffered_ += to_copy;
    offset = to_copy;
    if (buffered_ == buffer_.size()) {
      compress(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (std::size_t blocks = (data.size() - offset) / 64; blocks > 0) {
    compress(state_.data(), data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha256Digest Sha256::finish() {
  std::uint64_t bit_len = total_bytes_ * 8;
  // 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit length:
  // one update, so the final block(s) cost one kernel call.
  std::uint8_t pad[72] = {0x80};
  std::size_t pad_len = (buffered_ < 56) ? 56 - buffered_ : 120 - buffered_;
  put_u64(pad + pad_len, bit_len);
  update(ByteView(pad, pad_len + 8));

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::hash(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

void sha256_hmac(const Sha256State& inner, const Sha256State& outer,
                 ByteView prefix, ByteView data, std::uint8_t* mac) {
  // Inner message: key^ipad (already in `inner`), prefix, data.
  const std::size_t plen = prefix.size();
  if (plen >= 64) throw std::invalid_argument("sha256_hmac: prefix must be under 64 bytes");
  alignas(16) std::uint8_t head[64];
  alignas(16) std::uint8_t tail[128];
  HmacBlocks blocks{nullptr, data.data(), 0, tail, 0};
  std::size_t rest = data.size();
  std::size_t t = 0;  // bytes staged in `tail`
  if (plen > 0 && plen + rest >= 64) {
    std::memcpy(head, prefix.data(), plen);
    std::memcpy(head + plen, data.data(), 64 - plen);
    blocks.head = head;
    blocks.body += 64 - plen;
    rest -= 64 - plen;
  } else if (plen > 0) {
    std::memcpy(tail, prefix.data(), plen);  // prefix and data fit the tail
    t = plen;
  }
  blocks.body_blocks = rest / 64;
  const std::size_t tail_len = rest % 64;
  if (tail_len > 0) std::memcpy(tail + t, blocks.body + blocks.body_blocks * 64, tail_len);
  t += tail_len;
  blocks.tail_blocks = t < 56 ? 1 : 2;
  const std::size_t end = blocks.tail_blocks * 64;
  tail[t] = 0x80;
  std::memset(tail + t + 1, 0, end - 8 - (t + 1));
  put_u64(tail + end - 8, (64 + plen + data.size()) * 8);
  kernels().hmac(inner.data(), outer.data(), blocks, mac);
}

Bytes sha256(ByteView data) {
  auto d = Sha256::hash(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace endbox::crypto
