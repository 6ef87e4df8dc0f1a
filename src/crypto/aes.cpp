#include "crypto/aes.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>

#include "common/cpu_features.hpp"
#include "crypto/kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ENDBOX_AES_NI 1
#endif

namespace endbox::crypto {

/// Grants the mode functions access to an Aes128's round keys.
struct AesRoundKeys {
  static const std::uint8_t* enc(const Aes128& aes) { return aes.ek_.data(); }
  static const std::uint8_t* dec(const Aes128& aes) { return aes.dk_.data(); }
};

namespace {

// S-box generated from the AES definition (multiplicative inverse in
// GF(2^8) followed by the affine transform).
constexpr std::array<std::uint8_t, 256> make_sbox() {
  std::array<std::uint8_t, 256> sbox{};
  // Build log/antilog tables over GF(2^8) with generator 3.
  std::array<std::uint8_t, 256> log{}, alog{};
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    alog[i] = x;
    log[x] = static_cast<std::uint8_t>(i);
    // multiply x by generator 3 = x ^ (x*2)
    std::uint8_t x2 = static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0));
    x = static_cast<std::uint8_t>(x ^ x2);
  }
  for (int i = 0; i < 256; ++i) {
    // g^255 == g^0 == 1, so reduce the exponent mod 255 (alog has 255 entries).
    std::uint8_t inv =
        (i == 0) ? 0 : alog[(255 - log[static_cast<std::uint8_t>(i)]) % 255];
    std::uint8_t s = inv;
    // affine transform: s ^= rotl(inv,1..4) ^ 0x63
    std::uint8_t r = inv;
    for (int j = 0; j < 4; ++j) {
      r = static_cast<std::uint8_t>((r << 1) | (r >> 7));
      s ^= r;
    }
    sbox[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(s ^ 0x63);
  }
  return sbox;
}

constexpr std::array<std::uint8_t, 256> kSbox = make_sbox();

constexpr std::array<std::uint8_t, 256> make_inv_sbox() {
  std::array<std::uint8_t, 256> inv{};
  for (int i = 0; i < 256; ++i) inv[kSbox[static_cast<std::size_t>(i)]] = static_cast<std::uint8_t>(i);
  return inv;
}

constexpr std::array<std::uint8_t, 256> kInvSbox = make_inv_sbox();

inline constexpr std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
}

// Precomputed GF(2^8) multiplication tables for the MixColumns /
// InvMixColumns constants used while generating the T-tables.
template <std::uint8_t C>
constexpr std::array<std::uint8_t, 256> make_gmul_table() {
  std::array<std::uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t a = static_cast<std::uint8_t>(i), b = C, r = 0;
    while (b) {
      if (b & 1) r ^= a;
      a = static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
      b >>= 1;
    }
    table[static_cast<std::size_t>(i)] = r;
  }
  return table;
}
constexpr auto kMul2 = make_gmul_table<2>();
constexpr auto kMul3 = make_gmul_table<3>();
constexpr auto kMul9 = make_gmul_table<9>();
constexpr auto kMul11 = make_gmul_table<11>();
constexpr auto kMul13 = make_gmul_table<13>();
constexpr auto kMul14 = make_gmul_table<14>();

// T-tables (rijndael-alg-fst formulation): each entry is one S-box
// substitution pre-multiplied through MixColumns, so a full round is 16
// table lookups + XORs instead of per-byte GF arithmetic. Te{1,2,3} and
// Td{1,2,3} are byte rotations of Te0/Td0.
constexpr std::array<std::uint32_t, 256> make_te(unsigned rot) {
  std::array<std::uint32_t, 256> t{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t s = kSbox[static_cast<std::size_t>(i)];
    std::uint32_t w = (static_cast<std::uint32_t>(kMul2[s]) << 24) |
                      (static_cast<std::uint32_t>(s) << 16) |
                      (static_cast<std::uint32_t>(s) << 8) |
                      static_cast<std::uint32_t>(kMul3[s]);
    t[static_cast<std::size_t>(i)] = std::rotr(w, static_cast<int>(rot));
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> make_td(unsigned rot) {
  std::array<std::uint32_t, 256> t{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t s = kInvSbox[static_cast<std::size_t>(i)];
    std::uint32_t w = (static_cast<std::uint32_t>(kMul14[s]) << 24) |
                      (static_cast<std::uint32_t>(kMul9[s]) << 16) |
                      (static_cast<std::uint32_t>(kMul13[s]) << 8) |
                      static_cast<std::uint32_t>(kMul11[s]);
    t[static_cast<std::size_t>(i)] = std::rotr(w, static_cast<int>(rot));
  }
  return t;
}

constexpr auto kTe0 = make_te(0), kTe1 = make_te(8), kTe2 = make_te(16), kTe3 = make_te(24);
constexpr auto kTd0 = make_td(0), kTd1 = make_td(8), kTd2 = make_td(16), kTd3 = make_td(24);

inline constexpr std::uint32_t sub_word(std::uint32_t w) {
  return (static_cast<std::uint32_t>(kSbox[w >> 24]) << 24) |
         (static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
         static_cast<std::uint32_t>(kSbox[w & 0xff]);
}

// InvMixColumns of one round-key word, expressed via the decryption
// T-tables (Td contains InvSbox, which S cancels).
inline constexpr std::uint32_t inv_mix_word(std::uint32_t w) {
  return kTd0[kSbox[w >> 24]] ^ kTd1[kSbox[(w >> 16) & 0xff]] ^
         kTd2[kSbox[(w >> 8) & 0xff]] ^ kTd3[kSbox[w & 0xff]];
}


// ---- Portable kernels: T-table rounds over the byte-order schedule ----

void encrypt_block_portable(const std::uint8_t* ek, const std::uint8_t* in,
                            std::uint8_t* out) {
  std::uint32_t s0 = get_u32(in) ^ get_u32(ek);
  std::uint32_t s1 = get_u32(in + 4) ^ get_u32(ek + 4);
  std::uint32_t s2 = get_u32(in + 8) ^ get_u32(ek + 8);
  std::uint32_t s3 = get_u32(in + 12) ^ get_u32(ek + 12);
  for (int round = 1; round < 10; ++round) {
    const std::uint8_t* rk = ek + round * 16;
    std::uint32_t t0 = kTe0[s0 >> 24] ^ kTe1[(s1 >> 16) & 0xff] ^
                       kTe2[(s2 >> 8) & 0xff] ^ kTe3[s3 & 0xff] ^ get_u32(rk);
    std::uint32_t t1 = kTe0[s1 >> 24] ^ kTe1[(s2 >> 16) & 0xff] ^
                       kTe2[(s3 >> 8) & 0xff] ^ kTe3[s0 & 0xff] ^ get_u32(rk + 4);
    std::uint32_t t2 = kTe0[s2 >> 24] ^ kTe1[(s3 >> 16) & 0xff] ^
                       kTe2[(s0 >> 8) & 0xff] ^ kTe3[s1 & 0xff] ^ get_u32(rk + 8);
    std::uint32_t t3 = kTe0[s3 >> 24] ^ kTe1[(s0 >> 16) & 0xff] ^
                       kTe2[(s1 >> 8) & 0xff] ^ kTe3[s2 & 0xff] ^ get_u32(rk + 12);
    s0 = t0; s1 = t1; s2 = t2; s3 = t3;
  }
  const std::uint8_t* rk = ek + 160;
  put_u32(out, (sub_word((s0 & 0xff000000u) | (s1 & 0x00ff0000u) |
                         (s2 & 0x0000ff00u) | (s3 & 0x000000ffu))) ^ get_u32(rk));
  put_u32(out + 4, (sub_word((s1 & 0xff000000u) | (s2 & 0x00ff0000u) |
                             (s3 & 0x0000ff00u) | (s0 & 0x000000ffu))) ^ get_u32(rk + 4));
  put_u32(out + 8, (sub_word((s2 & 0xff000000u) | (s3 & 0x00ff0000u) |
                             (s0 & 0x0000ff00u) | (s1 & 0x000000ffu))) ^ get_u32(rk + 8));
  put_u32(out + 12, (sub_word((s3 & 0xff000000u) | (s0 & 0x00ff0000u) |
                              (s1 & 0x0000ff00u) | (s2 & 0x000000ffu))) ^ get_u32(rk + 12));
}

void decrypt_block_portable(const std::uint8_t* dk, const std::uint8_t* in,
                            std::uint8_t* out) {
  std::uint32_t s0 = get_u32(in) ^ get_u32(dk);
  std::uint32_t s1 = get_u32(in + 4) ^ get_u32(dk + 4);
  std::uint32_t s2 = get_u32(in + 8) ^ get_u32(dk + 8);
  std::uint32_t s3 = get_u32(in + 12) ^ get_u32(dk + 12);
  for (int round = 1; round < 10; ++round) {
    const std::uint8_t* rk = dk + round * 16;
    std::uint32_t t0 = kTd0[s0 >> 24] ^ kTd1[(s3 >> 16) & 0xff] ^
                       kTd2[(s2 >> 8) & 0xff] ^ kTd3[s1 & 0xff] ^ get_u32(rk);
    std::uint32_t t1 = kTd0[s1 >> 24] ^ kTd1[(s0 >> 16) & 0xff] ^
                       kTd2[(s3 >> 8) & 0xff] ^ kTd3[s2 & 0xff] ^ get_u32(rk + 4);
    std::uint32_t t2 = kTd0[s2 >> 24] ^ kTd1[(s1 >> 16) & 0xff] ^
                       kTd2[(s0 >> 8) & 0xff] ^ kTd3[s3 & 0xff] ^ get_u32(rk + 8);
    std::uint32_t t3 = kTd0[s3 >> 24] ^ kTd1[(s2 >> 16) & 0xff] ^
                       kTd2[(s1 >> 8) & 0xff] ^ kTd3[s0 & 0xff] ^ get_u32(rk + 12);
    s0 = t0; s1 = t1; s2 = t2; s3 = t3;
  }
  const std::uint8_t* rk = dk + 160;
  auto inv_sub = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                    std::uint32_t d) {
    return (static_cast<std::uint32_t>(kInvSbox[a >> 24]) << 24) |
           (static_cast<std::uint32_t>(kInvSbox[(b >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(kInvSbox[(c >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(kInvSbox[d & 0xff]);
  };
  put_u32(out, inv_sub(s0, s3, s2, s1) ^ get_u32(rk));
  put_u32(out + 4, inv_sub(s1, s0, s3, s2) ^ get_u32(rk + 4));
  put_u32(out + 8, inv_sub(s2, s1, s0, s3) ^ get_u32(rk + 8));
  put_u32(out + 12, inv_sub(s3, s2, s1, s0) ^ get_u32(rk + 12));
}

void cbc_encrypt_portable(const std::uint8_t* ek, const std::uint8_t* iv,
                          std::uint8_t* buf, std::size_t blocks) {
  const std::uint8_t* prev = iv;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint8_t* block = buf + b * kAesBlockSize;
    for (std::size_t i = 0; i < kAesBlockSize; ++i) block[i] ^= prev[i];
    encrypt_block_portable(ek, block, block);
    prev = block;
  }
}

void cbc_encrypt_multi_portable(const CbcJob* jobs, std::size_t n) {
  for (const CbcJob& job : std::span(jobs, n))
    cbc_encrypt_portable(AesRoundKeys::enc(*job.aes), job.iv, job.buf.data(),
                         job.buf.size() / kAesBlockSize);
}

void cbc_decrypt_portable(const std::uint8_t* dk, const std::uint8_t* iv,
                          std::uint8_t* buf, std::size_t blocks) {
  std::uint8_t prev[kAesBlockSize];
  std::memcpy(prev, iv, kAesBlockSize);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint8_t* block = buf + b * kAesBlockSize;
    std::uint8_t saved[kAesBlockSize];
    std::memcpy(saved, block, kAesBlockSize);
    decrypt_block_portable(dk, block, block);
    for (std::size_t i = 0; i < kAesBlockSize; ++i) block[i] ^= prev[i];
    std::memcpy(prev, saved, kAesBlockSize);
  }
}

void ctr_portable(const std::uint8_t* ek, const std::uint8_t* nonce,
                  std::uint8_t* data, std::size_t len) {
  std::uint8_t counter[kAesBlockSize];
  std::memcpy(counter, nonce, kAesBlockSize);
  std::uint8_t keystream[kAesBlockSize];
  for (std::size_t off = 0; off < len; off += kAesBlockSize) {
    encrypt_block_portable(ek, counter, keystream);
    std::size_t n = std::min(kAesBlockSize, len - off);
    for (std::size_t i = 0; i < n; ++i) data[off + i] ^= keystream[i];
    // increment big-endian counter
    for (int i = kAesBlockSize - 1; i >= 0; --i)
      if (++counter[i] != 0) break;
  }
}

// ---- AES-NI kernels ----------------------------------------------------
//
// Compiled per function for the aes target, so the binary still runs
// on any x86-64; only called when cpuid reports AES-NI. The round keys
// are the same byte-order schedule the portable path reads (dk_ already
// carries InvMixColumns, which is what aesdec expects). CBC-encrypt of
// one buffer is a serial chain; CBC-decrypt and CTR have independent
// blocks, so they keep four in flight to cover the aesenc/aesdec
// latency, and the multi-buffer CBC-encrypt keeps four buffers' chains
// in flight instead.

#ifdef ENDBOX_AES_NI

#define ENDBOX_AES_TARGET __attribute__((target("aes")))

ENDBOX_AES_TARGET inline void load_round_keys(const std::uint8_t* rk,
                                              __m128i k[11]) {
  for (int r = 0; r < 11; ++r)
    k[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 16 * r));
}

ENDBOX_AES_TARGET inline __m128i load_block(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

ENDBOX_AES_TARGET inline void store_block(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

ENDBOX_AES_TARGET inline __m128i encrypt_ni(const __m128i k[11], __m128i b) {
  b = _mm_xor_si128(b, k[0]);
#pragma GCC unroll 9
  for (int r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, k[r]);
  return _mm_aesenclast_si128(b, k[10]);
}

ENDBOX_AES_TARGET inline __m128i decrypt_ni(const __m128i k[11], __m128i b) {
  b = _mm_xor_si128(b, k[0]);
#pragma GCC unroll 9
  for (int r = 1; r < 10; ++r) b = _mm_aesdec_si128(b, k[r]);
  return _mm_aesdeclast_si128(b, k[10]);
}

/// Encrypts four blocks in lock-step: four independent chains per
/// round keep the AES unit busy. Named operands, not an array, so the
/// blocks stay in registers.
ENDBOX_AES_TARGET inline void encrypt4_ni(const __m128i k[11], __m128i& b0,
                                          __m128i& b1, __m128i& b2, __m128i& b3) {
  b0 = _mm_xor_si128(b0, k[0]);
  b1 = _mm_xor_si128(b1, k[0]);
  b2 = _mm_xor_si128(b2, k[0]);
  b3 = _mm_xor_si128(b3, k[0]);
#pragma GCC unroll 9
  for (int r = 1; r < 10; ++r) {
    b0 = _mm_aesenc_si128(b0, k[r]);
    b1 = _mm_aesenc_si128(b1, k[r]);
    b2 = _mm_aesenc_si128(b2, k[r]);
    b3 = _mm_aesenc_si128(b3, k[r]);
  }
  b0 = _mm_aesenclast_si128(b0, k[10]);
  b1 = _mm_aesenclast_si128(b1, k[10]);
  b2 = _mm_aesenclast_si128(b2, k[10]);
  b3 = _mm_aesenclast_si128(b3, k[10]);
}

ENDBOX_AES_TARGET inline void decrypt4_ni(const __m128i k[11], __m128i& b0,
                                          __m128i& b1, __m128i& b2, __m128i& b3) {
  b0 = _mm_xor_si128(b0, k[0]);
  b1 = _mm_xor_si128(b1, k[0]);
  b2 = _mm_xor_si128(b2, k[0]);
  b3 = _mm_xor_si128(b3, k[0]);
#pragma GCC unroll 9
  for (int r = 1; r < 10; ++r) {
    b0 = _mm_aesdec_si128(b0, k[r]);
    b1 = _mm_aesdec_si128(b1, k[r]);
    b2 = _mm_aesdec_si128(b2, k[r]);
    b3 = _mm_aesdec_si128(b3, k[r]);
  }
  b0 = _mm_aesdeclast_si128(b0, k[10]);
  b1 = _mm_aesdeclast_si128(b1, k[10]);
  b2 = _mm_aesdeclast_si128(b2, k[10]);
  b3 = _mm_aesdeclast_si128(b3, k[10]);
}

ENDBOX_AES_TARGET void encrypt_block_ni(const std::uint8_t* ek,
                                        const std::uint8_t* in,
                                        std::uint8_t* out) {
  __m128i k[11];
  load_round_keys(ek, k);
  store_block(out, encrypt_ni(k, load_block(in)));
}

ENDBOX_AES_TARGET void decrypt_block_ni(const std::uint8_t* dk,
                                        const std::uint8_t* in,
                                        std::uint8_t* out) {
  __m128i k[11];
  load_round_keys(dk, k);
  store_block(out, decrypt_ni(k, load_block(in)));
}

ENDBOX_AES_TARGET void cbc_encrypt_ni(const std::uint8_t* ek,
                                      const std::uint8_t* iv,
                                      std::uint8_t* buf, std::size_t blocks) {
  __m128i k[11];
  load_round_keys(ek, k);
  __m128i chain = load_block(iv);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint8_t* p = buf + b * kAesBlockSize;
    chain = encrypt_ni(k, _mm_xor_si128(load_block(p), chain));
    store_block(p, chain);
  }
}

/// One chain of the multi-buffer CBC-encrypt: the job's round keys,
/// its next block, the blocks it has left and the running ciphertext.
struct CbcLane {
  const std::uint8_t* rk;
  std::uint8_t* p;
  std::size_t left;
  __m128i chain;
};

/// Advances L chains by `steps` blocks in lock-step. Each lane reads its
/// own round keys from memory (four schedules do not fit the register
/// file); L is a template argument so the lanes stay in registers and a
/// narrow tail issues no dummy work.
template <std::size_t L>
ENDBOX_AES_TARGET inline void cbc_lanes_ni(CbcLane* lane, std::size_t steps) {
  const std::uint8_t* k[L];
  std::uint8_t* p[L];
  __m128i c[L];
#pragma GCC unroll 4
  for (std::size_t l = 0; l < L; ++l) {
    k[l] = lane[l].rk;
    p[l] = lane[l].p;
    c[l] = lane[l].chain;
  }
  for (std::size_t s = 0; s < steps; ++s) {
    __m128i x[L];
#pragma GCC unroll 4
    for (std::size_t l = 0; l < L; ++l)
      x[l] = _mm_xor_si128(_mm_xor_si128(load_block(p[l]), c[l]), load_block(k[l]));
#pragma GCC unroll 9
    for (int r = 1; r < 10; ++r) {
#pragma GCC unroll 4
      for (std::size_t l = 0; l < L; ++l)
        x[l] = _mm_aesenc_si128(x[l], load_block(k[l] + 16 * r));
    }
#pragma GCC unroll 4
    for (std::size_t l = 0; l < L; ++l) {
      c[l] = _mm_aesenclast_si128(x[l], load_block(k[l] + 160));
      store_block(p[l], c[l]);
      p[l] += kAesBlockSize;
    }
  }
#pragma GCC unroll 4
  for (std::size_t l = 0; l < L; ++l) {
    lane[l].p = p[l];
    lane[l].left -= steps;
    lane[l].chain = c[l];
  }
}

/// Multi-buffer CBC-encrypt: up to four chains in flight, one per lane.
/// The live lanes advance in lock-step for as many blocks as the
/// shortest has left; then every lane whose job ended takes the next
/// job, and once the jobs run out the finished lanes drop away, so the
/// tail of a burst runs on fewer lanes rather than on idle ones.
ENDBOX_AES_TARGET void cbc_encrypt_multi_ni(const CbcJob* jobs, std::size_t n) {
  constexpr std::size_t kLanes = 4;
  if (n == 1) {  // a burst of one is the single-buffer kernel
    cbc_encrypt_ni(AesRoundKeys::enc(*jobs[0].aes), jobs[0].iv, jobs[0].buf.data(),
                   jobs[0].buf.size() / kAesBlockSize);
    return;
  }
  std::size_t next = 0;
  auto start = [&](CbcLane& lane) {
    const CbcJob& job = jobs[next++];
    lane = {AesRoundKeys::enc(*job.aes), job.buf.data(),
            job.buf.size() / kAesBlockSize, load_block(job.iv)};
  };
  CbcLane lane[kLanes] = {};
  std::size_t live = 0;
  while (live < kLanes && next < n) start(lane[live++]);
  while (live > 0) {
    std::size_t steps = lane[0].left;
    for (std::size_t l = 1; l < live; ++l) steps = std::min(steps, lane[l].left);
    switch (live) {
      case 4: cbc_lanes_ni<4>(lane, steps); break;
      case 3: cbc_lanes_ni<3>(lane, steps); break;
      case 2: cbc_lanes_ni<2>(lane, steps); break;
      default: {
        // The last chain (the queue is empty): the single-buffer
        // kernel, round keys in registers.
        alignas(16) std::uint8_t chain[kAesBlockSize];
        store_block(chain, lane[0].chain);
        cbc_encrypt_ni(lane[0].rk, chain, lane[0].p, steps);
        lane[0].left = 0;
        break;
      }
    }
    std::size_t kept = 0;
    for (std::size_t l = 0; l < live; ++l) {
      if (lane[l].left > 0) {
        lane[kept++] = lane[l];
      } else if (next < n) {
        start(lane[kept++]);
      }
    }
    live = kept;
  }
}

ENDBOX_AES_TARGET void cbc_decrypt_ni(const std::uint8_t* dk,
                                      const std::uint8_t* iv,
                                      std::uint8_t* buf, std::size_t blocks) {
  __m128i k[11];
  load_round_keys(dk, k);
  __m128i prev = load_block(iv);
  std::size_t b = 0;
  for (; b + 4 <= blocks; b += 4) {
    std::uint8_t* p = buf + b * kAesBlockSize;
    const __m128i c0 = load_block(p), c1 = load_block(p + 16),
                  c2 = load_block(p + 32), c3 = load_block(p + 48);
    __m128i x0 = c0, x1 = c1, x2 = c2, x3 = c3;
    decrypt4_ni(k, x0, x1, x2, x3);
    store_block(p, _mm_xor_si128(x0, prev));
    store_block(p + 16, _mm_xor_si128(x1, c0));
    store_block(p + 32, _mm_xor_si128(x2, c1));
    store_block(p + 48, _mm_xor_si128(x3, c2));
    prev = c3;
  }
  for (; b < blocks; ++b) {
    std::uint8_t* p = buf + b * kAesBlockSize;
    __m128i c = load_block(p);
    store_block(p, _mm_xor_si128(decrypt_ni(k, c), prev));
    prev = c;
  }
}

/// Big-endian 128-bit counter held as two native halves.
struct Counter128 {
  std::uint64_t hi, lo;

  ENDBOX_AES_TARGET __m128i next() {
    __m128i block = _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(lo)),
                                   static_cast<long long>(__builtin_bswap64(hi)));
    if (++lo == 0) ++hi;
    return block;
  }
};

ENDBOX_AES_TARGET void ctr_ni(const std::uint8_t* ek, const std::uint8_t* nonce,
                              std::uint8_t* data, std::size_t len) {
  __m128i k[11];
  load_round_keys(ek, k);
  Counter128 counter{get_u64(nonce), get_u64(nonce + 8)};
  std::size_t off = 0;
  for (; off + 4 * kAesBlockSize <= len; off += 4 * kAesBlockSize) {
    std::uint8_t* p = data + off;
    __m128i k0 = counter.next(), k1 = counter.next(), k2 = counter.next(),
            k3 = counter.next();
    encrypt4_ni(k, k0, k1, k2, k3);
    store_block(p, _mm_xor_si128(load_block(p), k0));
    store_block(p + 16, _mm_xor_si128(load_block(p + 16), k1));
    store_block(p + 32, _mm_xor_si128(load_block(p + 32), k2));
    store_block(p + 48, _mm_xor_si128(load_block(p + 48), k3));
  }
  for (; off + kAesBlockSize <= len; off += kAesBlockSize)
    store_block(data + off, _mm_xor_si128(load_block(data + off),
                                          encrypt_ni(k, counter.next())));
  if (off < len) {
    std::uint8_t keystream[kAesBlockSize];
    store_block(keystream, encrypt_ni(k, counter.next()));
    for (std::size_t i = 0; off + i < len; ++i) data[off + i] ^= keystream[i];
  }
}

#endif  // ENDBOX_AES_NI

// ---- Dispatch ----------------------------------------------------------

/// One implementation of every AES entry point; the mode kernels run a
/// whole buffer per call, so dispatch costs one load per buffer.
struct AesKernelSet {
  void (*encrypt_block)(const std::uint8_t* ek, const std::uint8_t* in, std::uint8_t* out);
  void (*decrypt_block)(const std::uint8_t* dk, const std::uint8_t* in, std::uint8_t* out);
  void (*cbc_encrypt)(const std::uint8_t* ek, const std::uint8_t* iv,
                      std::uint8_t* buf, std::size_t blocks);
  void (*cbc_encrypt_multi)(const CbcJob* jobs, std::size_t n);
  void (*cbc_decrypt)(const std::uint8_t* dk, const std::uint8_t* iv,
                      std::uint8_t* buf, std::size_t blocks);
  void (*ctr)(const std::uint8_t* ek, const std::uint8_t* nonce,
              std::uint8_t* data, std::size_t len);
};

constexpr AesKernelSet kPortableAes{encrypt_block_portable, decrypt_block_portable,
                                    cbc_encrypt_portable, cbc_encrypt_multi_portable,
                                    cbc_decrypt_portable, ctr_portable};
#ifdef ENDBOX_AES_NI
constexpr AesKernelSet kAesNi{encrypt_block_ni, decrypt_block_ni, cbc_encrypt_ni,
                              cbc_encrypt_multi_ni, cbc_decrypt_ni, ctr_ni};
#endif

const AesKernelSet* kernel_set(CryptoKernel kernel) {
#ifdef ENDBOX_AES_NI
  if (kernel == CryptoKernel::Hardware) return &kAesNi;
#endif
  (void)kernel;
  return &kPortableAes;
}

std::atomic<const AesKernelSet*>& selected() {
  static std::atomic<const AesKernelSet*> set{kernel_set(
      common::has_aes_ni() ? CryptoKernel::Hardware : CryptoKernel::Portable)};
  return set;
}

const AesKernelSet& kernels() { return *selected().load(std::memory_order_relaxed); }

}  // namespace

CryptoKernel aes_kernel() {
  return selected().load(std::memory_order_relaxed) == &kPortableAes
             ? CryptoKernel::Portable
             : CryptoKernel::Hardware;
}

bool pin_aes_kernel(CryptoKernel kernel) {
  if (kernel == CryptoKernel::Hardware && !common::hardware_has_aes_ni()) return false;
  selected().store(kernel_set(kernel), std::memory_order_relaxed);
  return true;
}

Aes128::Aes128(const AesKey& key) {
  std::array<std::uint32_t, 44> w;
  for (int i = 0; i < 4; ++i) w[static_cast<std::size_t>(i)] = get_u32(key.data() + i * 4);
  std::uint8_t rcon = 1;
  for (std::size_t i = 4; i < 44; ++i) {
    std::uint32_t temp = w[i - 1];
    if (i % 4 == 0) {
      temp = sub_word(std::rotl(temp, 8)) ^ (static_cast<std::uint32_t>(rcon) << 24);
      rcon = xtime(rcon);
    }
    w[i] = w[i - 4] ^ temp;
  }
  // Equivalent inverse cipher: round keys in reverse round order, with
  // InvMixColumns applied to all but the first and last.
  for (std::size_t r = 0; r <= 10; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      std::uint32_t dec = w[(10 - r) * 4 + c];
      if (r != 0 && r != 10) dec = inv_mix_word(dec);
      put_u32(ek_.data() + r * 16 + c * 4, w[r * 4 + c]);
      put_u32(dk_.data() + r * 16 + c * 4, dec);
    }
  }
}

void Aes128::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  kernels().encrypt_block(ek_.data(), in, out);
}

void Aes128::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  kernels().decrypt_block(dk_.data(), in, out);
}

AesKey make_aes_key(ByteView key) {
  if (key.size() != kAesKeySize) throw std::invalid_argument("AES key must be 16 bytes");
  AesKey k;
  std::memcpy(k.data(), key.data(), kAesKeySize);
  return k;
}

namespace {

/// Checks the padded size and writes the PKCS#7 padding.
void cbc_pad(std::span<std::uint8_t> buf, std::size_t plaintext_len) {
  if (buf.size() != cbc_padded_size(plaintext_len))
    throw std::invalid_argument("CBC buffer must be the padded size");
  std::uint8_t pad = static_cast<std::uint8_t>(buf.size() - plaintext_len);
  for (std::size_t i = plaintext_len; i < buf.size(); ++i) buf[i] = pad;
}

}  // namespace

void aes128_cbc_encrypt_inplace(const Aes128& aes, const std::uint8_t* iv,
                                std::span<std::uint8_t> buf,
                                std::size_t plaintext_len) {
  cbc_pad(buf, plaintext_len);
  kernels().cbc_encrypt(AesRoundKeys::enc(aes), iv, buf.data(),
                        buf.size() / kAesBlockSize);
}

void aes128_cbc_encrypt_multi(std::span<const CbcJob> jobs) {
  for (const CbcJob& job : jobs) cbc_pad(job.buf, job.plaintext_len);
  kernels().cbc_encrypt_multi(jobs.data(), jobs.size());
}

Result<std::size_t> aes128_cbc_decrypt_inplace(const Aes128& aes,
                                               const std::uint8_t* iv,
                                               std::span<std::uint8_t> buf) {
  if (buf.empty() || buf.size() % kAesBlockSize != 0)
    return err("CBC ciphertext must be a positive multiple of 16 bytes");
  kernels().cbc_decrypt(AesRoundKeys::dec(aes), iv, buf.data(),
                        buf.size() / kAesBlockSize);
  std::uint8_t pad = buf.back();
  if (pad == 0 || pad > kAesBlockSize || pad > buf.size()) return err("bad CBC padding");
  for (std::size_t i = buf.size() - pad; i < buf.size(); ++i)
    if (buf[i] != pad) return err("bad CBC padding");
  return buf.size() - pad;
}

void aes128_ctr_inplace(const Aes128& aes, const std::uint8_t* nonce,
                        std::span<std::uint8_t> data) {
  kernels().ctr(AesRoundKeys::enc(aes), nonce, data.data(), data.size());
}

Bytes aes128_cbc_encrypt(const AesKey& key, ByteView iv, ByteView plaintext) {
  if (iv.size() != kAesBlockSize) throw std::invalid_argument("CBC IV must be 16 bytes");
  Aes128 aes(key);
  Bytes out(cbc_padded_size(plaintext.size()));
  if (!plaintext.empty()) std::memcpy(out.data(), plaintext.data(), plaintext.size());
  aes128_cbc_encrypt_inplace(aes, iv.data(), out, plaintext.size());
  return out;
}

Result<Bytes> aes128_cbc_decrypt(const AesKey& key, ByteView iv,
                                 ByteView ciphertext) {
  if (iv.size() != kAesBlockSize) return err("CBC IV must be 16 bytes");
  Aes128 aes(key);
  Bytes out(ciphertext.begin(), ciphertext.end());
  auto len = aes128_cbc_decrypt_inplace(aes, iv.data(), out);
  if (!len.ok()) return err(len.error());
  out.resize(*len);
  return out;
}

Bytes aes128_ctr(const AesKey& key, ByteView nonce, ByteView data) {
  if (nonce.size() != kAesBlockSize) throw std::invalid_argument("CTR nonce must be 16 bytes");
  Aes128 aes(key);
  Bytes out(data.begin(), data.end());
  aes128_ctr_inplace(aes, nonce.data(), out);
  return out;
}

}  // namespace endbox::crypto
