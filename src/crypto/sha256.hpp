// SHA-256 (FIPS 180-4). Used for enclave measurements, HMAC, key
// derivation and certificate digests. Implemented from the spec; no
// external dependencies. update() compresses all whole blocks of a
// call in one kernel call: SHA-NI where the CPU has it, else the
// portable scalar compression (crypto/kernel.hpp). sha256_hmac runs a
// whole HMAC from precomputed midstates in one kernel call, for the
// per-packet MACs of the VPN data channel (crypto/hmac.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace endbox::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;
/// Chaining state H0..H7.
using Sha256State = std::array<std::uint32_t, 8>;

class Sha256 {
 public:
  Sha256();
  /// Resumes from `state`, reached after hashing `bytes_hashed` bytes
  /// (a whole number of 64-byte blocks).
  Sha256(const Sha256State& state, std::uint64_t bytes_hashed);

  void update(ByteView data);
  Sha256Digest finish();

  /// One-shot convenience.
  static Sha256Digest hash(ByteView data);

  /// The chaining state: a midstate while a whole number of blocks has
  /// been hashed.
  const Sha256State& state() const { return state_; }

 private:
  Sha256State state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// HMAC-SHA-256 of `prefix || data` in one kernel call, from the
/// chaining states after one 64-byte block of key^ipad (`inner`) and of
/// key^opad (`outer`). The first block (prefix plus the head of data)
/// and the padded tail block are built on the stack, whole blocks are
/// compressed straight from `data`, and the outer compression takes the
/// inner state as its message words, so the inner digest is never
/// stored as bytes. `prefix` must be shorter than 64 bytes. Writes the
/// 32-byte MAC to `mac`.
void sha256_hmac(const Sha256State& inner, const Sha256State& outer,
                 ByteView prefix, ByteView data, std::uint8_t* mac);

/// Digest as a Bytes value (handy for wire formats).
Bytes sha256(ByteView data);

}  // namespace endbox::crypto
