// SHA-256 (FIPS 180-4). Used for enclave measurements, HMAC, key
// derivation and certificate digests. Implemented from the spec; no
// external dependencies. update() compresses all whole blocks of a
// call in one kernel call: SHA-NI where the CPU has it, else the
// portable scalar compression (crypto/kernel.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace endbox::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256();

  void update(ByteView data);
  Sha256Digest finish();

  /// One-shot convenience.
  static Sha256Digest hash(ByteView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Digest as a Bytes value (handy for wire formats).
Bytes sha256(ByteView data);

}  // namespace endbox::crypto
