// HMAC-SHA-256 (RFC 2104) and HKDF-style key derivation. The VPN data
// channel, config-file signing and the enclave sealing format all
// authenticate with HMAC-SHA-256.
//
// HmacKey hashes the key^ipad and key^opad blocks once, at
// construction, and keeps the two midstates. A one-shot mac() then runs
// the whole HMAC in one kernel call (crypto::sha256_hmac): the first
// block (an optional short prefix, such as the VPN's direction label,
// plus the head of the data) and the padded tail are built on the
// stack, whole blocks are compressed in place, and the inner state
// feeds the outer compression as message words. Mac is the incremental
// form, for inputs that arrive in pieces.
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace endbox::crypto {

/// Reusable HMAC-SHA-256 key: per-session instead of per-packet key
/// processing on the VPN data path. Copy/assignment are cheap (64 bytes
/// of midstate, no heap). A default-constructed key is the empty key.
class HmacKey {
 public:
  HmacKey() : HmacKey(ByteView{}) {}
  explicit HmacKey(ByteView key);

  /// Incremental MAC seeded from the precomputed states. All state
  /// lives on the stack; update() accepts any chunking of the input.
  class Mac {
   public:
    void update(ByteView data) { inner_.update(data); }
    Sha256Digest finish();

   private:
    friend class HmacKey;
    Mac(const Sha256State& inner, const Sha256State& outer)
        : inner_(inner, 64), outer_(outer, 64) {}
    Sha256 inner_;
    Sha256 outer_;
  };

  Mac begin() const { return Mac(inner_, outer_); }

  /// One-shot MAC over a single span (no allocation, one kernel call).
  Sha256Digest mac(ByteView data) const { return mac(ByteView{}, data); }
  /// One-shot MAC over `prefix || data`, equal to the incremental MAC
  /// of the two; one kernel call when `prefix` is shorter than a block.
  Sha256Digest mac(ByteView prefix, ByteView data) const;

  /// Constant-time verification against an expected MAC.
  bool verify(ByteView data, ByteView mac) const;

 private:
  Sha256State inner_;  ///< state after hashing key ^ ipad
  Sha256State outer_;  ///< state after hashing key ^ opad
};

/// Computes HMAC-SHA-256 over `data` with `key` (any key length).
Bytes hmac_sha256(ByteView key, ByteView data);

/// True when `mac` equals HMAC(key, data), compared in constant time.
bool hmac_verify(ByteView key, ByteView data, ByteView mac);

/// Simple HKDF-expand style derivation: HMAC(key, label || 0x01),
/// truncated/expanded to `length` bytes by counter-mode re-hashing.
Bytes derive_key(ByteView key, std::string_view label, std::size_t length);

}  // namespace endbox::crypto
