// AES-128 block cipher (FIPS 197) with CBC and CTR modes.
//
// The VPN data channel uses AES-128-CBC + HMAC (encrypt-then-MAC), the
// TLS record layer uses AES-128-CTR, and the SGX sealing format uses
// AES-128-CTR with a sealing key derived from the measurement. Every
// entry point dispatches once per call (crypto/kernel.hpp) to an AES-NI
// kernel or to the portable 32-bit T-table cipher (four 1KB lookup
// tables per direction, generated at compile time from the spec), which
// stays as the fallback and the differential oracle. Both read one key
// schedule. Every mode has an in-place span variant so the VPN fast
// path encrypts without allocating or copying.
//
// CBC-encrypt is a serial chain within one buffer, so the AES-NI kernel
// for a single buffer waits out the aesenc latency on every block.
// aes128_cbc_encrypt_multi takes a burst of independent buffers (each
// with its own key, IV and length) and keeps four chains in flight,
// one per lane, refilling a lane from the next buffer as soon as its
// chain ends: the multi-buffer technique (Gueron & Krasnov; Intel's
// multi-buffer crypto) applied to CBC. CBC-decrypt and CTR have
// independent blocks within a buffer and pipeline four at a time.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace endbox::crypto {

inline constexpr std::size_t kAesBlockSize = 16;
inline constexpr std::size_t kAesKeySize = 16;
using AesKey = std::array<std::uint8_t, kAesKeySize>;
using AesBlock = std::array<std::uint8_t, kAesBlockSize>;

/// AES-128 with expanded round keys. Encrypts/decrypts a single block.
/// Construction expands the key schedule once; sessions keep the object
/// alive so per-packet calls pay only the block transforms.
class Aes128 {
 public:
  explicit Aes128(const AesKey& key);

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

 private:
  friend struct AesRoundKeys;  // the mode kernels in aes.cpp

  // 11 round keys of 16 bytes each, in byte order: the portable cipher
  // reads them as big-endian words, AES-NI loads them as is.
  std::array<std::uint8_t, 176> ek_;  ///< encryption round keys
  /// Equivalent-inverse-cipher round keys (reverse order, InvMixColumns
  /// applied to rounds 1..9): what both T-table and aesdec consume.
  std::array<std::uint8_t, 176> dk_;
};

/// Converts a Bytes key (must be 16 bytes) to an AesKey.
AesKey make_aes_key(ByteView key);

/// Size of `n` bytes of plaintext after PKCS#7 padding (always grows by
/// 1..16 bytes).
inline constexpr std::size_t cbc_padded_size(std::size_t n) {
  return n + (kAesBlockSize - n % kAesBlockSize);
}

/// In-place CBC encrypt: `buf` must hold cbc_padded_size(plaintext_len)
/// bytes with the plaintext in the leading plaintext_len bytes; the
/// PKCS#7 padding is written and the whole buffer encrypted in place.
/// `iv` points at 16 bytes.
void aes128_cbc_encrypt_inplace(const Aes128& aes, const std::uint8_t* iv,
                                std::span<std::uint8_t> buf,
                                std::size_t plaintext_len);

/// One buffer of a multi-buffer CBC-encrypt burst, with the same
/// contract as aes128_cbc_encrypt_inplace: `buf` holds
/// cbc_padded_size(plaintext_len) bytes, the plaintext in front.
struct CbcJob {
  const Aes128* aes = nullptr;
  const std::uint8_t* iv = nullptr;  ///< 16 bytes, outside every job's buf
  std::span<std::uint8_t> buf;
  std::size_t plaintext_len = 0;
};

/// Pads and CBC-encrypts every job in place, byte-identical to calling
/// aes128_cbc_encrypt_inplace on each. Buffers must not overlap.
void aes128_cbc_encrypt_multi(std::span<const CbcJob> jobs);

/// In-place CBC decrypt + padding check; returns the plaintext length
/// (the plaintext occupies the leading bytes of `buf`).
Result<std::size_t> aes128_cbc_decrypt_inplace(const Aes128& aes,
                                               const std::uint8_t* iv,
                                               std::span<std::uint8_t> buf);

/// In-place CTR transform (encrypt == decrypt). `nonce` points at 16
/// bytes and must be unique per key.
void aes128_ctr_inplace(const Aes128& aes, const std::uint8_t* nonce,
                        std::span<std::uint8_t> data);

/// CBC mode with PKCS#7 padding. `iv` must be 16 bytes.
Bytes aes128_cbc_encrypt(const AesKey& key, ByteView iv, ByteView plaintext);
/// Returns an error on bad IV size, non-block-multiple input, or invalid
/// padding (the caller should already have authenticated the ciphertext).
Result<Bytes> aes128_cbc_decrypt(const AesKey& key, ByteView iv,
                                 ByteView ciphertext);

/// CTR mode: encryption and decryption are the same operation. `nonce`
/// must be 16 bytes and unique per key.
Bytes aes128_ctr(const AesKey& key, ByteView nonce, ByteView data);

}  // namespace endbox::crypto
