// Session key derivation and data-channel seal/open.
//
// Both tunnel endpoints derive {enc, mac} keys from the handshake seed
// and nonces. Data bodies are encrypt-then-MAC (AES-128-CBC + HMAC) or,
// in the ISP scenario's integrity-only mode (section IV-A), plaintext +
// HMAC. Both modes authenticate the fragment header, so flagged QoS
// bytes and packet ids cannot be forged.
//
// Every data-body seal goes through SealBurst, also for a single body.
// It lays each body out in its final place (fragment header, an IV drawn
// from the session's stream in burst order, the payload copy), then
// runs the crypto of the whole burst: one multi-buffer CBC-encrypt
// across the encrypted bodies, whatever their sessions (four chains in
// flight, crypto/aes.hpp), then one one-call HMAC per body from the
// session's precomputed midstates (crypto/hmac.hpp). Integrity-only
// bodies skip the CBC phase. Frames are byte-identical to sealing the
// bodies one at a time from the same IV streams. The seal is
// allocation-free in steady state (callers reuse their frame buffers),
// and opening by rvalue decrypts in place and hands the payload back
// inside the same buffer.
#pragma once

#include <array>
#include <optional>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/wire_buffer.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "vpn/wire.hpp"

namespace endbox::vpn {

/// Fixed body geometry: [frag:16][iv:16][ct][mac:32] (encrypted) or
/// [frag:16][payload][mac:32] (integrity-only).
inline constexpr std::size_t kMacSize = 32;
inline constexpr std::size_t kFragHeaderSize = 16;  // 8 + 4 + 2 + 2
/// Headroom seal_*_body leaves in front of a WireBuffer's body for a
/// prepended wire-message header.
inline constexpr std::size_t kSealHeadroom = kWireHeaderSize;

/// Size of a sealed data body carrying `payload_len` bytes.
inline constexpr std::size_t sealed_body_size(std::size_t payload_len,
                                              bool encrypted) {
  return kFragHeaderSize +
         (encrypted ? 16 + crypto::cbc_padded_size(payload_len) : payload_len) +
         kMacSize;
}

struct SessionKeys {
  SessionKeys() = default;
  SessionKeys(Bytes enc, Bytes mac)
      : enc_key(std::move(enc)), mac_key(std::move(mac)) {}

  Bytes enc_key;  ///< 16 bytes
  Bytes mac_key;  ///< 32 bytes

  /// Per-session crypto state, derived from the key bytes on first use
  /// (eagerly by derive_vpn_keys): the AES key schedule and the HMAC
  /// ipad/opad block states are computed once instead of per packet.
  const crypto::Aes128& aes() const;
  const crypto::HmacKey& hmac() const;

  // Lazily-built caches for the accessors above; cleared copies are
  // rebuilt on demand, and tests that aggregate-initialise the key
  // bytes get them transparently.
  mutable std::optional<crypto::Aes128> aes_cache;
  mutable std::optional<crypto::HmacKey> hmac_cache;
};

/// Derives direction-shared session keys from the handshake material.
SessionKeys derive_vpn_keys(std::uint64_t seed, ByteView client_nonce,
                            ByteView server_nonce);

/// The burst seal of data bodies (see the header comment). add() lays a
/// body out at once, so its payload may be reused as soon as add()
/// returns; the body's crypto runs at flush(), or as soon as the burst
/// holds kCapacity bodies. Outputs are complete only after flush().
/// Lives on the caller's stack; one burst belongs to one thread.
class SealBurst {
 public:
  static constexpr std::size_t kCapacity = 32;

  SealBurst() = default;
  SealBurst(const SealBurst&) = delete;
  SealBurst& operator=(const SealBurst&) = delete;

  /// Lays out one body at `out` (sealed_body_size bytes): a Data body
  /// with an IV drawn from `iv_rng`, or a DataIntegrityOnly body when
  /// `iv_rng` is null. `keys` must outlive the flush.
  void add(const SessionKeys& keys, Rng* iv_rng, const FragmentHeader& frag,
           ByteView payload, std::uint8_t* out);
  /// add() into a complete wire frame: `frame` is resized to the frame
  /// size (capacity reused) and gets the wire header of the body type.
  void add_frame(std::uint32_t session_id, const SessionKeys& keys, Rng* iv_rng,
                 const FragmentHeader& frag, ByteView payload, Bytes& frame);
  /// add() into `msg`: the type, session id and body are set.
  void add_message(std::uint32_t session_id, const SessionKeys& keys, Rng* iv_rng,
                   const FragmentHeader& frag, ByteView payload, WireMessage& msg);
  /// Encrypts and MACs every body added since the last flush.
  void flush();

 private:
  struct PendingMac {
    const crypto::HmacKey* key;
    ByteView label;
    std::uint8_t* body;
    std::size_t authed_len;  ///< the MAC goes at body + authed_len
  };
  std::array<crypto::CbcJob, kCapacity> cbc_{};
  std::array<PendingMac, kCapacity> macs_{};
  std::size_t cbc_count_ = 0;
  std::size_t mac_count_ = 0;
};

/// Seals a Data (encrypted) body into `out` (reset with kSealHeadroom;
/// steady-state reuse of the same buffer performs no heap allocation).
void seal_data_body(const SessionKeys& keys, const FragmentHeader& frag,
                    ByteView payload, Rng& rng, WireBuffer& out);
/// Seals a DataIntegrityOnly body into `out`.
void seal_integrity_body(const SessionKeys& keys, const FragmentHeader& frag,
                         ByteView payload, WireBuffer& out);

/// Convenience variants returning fresh Bytes (one allocation).
Bytes seal_data_body(const SessionKeys& keys, const FragmentHeader& frag,
                     ByteView payload, Rng& rng);
Bytes seal_integrity_body(const SessionKeys& keys, const FragmentHeader& frag,
                          ByteView payload);

struct OpenedBody {
  FragmentHeader frag;
  Bytes payload;
};

/// Verifies and decrypts a Data body, consuming `body`: decryption
/// happens in place and the payload is moved out of the authenticated
/// prefix, so the steady-state open performs no heap allocation.
Result<OpenedBody> open_data_body(const SessionKeys& keys, Bytes&& body);
/// Verifies a DataIntegrityOnly body, consuming `body` (payload moved
/// out of the authenticated prefix, no copy).
Result<OpenedBody> open_integrity_body(const SessionKeys& keys, Bytes&& body);

/// Copying variants for callers that only hold a view.
Result<OpenedBody> open_data_body(const SessionKeys& keys, ByteView body);
Result<OpenedBody> open_integrity_body(const SessionKeys& keys, ByteView body);

/// Ping bodies (control channel).
inline constexpr std::size_t kPingBodySize = 16 + kMacSize;
Bytes seal_ping_body(const SessionKeys& keys, const PingInfo& info);
/// Seals a ping body into the kPingBodySize bytes at `out`.
void seal_ping_body(const SessionKeys& keys, const PingInfo& info,
                    std::uint8_t* out);
Result<PingInfo> open_ping_body(const SessionKeys& keys, ByteView body);

}  // namespace endbox::vpn
