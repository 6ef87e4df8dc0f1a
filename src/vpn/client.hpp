// VPN client session (the tunnel endpoint that EndBox moves inside the
// enclave). Mechanism only: the EndBox client wraps every call here in
// an ecall and charges the perf model; this class implements the
// protocol state machine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ca/certificate.hpp"
#include "common/rng.hpp"
#include "vpn/fragment.hpp"
#include "vpn/replay.hpp"
#include "vpn/session_crypto.hpp"
#include "vpn/wire.hpp"

namespace endbox::vpn {

struct VpnClientConfig {
  std::uint16_t min_version = kVersionTls12;  ///< enclave-side downgrade floor
  bool encrypt_data = true;   ///< false = ISP integrity-only mode (section IV-A)
  std::size_t mtu = 9000;     ///< tunnel MTU for fragmentation
  std::uint32_t config_version = 1;  ///< middlebox config currently applied
};

class VpnClientSession {
 public:
  /// `certificate` and `enclave_key` come from the provisioning flow
  /// (unattested clients have no certificate and cannot connect);
  /// `server_key` is the pinned VPN server public key.
  VpnClientSession(Rng& rng, ca::Certificate certificate,
                   crypto::RsaKeyPair enclave_key,
                   crypto::RsaPublicKey server_key, VpnClientConfig config = {});

  // ---- Handshake -----------------------------------------------------
  WireMessage create_handshake_init(std::uint16_t proposed_version = kVersionTls13);
  Status process_handshake_reply(const WireMessage& reply);
  bool established() const { return keys_.has_value(); }
  std::uint32_t session_id() const { return session_id_; }

  // ---- Data path -------------------------------------------------------
  /// Seals one IP packet into one or more wire messages (fragmenting at
  /// the MTU). Throws if not established.
  std::vector<WireMessage> seal_packet(ByteView ip_packet);
  /// Seals one IP packet directly into complete wire frames
  /// ([type][session_id][sealed body]), each sealed in place in its
  /// frame. `frames` is resized to the fragment count and each
  /// element's capacity is reused, so steady-state calls with stable
  /// packet sizes perform no heap allocation.
  void seal_packet_wire(ByteView ip_packet, std::vector<Bytes>& frames);
  /// Batch-friendly variant: writes this packet's frames into
  /// `frames[at..]`, growing the vector only when the burst needs more
  /// slots and reusing existing slots' capacity. Returns the index one
  /// past the last frame written, so callers chain packets:
  /// `n = seal_packet_wire_at(p0, frames, 0); n = seal_packet_wire_at(p1, frames, n);`
  /// This is seal_batch with one packet.
  std::size_t seal_packet_wire_at(ByteView ip_packet, std::vector<Bytes>& frames,
                                  std::size_t at);
  /// Seals a run of IP packets into `frames[at..]` (same slot contract
  /// as seal_packet_wire_at) as one burst (vpn::SealBurst): one
  /// multi-buffer CBC-encrypt across all their fragments, then one MAC
  /// per frame. Frames are byte-identical to sealing the packets one at
  /// a time. Returns one past the last frame written.
  std::size_t seal_batch(std::span<const ByteView> ip_packets,
                         std::vector<Bytes>& frames, std::size_t at = 0);
  /// Opens a data message from the server; returns the reassembled IP
  /// packet when a fragment group completes, nullopt while pending.
  Result<std::optional<Bytes>> open_data(const WireMessage& msg);
  /// Opens a complete data frame ([type][session_id][body]) without
  /// materialising a WireMessage: the body is copied into
  /// `body_scratch` (capacity reused) and decrypted in place, and the
  /// returned payload occupies that same buffer — recycle it through a
  /// pool and the steady-state open allocates nothing.
  Result<std::optional<Bytes>> open_data_frame(ByteView frame, Bytes&& body_scratch);

  // ---- Control channel --------------------------------------------------
  WireMessage create_ping();
  /// Seals a ping directly into a complete wire frame; reusing `frame`
  /// makes the control path allocation-free in steady state.
  void create_ping_wire(Bytes& frame);
  Result<PingInfo> process_ping(const WireMessage& msg);

  void set_config_version(std::uint32_t version) { config_.config_version = version; }
  std::uint32_t config_version() const { return config_.config_version; }
  bool encrypt_data() const { return config_.encrypt_data; }

  /// Attaches the buffer pool fragment reassembly recycles through
  /// (part buffers and reassembled wholes), making multi-fragment
  /// ingress allocation-free in steady state. The pool must outlive the
  /// session.
  void set_buffer_pool(net::PacketPool* pool) { reassembler_.set_pool(pool); }

  // ---- Stats ---------------------------------------------------------
  std::uint64_t packets_sealed() const { return packets_sealed_; }
  std::uint64_t packets_opened() const { return packets_opened_; }
  std::uint64_t auth_failures() const { return auth_failures_; }
  std::uint64_t replays_rejected() const { return replay_.replays_rejected(); }
  std::uint16_t negotiated_version() const { return negotiated_version_; }

 private:
  /// IV source of data seals: the session Rng, or null (integrity-only).
  Rng* iv_stream() { return config_.encrypt_data ? &rng_ : nullptr; }
  /// Shared open core: verify/decrypt `body` in place, replay-check,
  /// reassemble. `body` is consumed (its buffer becomes the payload).
  Result<std::optional<Bytes>> open_body(MsgType type, Bytes&& body);

  Rng& rng_;
  ca::Certificate certificate_;
  crypto::RsaKeyPair enclave_key_;
  crypto::RsaPublicKey server_key_;
  VpnClientConfig config_;

  std::optional<Bytes> client_nonce_;
  std::optional<SessionKeys> keys_;
  std::uint32_t session_id_ = 0;
  std::uint16_t proposed_version_ = kVersionTls13;
  std::uint16_t negotiated_version_ = 0;

  std::uint64_t next_packet_id_ = 1;
  std::uint32_t next_frag_id_ = 1;
  std::uint64_t next_ping_seq_ = 1;
  ReplayWindow replay_;
  Reassembler reassembler_;

  std::uint64_t packets_sealed_ = 0;
  std::uint64_t packets_opened_ = 0;
  std::uint64_t auth_failures_ = 0;
};

}  // namespace endbox::vpn
