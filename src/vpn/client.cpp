#include "vpn/client.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

#include "crypto/hmac.hpp"

namespace endbox::vpn {

VpnClientSession::VpnClientSession(Rng& rng, ca::Certificate certificate,
                                   crypto::RsaKeyPair enclave_key,
                                   crypto::RsaPublicKey server_key,
                                   VpnClientConfig config)
    : rng_(rng),
      certificate_(std::move(certificate)),
      enclave_key_(enclave_key),
      server_key_(server_key),
      config_(config) {}

WireMessage VpnClientSession::create_handshake_init(std::uint16_t proposed_version) {
  proposed_version_ = proposed_version;
  client_nonce_ = rng_.bytes(16);
  // Starting (or restarting) a handshake invalidates the previous
  // session: keys go (so a stale duplicate of an old reply can no
  // longer complete anything), and the replay window and pending
  // fragments reset — the new session's packet ids restart from 1 and
  // old fragments must never mix into new packets.
  keys_.reset();
  session_id_ = 0;
  negotiated_version_ = 0;
  replay_ = ReplayWindow{};
  reassembler_.clear();

  WireMessage msg;
  msg.type = MsgType::HandshakeInit;
  msg.session_id = 0;  // not yet assigned
  Bytes cert = certificate_.serialize();
  msg.body.reserve(2 + 4 + 16 + 2 + cert.size());
  put_u16(msg.body, proposed_version);
  put_u32(msg.body, config_.config_version);
  append(msg.body, *client_nonce_);
  put_u16(msg.body, static_cast<std::uint16_t>(cert.size()));
  append(msg.body, cert);
  return msg;
}

Status VpnClientSession::process_handshake_reply(const WireMessage& reply) {
  if (reply.type != MsgType::HandshakeReply) return err("not a handshake reply");
  if (!client_nonce_) return err("handshake not started");
  // Idempotent completion: a duplicated delivery of the reply we
  // already accepted must not re-derive keys or reset the replay
  // window (the network duplicates frames; the reliability layer
  // retransmits). Success with no state change.
  if (keys_ && reply.session_id == session_id_) return {};
  try {
    ByteReader r(reply.body);
    std::uint16_t chosen_version = r.u16();
    Bytes server_nonce = r.take(16);
    Bytes encrypted_seed = r.take(8);
    Bytes signature = r.take(8);

    // Server authentication: signature over the transcript with the
    // pinned server key (prevents MITM replies). The transcript layout
    // is fixed-size ([version:2][session_id:4][client_nonce:16]
    // [server_nonce:16][encrypted_seed:8]), so it assembles on the
    // stack. The session id is covered, so a flipped wire header
    // cannot bind us to a different session.
    std::array<std::uint8_t, 2 + 4 + 16 + 16 + 8> transcript;
    put_u16(transcript.data(), chosen_version);
    put_u32(transcript.data() + 2, reply.session_id);
    std::memcpy(transcript.data() + 6, client_nonce_->data(), 16);
    std::memcpy(transcript.data() + 22, server_nonce.data(), 16);
    std::memcpy(transcript.data() + 38, encrypted_seed.data(), 8);
    if (!crypto::rsa_verify(server_key_, transcript, signature))
      return err("handshake reply signature invalid");

    // The paper's client-side downgrade check runs inside the enclave:
    // a malicious host cannot strip it.
    if (chosen_version < config_.min_version)
      return err("server negotiated version below enclave minimum");
    if (chosen_version > proposed_version_)
      return err("server chose version above our proposal");

    std::uint64_t seed = crypto::rsa_decrypt(enclave_key_, encrypted_seed);
    keys_ = derive_vpn_keys(seed, *client_nonce_, server_nonce);
    session_id_ = reply.session_id;
    negotiated_version_ = chosen_version;
    return {};
  } catch (const std::out_of_range&) {
    return err("handshake reply truncated");
  }
}

std::vector<WireMessage> VpnClientSession::seal_packet(ByteView ip_packet) {
  if (!keys_) throw std::logic_error("VpnClientSession: not established");
  std::vector<WireMessage> messages(fragment_count(ip_packet.size(), config_.mtu));
  Rng* iv_rng = iv_stream();
  SealBurst burst;
  for_each_fragment(
      ip_packet, config_.mtu, next_packet_id_, next_frag_id_++,
      [&](const FragmentHeader& frag, ByteView slice) {
        burst.add_message(session_id_, *keys_, iv_rng, frag, slice,
                          messages[frag.index]);
      });
  burst.flush();
  ++packets_sealed_;
  return messages;
}

void VpnClientSession::seal_packet_wire(ByteView ip_packet,
                                        std::vector<Bytes>& frames) {
  frames.resize(fragment_count(ip_packet.size(), config_.mtu));
  seal_packet_wire_at(ip_packet, frames, 0);
}

std::size_t VpnClientSession::seal_packet_wire_at(ByteView ip_packet,
                                                  std::vector<Bytes>& frames,
                                                  std::size_t at) {
  return seal_batch({&ip_packet, 1}, frames, at);
}

std::size_t VpnClientSession::seal_batch(std::span<const ByteView> ip_packets,
                                         std::vector<Bytes>& frames,
                                         std::size_t at) {
  if (!keys_) throw std::logic_error("VpnClientSession: not established");
  std::size_t total = 0;
  for (ByteView ip_packet : ip_packets)
    total += fragment_count(ip_packet.size(), config_.mtu);
  if (frames.size() < at + total) frames.resize(at + total);
  Rng* iv_rng = iv_stream();
  SealBurst burst;
  for (ByteView ip_packet : ip_packets) {
    std::size_t count = for_each_fragment(
        ip_packet, config_.mtu, next_packet_id_, next_frag_id_++,
        [&](const FragmentHeader& frag, ByteView slice) {
          burst.add_frame(session_id_, *keys_, iv_rng, frag, slice,
                          frames[at + frag.index]);
        });
    at += count;
  }
  burst.flush();
  packets_sealed_ += ip_packets.size();
  return at;
}

Result<std::optional<Bytes>> VpnClientSession::open_body(MsgType type,
                                                         Bytes&& body) {
  if (!keys_) return err("not established");
  Result<OpenedBody> opened = type == MsgType::Data
                                  ? open_data_body(*keys_, std::move(body))
                                  : open_integrity_body(*keys_, std::move(body));
  if (!opened.ok()) {
    ++auth_failures_;
    return err(opened.error());
  }
  if (!replay_.accept(opened->frag.packet_id)) return err("replayed packet");
  auto whole = reassembler_.add(opened->frag, std::move(opened->payload));
  if (!whole) return std::optional<Bytes>{};
  ++packets_opened_;
  return std::optional<Bytes>{std::move(*whole)};
}

Result<std::optional<Bytes>> VpnClientSession::open_data(const WireMessage& msg) {
  Bytes body(msg.body.begin(), msg.body.end());
  return open_body(msg.type, std::move(body));
}

Result<std::optional<Bytes>> VpnClientSession::open_data_frame(
    ByteView frame, Bytes&& body_scratch) {
  if (frame.size() < kWireHeaderSize) return err("data frame: truncated header");
  auto type = static_cast<MsgType>(frame[0]);
  if (type != MsgType::Data && type != MsgType::DataIntegrityOnly)
    return err("data frame: not a data message");
  body_scratch.assign(frame.begin() + kWireHeaderSize, frame.end());
  return open_body(type, std::move(body_scratch));
}

WireMessage VpnClientSession::create_ping() {
  if (!keys_) throw std::logic_error("VpnClientSession: not established");
  PingInfo info;
  info.seq = next_ping_seq_++;
  info.config_version = config_.config_version;
  info.grace_period_secs = 0;  // clients don't announce grace periods
  WireMessage msg;
  msg.type = MsgType::Ping;
  msg.session_id = session_id_;
  msg.body = seal_ping_body(*keys_, info);
  return msg;
}

void VpnClientSession::create_ping_wire(Bytes& frame) {
  if (!keys_) throw std::logic_error("VpnClientSession: not established");
  PingInfo info;
  info.seq = next_ping_seq_++;
  info.config_version = config_.config_version;
  info.grace_period_secs = 0;
  // Sealed in place behind the wire header; reusing `frame` keeps the
  // control path allocation-free.
  frame.resize(kWireHeaderSize + kPingBodySize);
  frame[0] = static_cast<std::uint8_t>(MsgType::Ping);
  put_u32(frame.data() + 1, session_id_);
  seal_ping_body(*keys_, info, frame.data() + kWireHeaderSize);
}

Result<PingInfo> VpnClientSession::process_ping(const WireMessage& msg) {
  if (!keys_) return err("not established");
  auto info = open_ping_body(*keys_, msg.body);
  if (!info.ok()) {
    ++auth_failures_;  // crafted ping from outside the enclave
    return err(info.error());
  }
  return info;
}

}  // namespace endbox::vpn
