#include "vpn/session_crypto.hpp"

namespace endbox::vpn {

namespace {

inline ByteView label_view(std::string_view label) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(label.data()),
                  label.size());
}

constexpr std::string_view kDataLabel = "data";
constexpr std::string_view kIntegLabel = "integ";
constexpr std::string_view kPingLabel = "ping";

// MAC over `label || data` in one kernel call from the session's
// precomputed HMAC midstates; everything stays on the stack.
crypto::Sha256Digest mac_over(const SessionKeys& keys, std::string_view label,
                              ByteView data) {
  return keys.hmac().mac(label_view(label), data);
}

void write_frag(std::uint8_t* p, const FragmentHeader& frag) {
  put_u64(p, frag.packet_id);
  put_u32(p + 8, frag.frag_id);
  put_u16(p + 12, frag.index);
  put_u16(p + 14, frag.count);
}

FragmentHeader read_frag(const std::uint8_t* p) {
  FragmentHeader frag;
  frag.packet_id = get_u64(p);
  frag.frag_id = get_u32(p + 8);
  frag.index = get_u16(p + 12);
  frag.count = get_u16(p + 14);
  return frag;
}

bool check_mac(const SessionKeys& keys, std::string_view label, ByteView body) {
  std::size_t authed_len = body.size() - kMacSize;
  crypto::Sha256Digest mac =
      mac_over(keys, label, body.subspan(0, authed_len));
  return ct_equal(ByteView(mac.data(), mac.size()), body.subspan(authed_len));
}

// Shrinks `body` to its payload: moves `len` bytes starting at `offset`
// to the front and resizes, reusing the buffer's allocation.
Bytes move_out_payload(Bytes&& body, std::size_t offset, std::size_t len) {
  if (len > 0 && offset > 0) std::memmove(body.data(), body.data() + offset, len);
  body.resize(len);
  return std::move(body);
}

}  // namespace

const crypto::Aes128& SessionKeys::aes() const {
  if (!aes_cache) aes_cache.emplace(crypto::make_aes_key(enc_key));
  return *aes_cache;
}

const crypto::HmacKey& SessionKeys::hmac() const {
  if (!hmac_cache) hmac_cache.emplace(mac_key);
  return *hmac_cache;
}

SessionKeys derive_vpn_keys(std::uint64_t seed, ByteView client_nonce,
                            ByteView server_nonce) {
  Bytes material;
  material.reserve(8 + client_nonce.size() + server_nonce.size());
  put_u64(material, seed);
  append(material, client_nonce);
  append(material, server_nonce);
  SessionKeys keys;
  keys.enc_key = crypto::derive_key(material, "vpn-enc", 16);
  keys.mac_key = crypto::derive_key(material, "vpn-mac", 32);
  keys.aes();   // expand the key schedule once, at session setup
  keys.hmac();  // precompute the ipad/opad block states once
  return keys;
}

void SealBurst::add(const SessionKeys& keys, Rng* iv_rng,
                    const FragmentHeader& frag, ByteView payload,
                    std::uint8_t* out) {
  write_frag(out, frag);
  std::uint8_t* data = out + kFragHeaderSize;
  std::size_t authed_len = kFragHeaderSize + payload.size();
  if (iv_rng) {
    // [iv][payload + PKCS#7 padding]: the IV is drawn now, in burst
    // order, so the IV stream matches a body-at-a-time seal.
    iv_rng->fill({data, 16});
    const std::size_t padded = crypto::cbc_padded_size(payload.size());
    cbc_[cbc_count_++] = {&keys.aes(), data, {data + 16, padded}, payload.size()};
    data += 16;
    authed_len = kFragHeaderSize + 16 + padded;
  }
  if (!payload.empty()) std::memcpy(data, payload.data(), payload.size());
  macs_[mac_count_++] = {&keys.hmac(), label_view(iv_rng ? kDataLabel : kIntegLabel),
                         out, authed_len};
  if (mac_count_ == kCapacity) flush();
}

void SealBurst::add_frame(std::uint32_t session_id, const SessionKeys& keys,
                          Rng* iv_rng, const FragmentHeader& frag,
                          ByteView payload, Bytes& frame) {
  frame.resize(kWireHeaderSize + sealed_body_size(payload.size(), iv_rng != nullptr));
  frame[0] = static_cast<std::uint8_t>(iv_rng ? MsgType::Data : MsgType::DataIntegrityOnly);
  put_u32(frame.data() + 1, session_id);
  add(keys, iv_rng, frag, payload, frame.data() + kWireHeaderSize);
}

void SealBurst::add_message(std::uint32_t session_id, const SessionKeys& keys,
                            Rng* iv_rng, const FragmentHeader& frag,
                            ByteView payload, WireMessage& msg) {
  msg.type = iv_rng ? MsgType::Data : MsgType::DataIntegrityOnly;
  msg.session_id = session_id;
  msg.body.resize(sealed_body_size(payload.size(), iv_rng != nullptr));
  add(keys, iv_rng, frag, payload, msg.body.data());
}

void SealBurst::flush() {
  if (cbc_count_ > 0) crypto::aes128_cbc_encrypt_multi({cbc_.data(), cbc_count_});
  for (const PendingMac& m : std::span(macs_.data(), mac_count_)) {
    crypto::Sha256Digest mac = m.key->mac(m.label, ByteView(m.body, m.authed_len));
    std::memcpy(m.body + m.authed_len, mac.data(), kMacSize);
  }
  cbc_count_ = mac_count_ = 0;
}

namespace {

// A burst of one body, sealed into `out` behind kSealHeadroom.
void seal_one(const SessionKeys& keys, Rng* iv_rng, const FragmentHeader& frag,
              ByteView payload, WireBuffer& out) {
  out.reset(kSealHeadroom);
  SealBurst burst;
  burst.add(keys, iv_rng, frag, payload,
            out.append(sealed_body_size(payload.size(), iv_rng != nullptr)));
  burst.flush();
}

}  // namespace

void seal_data_body(const SessionKeys& keys, const FragmentHeader& frag,
                    ByteView payload, Rng& rng, WireBuffer& out) {
  seal_one(keys, &rng, frag, payload, out);
}

void seal_integrity_body(const SessionKeys& keys, const FragmentHeader& frag,
                         ByteView payload, WireBuffer& out) {
  seal_one(keys, nullptr, frag, payload, out);
}

Bytes seal_data_body(const SessionKeys& keys, const FragmentHeader& frag,
                     ByteView payload, Rng& rng) {
  WireBuffer out;
  seal_data_body(keys, frag, payload, rng, out);
  return out.take();
}

Bytes seal_integrity_body(const SessionKeys& keys, const FragmentHeader& frag,
                          ByteView payload) {
  WireBuffer out;
  seal_integrity_body(keys, frag, payload, out);
  return out.take();
}

Result<OpenedBody> open_data_body(const SessionKeys& keys, Bytes&& body) {
  if (body.size() < kFragHeaderSize + 16 + kMacSize)
    return err("data body: too short");
  if (!check_mac(keys, kDataLabel, body))
    return err("data body: MAC verification failed");

  OpenedBody opened;
  opened.frag = read_frag(body.data());
  const std::uint8_t* iv = body.data() + kFragHeaderSize;
  std::size_t ct_off = kFragHeaderSize + 16;
  std::size_t ct_len = body.size() - kMacSize - ct_off;
  auto plaintext_len = crypto::aes128_cbc_decrypt_inplace(
      keys.aes(), iv, {body.data() + ct_off, ct_len});
  if (!plaintext_len.ok()) return err("data body: " + plaintext_len.error());
  opened.payload = move_out_payload(std::move(body), ct_off, *plaintext_len);
  return opened;
}

Result<OpenedBody> open_integrity_body(const SessionKeys& keys, Bytes&& body) {
  if (body.size() < kFragHeaderSize + kMacSize)
    return err("integrity body: too short");
  if (!check_mac(keys, kIntegLabel, body))
    return err("integrity body: MAC verification failed");
  OpenedBody opened;
  opened.frag = read_frag(body.data());
  std::size_t payload_len = body.size() - kMacSize - kFragHeaderSize;
  opened.payload =
      move_out_payload(std::move(body), kFragHeaderSize, payload_len);
  return opened;
}

Result<OpenedBody> open_data_body(const SessionKeys& keys, ByteView body) {
  return open_data_body(keys, Bytes(body.begin(), body.end()));
}

Result<OpenedBody> open_integrity_body(const SessionKeys& keys, ByteView body) {
  return open_integrity_body(keys, Bytes(body.begin(), body.end()));
}

void seal_ping_body(const SessionKeys& keys, const PingInfo& info,
                    std::uint8_t* out) {
  put_u64(out, info.seq);
  put_u32(out + 8, info.config_version);
  put_u32(out + 12, info.grace_period_secs);
  crypto::Sha256Digest mac = mac_over(keys, kPingLabel, ByteView(out, 16));
  std::memcpy(out + 16, mac.data(), kMacSize);
}

Bytes seal_ping_body(const SessionKeys& keys, const PingInfo& info) {
  Bytes out(kPingBodySize);
  seal_ping_body(keys, info, out.data());
  return out;
}

Result<PingInfo> open_ping_body(const SessionKeys& keys, ByteView body) {
  if (body.size() != kPingBodySize) return err("ping body: bad size");
  if (!check_mac(keys, kPingLabel, body))
    return err("ping body: MAC verification failed");
  PingInfo info;
  info.seq = get_u64(body.data());
  info.config_version = get_u32(body.data() + 8);
  info.grace_period_secs = get_u32(body.data() + 12);
  return info;
}

}  // namespace endbox::vpn
