#include "common/bytes.hpp"

namespace endbox {

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(ByteView b) {
  return std::string(b.begin(), b.end());
}

std::string to_hex(ByteView b) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t c : b) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

namespace {
int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::optional<Bytes> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = hex_val(hex[i]);
    int lo = hex_val(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

void append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

bool ct_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

void put_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(Bytes& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

void put_u64(Bytes& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  auto v = get_u16(data_.data() + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  auto v = get_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  auto v = get_u64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

Bytes ByteReader::take(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

ByteView ByteReader::view(std::size_t n) {
  need(n);
  ByteView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Bytes ByteReader::rest() {
  return take(remaining());
}

ByteView ByteReader::rest_view() {
  return view(remaining());
}

}  // namespace endbox
