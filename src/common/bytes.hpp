// Byte-buffer utilities shared across all EndBox modules.
//
// A `Bytes` value is the universal currency for packet payloads, keys,
// serialized messages and config files. Helpers here cover hex encoding,
// big-endian integer (de)serialisation and a small cursor-based reader
// used by the packet and VPN wire-format parsers.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace endbox {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Converts an ASCII string to bytes (no terminator).
Bytes to_bytes(std::string_view s);

/// Converts bytes to a std::string (may contain NULs).
std::string to_string(ByteView b);

/// Lower-case hex encoding, e.g. {0xde,0xad} -> "dead".
std::string to_hex(ByteView b);

/// Inverse of to_hex; returns nullopt on odd length or non-hex chars.
std::optional<Bytes> from_hex(std::string_view hex);

/// Appends `src` to `dst`.
void append(Bytes& dst, ByteView src);

/// Constant-time equality; length mismatch returns false (not constant
/// time in the length, which is public).
bool ct_equal(ByteView a, ByteView b);

// Big-endian integer serialisation -------------------------------------

void put_u16(Bytes& out, std::uint16_t v);
void put_u32(Bytes& out, std::uint32_t v);
void put_u64(Bytes& out, std::uint64_t v);

/// Raw-pointer variants writing into preallocated storage (the
/// allocation-free wire path builds headers in place). Inline: the
/// portable AES rounds read every round-key word through get_u32.
inline void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  put_u16(p, static_cast<std::uint16_t>(v >> 16));
  put_u16(p + 2, static_cast<std::uint16_t>(v));
}
inline void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v >> 32));
  put_u32(p + 4, static_cast<std::uint32_t>(v));
}

inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(get_u16(p)) << 16 | get_u16(p + 2);
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) << 32 | get_u32(p + 4);
}

/// Sequential reader over a byte view. All getters throw
/// `std::out_of_range` when the buffer is exhausted, which wire-format
/// parsers translate into a parse error.
class ByteReader {
 public:
  explicit ByteReader(ByteView data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return remaining() == 0; }
  std::size_t position() const { return pos_; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes take(std::size_t n);
  ByteView view(std::size_t n);
  Bytes rest();
  /// Remaining bytes as a view (no copy); the reader is consumed.
  ByteView rest_view();

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw std::out_of_range("ByteReader: short buffer");
  }
  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace endbox
