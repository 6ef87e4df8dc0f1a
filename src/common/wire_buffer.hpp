// Reusable serialisation buffer with headroom, in the style of Click
// packet buffers: the payload is written once at a headroom offset and
// headers are prepended in front of it without moving data, while MACs
// and padding extend the tail. Because the underlying storage only ever
// grows, steady-state reuse of one WireBuffer performs no heap
// allocation — the property the VPN data path is built on.
#pragma once

#include <span>

#include "common/bytes.hpp"

namespace endbox {

class WireBuffer {
 public:
  /// Default headroom covers a VPN message header (5) plus the fragment
  /// header (16) plus an IV (16), with slack for future encapsulation.
  static constexpr std::size_t kDefaultHeadroom = 64;

  explicit WireBuffer(std::size_t headroom = kDefaultHeadroom) { reset(headroom); }

  /// Empties the buffer and re-arms `headroom` bytes of prepend space.
  /// Capacity is retained, so reuse never reallocates.
  void reset(std::size_t headroom = kDefaultHeadroom) {
    if (buf_.size() < headroom) buf_.resize(headroom);
    head_ = tail_ = headroom;
  }

  std::size_t size() const { return tail_ - head_; }
  bool empty() const { return head_ == tail_; }
  std::size_t headroom() const { return head_; }

  /// Grows the tail by `n` bytes and returns a pointer to the new region.
  std::uint8_t* append(std::size_t n) {
    if (tail_ + n > buf_.size())
      buf_.resize(std::max(tail_ + n, buf_.size() * 2));
    std::uint8_t* p = buf_.data() + tail_;
    tail_ += n;
    return p;
  }

  void append(ByteView data) {
    std::uint8_t* p = append(data.size());
    if (!data.empty()) std::memcpy(p, data.data(), data.size());
  }

  void append_u8(std::uint8_t v) { *append(1) = v; }

  /// Claims `n` bytes of headroom in front of the current contents and
  /// returns a pointer to them. Throws if the headroom is exhausted —
  /// callers size the reset() headroom for the headers they prepend.
  std::uint8_t* prepend(std::size_t n) {
    if (n > head_) throw std::logic_error("WireBuffer: headroom exhausted");
    head_ -= n;
    return buf_.data() + head_;
  }

  void prepend(ByteView data) {
    std::memcpy(prepend(data.size()), data.data(), data.size());
  }

  ByteView view() const { return ByteView(buf_.data() + head_, size()); }
  std::span<std::uint8_t> span() { return {buf_.data() + head_, size()}; }
  const std::uint8_t* data() const { return buf_.data() + head_; }
  std::uint8_t* data() { return buf_.data() + head_; }

  /// Moves the contents out as an exact-size Bytes (one memmove, no
  /// copy); the buffer is left reset and must be reset() before reuse.
  Bytes take() {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    buf_.resize(tail_ - head_);
    head_ = tail_ = 0;
    return std::move(buf_);
  }

 private:
  Bytes buf_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace endbox
