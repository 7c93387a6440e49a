// Binary wire codec: little-endian fixed-width integers, length-prefixed
// strings and vectors. Reader returns Result so malformed/truncated input
// from the network surfaces as Errc::protocol_error, never UB.
//
// Encoders are written once as a generic `put(w)` over the Writer
// vocabulary and run twice by encode_exact(): first against a Sizer, which
// only adds up lengths, then against a Writer reserved to that total. A
// message therefore costs exactly one heap allocation, the returned buffer.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ph::proto {

/// Stores `v` little-endian at `out` (sizeof(T) bytes).
template <typename T>
inline void store_le(std::uint8_t* out, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Counts the bytes a Writer would append for the same calls.
class Sizer {
 public:
  void u8(std::uint8_t) noexcept { size_ += 1; }
  void u16(std::uint16_t) noexcept { size_ += 2; }
  void u32(std::uint32_t) noexcept { size_ += 4; }
  void u64(std::uint64_t) noexcept { size_ += 8; }
  void str(std::string_view v) noexcept { size_ += 4 + v.size(); }
  void bytes(BytesView v) noexcept { size_ += 4 + v.size(); }
  void str_list(const std::vector<std::string>& v) noexcept {
    size_ += 4;
    for (const auto& s : v) size_ += 4 + s.size();
  }

  std::size_t size() const noexcept { return size_; }

 private:
  std::size_t size_ = 0;
};

class Writer {
 public:
  Writer() = default;
  /// Reserves `capacity` bytes up front; writing no more than that never
  /// reallocates.
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  /// Length-prefixed (u32) byte string.
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
  void bytes(BytesView v) {
    u32(static_cast<std::uint32_t>(v.size()));
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
  void str_list(const std::vector<std::string>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& s : v) str(s);
  }

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    std::array<std::uint8_t, sizeof(T)> le;
    store_le(le.data(), v);
    buf_.insert(buf_.end(), le.begin(), le.end());
  }

  Bytes buf_;
};

/// Runs the generic encoder `put(w)` over a Sizer, then over a Writer of
/// exactly that size, and returns the bytes: one allocation per message.
template <typename Put>
Bytes encode_exact(Put&& put) {
  Sizer sizer;
  put(sizer);
  Writer writer(sizer.size());
  put(writer);
  return std::move(writer).take();
}

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::string> str();
  Result<Bytes> bytes();
  /// Like bytes(), but returns a view into the input instead of a copy;
  /// valid as long as the buffer the Reader was constructed over.
  Result<BytesView> bytes_view();
  Result<std::vector<std::string>> str_list();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  Result<void> need(std::size_t n);

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace ph::proto
