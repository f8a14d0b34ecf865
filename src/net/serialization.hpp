// Byte-level serialisation of message payloads.
//
// Only trivially copyable types and contiguous ranges of them are supported,
// matching what the paper's application (particle state vectors) needs while
// keeping wire sizes explicit — message length drives transmission time in
// the network model, so serialisation *is* part of the performance model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "support/contracts.hpp"

namespace specomp::net {

class ByteWriter {
 public:
  ByteWriter() = default;

  /// Builds on top of `reuse`'s storage (cleared, capacity kept), so pooled
  /// buffers (see buffer_pool.hpp) avoid re-allocating per message.
  explicit ByteWriter(std::vector<std::byte> reuse) : bytes_(std::move(reuse)) {
    bytes_.clear();
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    const auto* raw = reinterpret_cast<const std::byte*>(&value);
    bytes_.insert(bytes_.end(), raw, raw + sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_span(std::span<const T> values) {
    write<std::uint64_t>(values.size());
    const auto* raw = reinterpret_cast<const std::byte*>(values.data());
    bytes_.insert(bytes_.end(), raw, raw + values.size_bytes());
  }

  template <typename T>
  void write_vector(const std::vector<T>& values) {
    write_span(std::span<const T>(values));
  }

  std::size_t size() const noexcept { return bytes_.size(); }
  std::vector<std::byte> take() && { return std::move(bytes_); }
  const std::vector<std::byte>& bytes() const noexcept { return bytes_; }

 private:
  std::vector<std::byte> bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    SPEC_EXPECTS(pos_ + sizeof(T) <= bytes_.size());
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto count = read<std::uint64_t>();
    SPEC_EXPECTS(pos_ + count * sizeof(T) <= bytes_.size());
    std::vector<T> values(count);
    std::memcpy(values.data(), bytes_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return values;
  }

  /// Zero-copy variant of read_vector: a view into the reader's buffer,
  /// valid only while the underlying payload is alive and unmoved.  Use when
  /// the caller consumes the values immediately (copies into its own state);
  /// the span must not outlive the message.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::span<const T> read_span() {
    const auto count = read<std::uint64_t>();
    SPEC_EXPECTS(pos_ + count * sizeof(T) <= bytes_.size());
    const std::byte* raw = bytes_.data() + pos_;
    // Payload vectors are allocator-aligned and every write_span is preceded
    // by an 8-byte count, so in-place reads are safe unless built by hand.
    // specomp: allow(ptr-cast): alignment assert only, the value never escapes
    SPEC_EXPECTS(reinterpret_cast<std::uintptr_t>(raw) % alignof(T) == 0);
    pos_ += count * sizeof(T);
    return {reinterpret_cast<const T*>(raw), static_cast<std::size_t>(count)};
  }

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace specomp::net
