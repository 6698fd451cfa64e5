// The one wire codec: little-endian fixed-width integers and doubles plus
// LEB128 varints/zigzag, written by `wire::Writer` and read back by the
// bounds-checked `wire::Reader`. Every byte format in the repository —
// serialized batches, window checkpoints, segment framing, store and
// journal record payloads — encodes and decodes through these two types,
// so a short read or a forged count is caught in one place instead of in
// each codec's own copy of the helpers.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace prompt::wire {

static_assert(std::endian::native == std::endian::little,
              "the wire format is little-endian; add byte swaps to port it");

/// \brief Appends encoded fields to a caller-owned string; callers on hot
/// paths reserve the string first.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Fixed(v); }
  void U64(uint64_t v) { Fixed(v); }
  void I32(int32_t v) { Fixed(v); }
  void I64(int64_t v) { Fixed(v); }
  void F64(double v) { Fixed(v); }
  void Varint(uint64_t v) {
    while (v >= 0x80) {
      out_->push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out_->push_back(static_cast<char>(v));
  }
  void ZigZag(int64_t v) {
    Varint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }
  void Bytes(std::string_view bytes) { out_->append(bytes); }

 private:
  template <typename T>
  void Fixed(T v) {
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out_->append(buf, sizeof(T));
  }

  std::string* out_;
};

/// \brief Bounds-checked cursor over encoded bytes. Every read returns
/// false — consuming nothing — when the bytes run out, so decoders turn a
/// truncated or forged input into a Status instead of an overread.
class Reader {
 public:
  explicit Reader(std::string_view bytes, size_t offset = 0)
      : bytes_(bytes), pos_(offset <= bytes.size() ? offset : bytes.size()) {}

  bool U8(uint8_t* v) { return Fixed(v); }
  bool U32(uint32_t* v) { return Fixed(v); }
  bool U64(uint64_t* v) { return Fixed(v); }
  bool I32(int32_t* v) { return Fixed(v); }
  bool I64(int64_t* v) { return Fixed(v); }
  bool F64(double* v) { return Fixed(v); }
  bool Varint(uint64_t* v) {
    uint64_t result = 0;
    size_t pos = pos_;
    for (uint32_t shift = 0; shift < 64; shift += 7) {
      if (pos >= bytes_.size()) return false;
      const uint8_t byte = static_cast<uint8_t>(bytes_[pos++]);
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *v = result;
        pos_ = pos;
        return true;
      }
    }
    return false;
  }
  bool ZigZag(int64_t* v) {
    uint64_t u = 0;
    if (!Varint(&u)) return false;
    *v = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    return true;
  }
  /// Reads the next `n` bytes as a view into the underlying buffer.
  bool Bytes(size_t n, std::string_view* out) {
    if (n > remaining()) return false;
    *out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  /// True when `count` items of at least `min_bytes_per_item` bytes each
  /// could still fit in the unread bytes. Compared by division, so a forged
  /// count near 2^64 cannot wrap a multiplication past the check — call it
  /// before any reserve() sized by a decoded count.
  bool Count(uint64_t count, uint64_t min_bytes_per_item) const {
    return count <= remaining() / min_bytes_per_item;
  }

  /// The unread bytes (a view; consumes nothing).
  std::string_view Rest() const { return bytes_.substr(pos_); }
  size_t remaining() const { return bytes_.size() - pos_; }
  size_t offset() const { return pos_; }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  template <typename T>
  bool Fixed(T* v) {
    if (sizeof(T) > remaining()) return false;
    std::memcpy(v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  std::string_view bytes_;
  size_t pos_;
};

}  // namespace prompt::wire
