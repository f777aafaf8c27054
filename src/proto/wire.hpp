// Shared low-level wire primitives for the length-prefixed binary
// protocol: little-endian fixed-width writers, LEB128 varints, zigzag
// transforms for signed SimTime, and the bounds-checked payload Cursor.
// The request/response envelope (envelope.cpp), the distributed
// control plane (control.cpp) and chunk stream (sim/distributed.cpp) and
// the .u1b trace format (trace/binlog.cpp) all encode with exactly
// these idioms, so a varint is a varint wherever it is written.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace u1::wire {

inline void put_le16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint16_t get_le16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Bounds-checked payload reader; `ok` goes false on any overrun and
/// every accessor returns a zero value afterwards.
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;
  bool ok = true;

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (ok) {
      if (p == end || shift > 63) {
        ok = false;
        return 0;
      }
      const std::uint8_t b = *p++;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
    return 0;
  }

  std::uint8_t u8() {
    if (!ok || p == end) {
      ok = false;
      return 0;
    }
    return *p++;
  }

  const std::uint8_t* take(std::size_t n) {
    if (!ok || static_cast<std::size_t>(end - p) < n) {
      ok = false;
      return nullptr;
    }
    const std::uint8_t* r = p;
    p += n;
    return r;
  }
};

inline void put_raw(std::vector<std::uint8_t>& out, const std::uint8_t* p,
                    std::size_t n) {
  out.insert(out.end(), p, p + n);
}

inline void put_short_string(std::vector<std::uint8_t>& out,
                             std::string_view s) {
  out.push_back(static_cast<std::uint8_t>(s.size()));
  put_raw(out, reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

}  // namespace u1::wire
