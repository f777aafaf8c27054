// Packed trace rows: a lossless variable-length byte form of TraceRecord
// for records a process holds in memory between producing and writing
// or delivering them — the engine's bootstrap history
// (sim/parallel.cpp), the `.u1b` writer's open stripes
// (trace/binlog.cpp) and the trace reader's decoded days
// (trace/logfile.cpp). A 128-byte record whose optional fields are
// mostly empty packs to about 40 bytes.
//
// Row layout (varint = LEB128):
//
//   head  u8      type (bits 0-2), is_update/is_dir/deduplicated/failed
//                 (bits 3-6)
//   mask  varint  which of the fields below follow (bit i = field i)
//   dt    varint  zigzag(t - prev_t), modulo 2^64
//   then, in bit order, each field the mask names:
//     0 machine   1 process  2 user  3 session  4 label  5 size_bytes
//     6 transferred_bytes  7 duration (zigzag)  8 service_time  9 shard
//     (varints), 10 api_op  11 rpc_op  12 session_event (u8),
//     13 node  14 volume  15 parent (16 raw bytes)  16 content (20 raw)
//
// A field is left out when it holds its zero value, so a default record
// packs to three bytes. `prev_t` is the previous row's t (0 before the
// first), so rows are read front to back. The decoder trusts its input:
// it only ever reads rows this process packed, never a file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "trace/record.hpp"
#include "util/page_alloc.hpp"

namespace u1 {

/// No row packs to more bytes than this.
inline constexpr std::size_t kMaxPackedRow = 160;

/// Packs `r` at `out`, which has room for kMaxPackedRow bytes, with its
/// t stored against `prev_t`; returns the byte after the row.
std::uint8_t* pack_record(const TraceRecord& r, SimTime prev_t,
                          std::uint8_t* out) noexcept;

/// Unpacks the row at `in`, packed against `prev_t`, into `r`; returns
/// the byte after the row.
const std::uint8_t* unpack_record(const std::uint8_t* in, SimTime prev_t,
                                  TraceRecord& r) noexcept;

/// Rows packed one after another, each against the one before it, in
/// a buffer from PageAllocator: room reserved for many rows is address
/// space, and only the pages the rows reach become resident.
class PackedRows {
 public:
  PackedRows() = default;
  PackedRows(PackedRows&& other) noexcept { swap(other); }
  PackedRows& operator=(PackedRows&& other) noexcept {
    PackedRows(std::move(other)).swap(*this);
    return *this;
  }
  ~PackedRows() { deallocate(); }

  /// Makes room for `bytes` bytes of rows, and for one more row after
  /// those already held.
  void reserve(std::size_t bytes);
  void push_back(const TraceRecord& r) {
    if (capacity_ - bytes_ < kMaxPackedRow) reserve(2 * capacity_);
    bytes_ = static_cast<std::size_t>(
        pack_record(r, last_t_, data_ + bytes_) - data_);
    last_t_ = r.t;
    ++rows_;
  }
  /// A copy of the rows in a buffer of exactly bytes() bytes.
  PackedRows fitted() const;
  /// Drops the rows, keeping the buffer.
  void clear() noexcept {
    bytes_ = rows_ = released_ = 0;
    last_t_ = 0;
  }
  /// Drops the rows and the buffer.
  void free() noexcept { PackedRows().swap(*this); }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t bytes() const noexcept { return bytes_; }
  const std::uint8_t* data() const noexcept { return data_; }
  /// Hands back the whole pages under the first `n` bytes, which nothing
  /// reads again (release_pages in util/page_alloc.hpp).
  void release_prefix(std::size_t n) noexcept {
    release_pages(data_, capacity_, n, released_);
  }

  void swap(PackedRows& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(capacity_, other.capacity_);
    std::swap(bytes_, other.bytes_);
    std::swap(rows_, other.rows_);
    std::swap(released_, other.released_);
    std::swap(last_t_, other.last_t_);
  }

 private:
  void deallocate() noexcept {
    if (data_ != nullptr)
      PageAllocator<std::uint8_t>().deallocate(data_, capacity_);
  }

  std::uint8_t* data_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t bytes_ = 0;
  std::size_t rows_ = 0;
  std::size_t released_ = 0;  // release_prefix's progress
  SimTime last_t_ = 0;
};

/// Reads packed rows front to back.
struct PackedReader {
  const std::uint8_t* p = nullptr;
  SimTime prev_t = 0;

  void next(TraceRecord& r) noexcept {
    p = unpack_record(p, prev_t, r);
    prev_t = r.t;
  }
};

}  // namespace u1
