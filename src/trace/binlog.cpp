#include "trace/binlog.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>

#include "proto/wire.hpp"
#include "trace/packed.hpp"
#include "util/mapped_file.hpp"
#include "util/page_alloc.hpp"
#include "util/sim_time.hpp"

namespace u1 {
namespace {

// --- format constants -------------------------------------------------------

// PNG-style magic: a high byte no text encoding produces, the format
// name, then CRLF/EOF/LF bytes that catch ASCII-mode mangling. Never a
// valid CSV prefix, so the reader can sniff by the first 8 bytes.
constexpr std::array<unsigned char, 8> kLogMagic = {
    0x89, 'U', '1', 'B', 0x0D, 0x0A, 0x1A, 0x0A};
constexpr std::array<unsigned char, 8> kSymMagic = {
    0x89, 'U', '1', 'S', 0x0D, 0x0A, 0x1A, 0x0A};

constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kFileHeaderBytes = 64;
constexpr std::size_t kSidecarHeaderBytes = 48;
// payload_bytes:u32 record_count:u32 type_counts:u32[kRecordTypeCount]
constexpr std::size_t kStripeHeaderBytes = 8 + 4 * kRecordTypeCount;

// --- little-endian + varint primitives --------------------------------------

void put_le16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
void put_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint16_t get_le16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t get_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t get_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

using wire::put_varint;
using wire::unzigzag;
using wire::zigzag;

/// Raw-pointer variant for the encode hot loop: the caller reserves the
/// segment's worst case up front, so every write is unchecked.
std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

// --- integrity checksum -----------------------------------------------------

/// XXH64 (Yann Collet's xxHash64 algorithm): the `.u1b`/`.u1s`
/// integrity checksum. It guards against torn writes and bit rot, not
/// adversaries — so a non-cryptographic hash that runs at memory speed
/// is the right tool; a SHA here would cost more than the entire
/// columnar encode.
class Xxh64 {
 public:
  Xxh64() noexcept { reset(); }

  void reset(std::uint64_t seed = 0) noexcept {
    v1_ = seed + kP1 + kP2;
    v2_ = seed + kP2;
    v3_ = seed;
    v4_ = seed - kP1;
    len_ = 0;
    buf_used_ = 0;
  }

  void update(const std::uint8_t* data, std::size_t len) noexcept {
    // An empty vector's data() may be null, and memcpy from null is UB
    // even for zero bytes.
    if (len == 0) return;
    len_ += len;
    if (buf_used_ + len < kBlock) {
      std::memcpy(buf_ + buf_used_, data, len);
      buf_used_ += len;
      return;
    }
    if (buf_used_ > 0) {
      const std::size_t fill = kBlock - buf_used_;
      std::memcpy(buf_ + buf_used_, data, fill);
      data += fill;
      len -= fill;
      round_block(buf_);
      buf_used_ = 0;
    }
    while (len >= kBlock) {
      round_block(data);
      data += kBlock;
      len -= kBlock;
    }
    std::memcpy(buf_, data, len);
    buf_used_ = len;
  }

  std::uint64_t digest() const noexcept {
    std::uint64_t h;
    if (len_ >= kBlock) {
      h = rotl(v1_, 1) + rotl(v2_, 7) + rotl(v3_, 12) + rotl(v4_, 18);
      h = merge(h, v1_);
      h = merge(h, v2_);
      h = merge(h, v3_);
      h = merge(h, v4_);
    } else {
      h = v3_ + kP5;  // v3_ holds the seed until the first full block
    }
    h += len_;
    const std::uint8_t* p = buf_;
    const std::uint8_t* end = buf_ + buf_used_;
    for (; p + 8 <= end; p += 8) {
      h ^= round1(0, get_le64(p));
      h = rotl(h, 27) * kP1 + kP4;
    }
    if (p + 4 <= end) {
      h ^= static_cast<std::uint64_t>(get_le32(p)) * kP1;
      h = rotl(h, 23) * kP2 + kP3;
      p += 4;
    }
    for (; p < end; ++p) {
      h ^= *p * kP5;
      h = rotl(h, 11) * kP1;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr std::size_t kBlock = 32;
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
  static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  static constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

  static constexpr std::uint64_t rotl(std::uint64_t x, int r) noexcept {
    return (x << r) | (x >> (64 - r));
  }
  static constexpr std::uint64_t round1(std::uint64_t acc,
                                        std::uint64_t input) noexcept {
    return rotl(acc + input * kP2, 31) * kP1;
  }
  static constexpr std::uint64_t merge(std::uint64_t h,
                                       std::uint64_t v) noexcept {
    return (h ^ round1(0, v)) * kP1 + kP4;
  }
  void round_block(const std::uint8_t* p) noexcept {
    v1_ = round1(v1_, get_le64(p));
    v2_ = round1(v2_, get_le64(p + 8));
    v3_ = round1(v3_, get_le64(p + 16));
    v4_ = round1(v4_, get_le64(p + 24));
  }

  std::uint64_t v1_, v2_, v3_, v4_;
  std::uint64_t len_ = 0;
  std::uint8_t buf_[kBlock];
  std::size_t buf_used_ = 0;
};

std::uint64_t xxh64(const std::uint8_t* data, std::size_t len) noexcept {
  Xxh64 h;
  h.update(data, len);
  return h.digest();
}

/// Bounds-checked decode cursor. Every read sets ok=false instead of
/// stepping past `end`; callers check ok once per stripe.
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;
  bool ok = true;

  std::uint64_t varint() noexcept {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p >= end) {
        ok = false;
        return 0;
      }
      const std::uint8_t b = *p++;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    ok = false;  // > 10 bytes: not a varint we ever write
    return 0;
  }

  const std::uint8_t* take(std::size_t n) noexcept {
    if (static_cast<std::size_t>(end - p) < n) {
      ok = false;
      return nullptr;
    }
    const std::uint8_t* r = p;
    p += n;
    return r;
  }
};

// --- column codecs ----------------------------------------------------------
//
// A segment holds every record of one type in one stripe, column-major.
// Encode and decode MUST walk the identical column order; keep the two
// functions below in lockstep.
//
//   1. t                zigzag varint delta (prev starts at 0)
//   2. duration         varint
//   3. size_bytes       varint
//   4. transferred_bytes varint
//   5. service_time     varint
//   6. user             varint
//   7. session          varint
//   8. label            varint (file-local SymbolDict id)
//   9. shard            varint
//  10. node             presence bitmap + 16 raw bytes per present
//  11. parent           presence bitmap + 16 raw bytes per present
//  12. volume           presence bitmap + 16 raw bytes per present
//  13. content          presence bitmap + 20 raw bytes per present
//  14. session_event    u8[n]
//  15. api_op           u8[n]
//  16. rpc_op           u8[n]
//  17. flags            u8[n] (bit0 update, bit1 dir, bit2 dedup, bit3 failed)

std::uint8_t* encode_uuid_column(std::span<const TraceRecord> recs,
                                 const std::vector<std::uint32_t>& idx,
                                 Uuid TraceRecord::* member,
                                 std::uint8_t* p) {
  std::uint8_t* bitmap = p;
  const std::size_t bitmap_bytes = (idx.size() + 7) / 8;
  std::memset(bitmap, 0, bitmap_bytes);
  p += bitmap_bytes;
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const Uuid& u = recs[idx[j]].*member;
    if (u.is_nil()) continue;
    bitmap[j >> 3] |= static_cast<std::uint8_t>(1u << (j & 7));
    std::memcpy(p, u.bytes.data(), u.bytes.size());
    p += u.bytes.size();
  }
  return p;
}

bool decode_uuid_column(Cursor& c, const std::vector<std::uint32_t>& idx,
                        Uuid TraceRecord::* member, TraceRecord* recs) {
  const std::uint8_t* bitmap = c.take((idx.size() + 7) / 8);
  if (bitmap == nullptr) return false;
  for (std::size_t j = 0; j < idx.size(); ++j) {
    if (((bitmap[j >> 3] >> (j & 7)) & 1) == 0) continue;
    const std::uint8_t* b = c.take(16);
    if (b == nullptr) return false;
    std::memcpy((recs[idx[j]].*member).bytes.data(), b, 16);
  }
  return true;
}

std::uint8_t pack_flags(const TraceRecord& r) noexcept {
  return static_cast<std::uint8_t>(
      (r.is_update ? 1u : 0u) | (r.is_dir ? 2u : 0u) |
      (r.deduplicated ? 4u : 0u) | (r.failed ? 8u : 0u));
}

void encode_segment(std::span<const TraceRecord> recs,
                    const std::vector<std::uint32_t>& idx, SymbolDict& dict,
                    std::vector<std::uint8_t>& out) {
  // One worst-case reservation, then unchecked raw-pointer writes: the
  // per-byte push_back bounds checks were the encode hot spot. Worst
  // case per record: 9 varints (≤63 B), 3 UUIDs + content (≤68 B),
  // 4 enum/flag bytes; plus 4 presence bitmaps.
  const std::size_t n = idx.size();
  const std::size_t base = out.size();
  out.resize(base + n * 136 + 4 * (n / 8 + 1));
  std::uint8_t* p = out.data() + base;

  SimTime prev = 0;
  for (const std::uint32_t i : idx) {
    p = put_varint(p, zigzag(recs[i].t - prev));
    prev = recs[i].t;
  }
  for (const std::uint32_t i : idx)
    p = put_varint(p, static_cast<std::uint64_t>(recs[i].duration));
  for (const std::uint32_t i : idx) p = put_varint(p, recs[i].size_bytes);
  for (const std::uint32_t i : idx)
    p = put_varint(p, recs[i].transferred_bytes);
  for (const std::uint32_t i : idx) p = put_varint(p, recs[i].service_time);
  for (const std::uint32_t i : idx) p = put_varint(p, recs[i].user.value);
  for (const std::uint32_t i : idx) p = put_varint(p, recs[i].session.value);
  for (const std::uint32_t i : idx)
    p = put_varint(p, dict.local_id(recs[i].label));
  for (const std::uint32_t i : idx) p = put_varint(p, recs[i].shard.value);
  p = encode_uuid_column(recs, idx, &TraceRecord::node, p);
  p = encode_uuid_column(recs, idx, &TraceRecord::parent, p);
  p = encode_uuid_column(recs, idx, &TraceRecord::volume, p);
  {  // content: same presence scheme, 20-byte SHA-1 payload
    std::uint8_t* bitmap = p;
    const std::size_t bitmap_bytes = (n + 7) / 8;
    std::memset(bitmap, 0, bitmap_bytes);
    p += bitmap_bytes;
    for (std::size_t j = 0; j < n; ++j) {
      const ContentId& cid = recs[idx[j]].content;
      if (cid == ContentId{}) continue;
      bitmap[j >> 3] |= static_cast<std::uint8_t>(1u << (j & 7));
      std::memcpy(p, cid.bytes.data(), cid.bytes.size());
      p += cid.bytes.size();
    }
  }
  for (const std::uint32_t i : idx)
    *p++ = static_cast<std::uint8_t>(recs[i].session_event);
  for (const std::uint32_t i : idx)
    *p++ = static_cast<std::uint8_t>(recs[i].api_op);
  for (const std::uint32_t i : idx)
    *p++ = static_cast<std::uint8_t>(recs[i].rpc_op);
  for (const std::uint32_t i : idx) *p++ = pack_flags(recs[i]);

  out.resize(static_cast<std::size_t>(p - out.data()));
}

/// Decodes one segment. Labels keep their file-local ids, each checked
/// to be below `label_count` (the sidecar's strings plus the empty one).
bool decode_segment(Cursor& c, RecordType type,
                    const std::vector<std::uint32_t>& idx, TraceRecord* recs,
                    std::size_t label_count, std::uint8_t machine,
                    std::uint16_t process) {
  SimTime prev = 0;
  for (const std::uint32_t i : idx) {
    prev += unzigzag(c.varint());
    recs[i].t = prev;
  }
  for (const std::uint32_t i : idx)
    recs[i].duration = static_cast<SimTime>(c.varint());
  for (const std::uint32_t i : idx) recs[i].size_bytes = c.varint();
  for (const std::uint32_t i : idx) recs[i].transferred_bytes = c.varint();
  for (const std::uint32_t i : idx) {
    const std::uint64_t v = c.varint();
    if (v > 0xffffffffu) return false;
    recs[i].service_time = static_cast<std::uint32_t>(v);
  }
  for (const std::uint32_t i : idx) {
    const std::uint64_t v = c.varint();
    if (v > 0xffffffffu) return false;
    recs[i].user = UserId{v};
  }
  for (const std::uint32_t i : idx) {
    const std::uint64_t v = c.varint();
    if (v > 0xffffffffu) return false;
    recs[i].session = SessionId{v};
  }
  for (const std::uint32_t i : idx) {
    const std::uint64_t local = c.varint();
    if (local >= label_count) return false;
    recs[i].label = static_cast<Symbol>(local);
  }
  for (const std::uint32_t i : idx) {
    const std::uint64_t v = c.varint();
    if (v > 0xffffu) return false;
    recs[i].shard = ShardId{v};
  }
  if (!decode_uuid_column(c, idx, &TraceRecord::node, recs)) return false;
  if (!decode_uuid_column(c, idx, &TraceRecord::parent, recs)) return false;
  if (!decode_uuid_column(c, idx, &TraceRecord::volume, recs)) return false;
  {
    const std::uint8_t* bitmap = c.take((idx.size() + 7) / 8);
    if (bitmap == nullptr) return false;
    for (std::size_t j = 0; j < idx.size(); ++j) {
      if (((bitmap[j >> 3] >> (j & 7)) & 1) == 0) continue;
      const std::uint8_t* b = c.take(20);
      if (b == nullptr) return false;
      std::memcpy(recs[idx[j]].content.bytes.data(), b, 20);
    }
  }
  const std::uint8_t* events = c.take(idx.size());
  const std::uint8_t* api_ops = c.take(idx.size());
  const std::uint8_t* rpc_ops = c.take(idx.size());
  const std::uint8_t* flags = c.take(idx.size());
  if (!c.ok) return false;
  constexpr auto kMaxEvent =
      static_cast<std::uint8_t>(SessionEvent::kTryAgain);
  for (std::size_t j = 0; j < idx.size(); ++j) {
    if (events[j] > kMaxEvent || api_ops[j] >= kApiOpCount ||
        rpc_ops[j] >= kRpcOpCount || (flags[j] & ~0x0fu) != 0)
      return false;
    TraceRecord& r = recs[idx[j]];
    r.session_event = static_cast<SessionEvent>(events[j]);
    r.api_op = static_cast<ApiOp>(api_ops[j]);
    r.rpc_op = static_cast<RpcOp>(rpc_ops[j]);
    r.is_update = (flags[j] & 1) != 0;
    r.is_dir = (flags[j] & 2) != 0;
    r.deduplicated = (flags[j] & 4) != 0;
    r.failed = (flags[j] & 8) != 0;
    r.type = type;
    r.machine = MachineId{machine};
    r.process = ProcessId{process};
  }
  return true;
}

std::filesystem::path sidecar_path(const std::filesystem::path& logfile) {
  std::filesystem::path p = logfile;
  p.replace_extension(kSymbolSidecarExt);
  return p;
}

/// Loads and verifies a `.u1s` sidecar, copying its strings into
/// `labels` (local id i + 1 is labels[i]; 0 is the empty string). Adds
/// the sidecar's bytes to `stats`; false on any integrity problem. A
/// sidecar that checksums but fails partway leaves the strings before
/// the failure in `labels`.
bool load_sidecar(const std::filesystem::path& path,
                  std::vector<std::string>& labels, ReadStats& stats) {
  MappedFile map;
  if (!map.open(path)) return false;
  stats.bytes_read += map.size();
  if (map.size() < kSidecarHeaderBytes ||
      std::memcmp(map.data(), kSymMagic.data(), kSymMagic.size()) != 0)
    return false;
  if (get_le32(map.data() + 8) != kFormatVersion) return false;
  const std::uint32_t count = get_le32(map.data() + 12);
  const std::uint64_t payload_bytes = get_le64(map.data() + 16);
  if (map.size() - kSidecarHeaderBytes != payload_bytes) return false;
  const std::uint8_t* payload = map.data() + kSidecarHeaderBytes;
  if (xxh64(payload, static_cast<std::size_t>(payload_bytes)) !=
      get_le64(map.data() + 24))
    return false;
  labels.clear();
  labels.reserve(std::min<std::uint64_t>(count, payload_bytes / 2));
  Cursor c{payload, payload + payload_bytes};
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t len = c.varint();
    const std::uint8_t* bytes = c.take(static_cast<std::size_t>(len));
    if (!c.ok || len == 0) return false;  // the empty string is id 0, always
    labels.emplace_back(reinterpret_cast<const char*>(bytes),
                        static_cast<std::size_t>(len));
  }
  return c.p == c.end;
}

/// Appends one stripe's records to `out`, labels as file-local ids below
/// `label_count`; on any error `out` is left as it was.
template <typename Records>
bool decode_stripe(const std::uint8_t* begin, const std::uint8_t* end,
                   std::uint32_t count, const std::uint32_t* type_counts,
                   std::uint8_t machine, std::uint16_t process,
                   std::size_t label_count, Records& out) {
  // Every record costs at least its type byte: a count the body cannot
  // hold fails here, before it sizes `out`.
  if (count > static_cast<std::size_t>(end - begin)) return false;
  const std::size_t base = out.size();
  out.resize(base + count);
  Cursor c{begin, end};
  const std::uint8_t* type_seq = c.take(count);
  if (type_seq == nullptr) {
    out.resize(base);
    return false;
  }
  std::array<std::vector<std::uint32_t>, kRecordTypeCount> slots;
  for (std::size_t t = 0; t < kRecordTypeCount; ++t)
    slots[t].reserve(type_counts[t]);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (type_seq[i] >= kRecordTypeCount) {
      out.resize(base);
      return false;
    }
    slots[type_seq[i]].push_back(i);
  }
  for (std::size_t t = 0; t < kRecordTypeCount; ++t) {
    if (slots[t].size() != type_counts[t]) {
      out.resize(base);
      return false;
    }
  }
  for (std::size_t t = 0; t < kRecordTypeCount; ++t) {
    if (slots[t].empty()) continue;
    if (!decode_segment(c, static_cast<RecordType>(t), slots[t],
                        out.data() + base, label_count, machine, process) ||
        !c.ok) {
      out.resize(base);
      return false;
    }
  }
  if (c.p != c.end) {  // canonical encoding leaves no slack
    out.resize(base);
    return false;
  }
  return true;
}

/// Rewrites the file-local label ids of `recs` to global ids.
void remap_labels(std::span<TraceRecord> recs,
                  const std::vector<Symbol>& local_to_global) noexcept {
  for (TraceRecord& r : recs) r.label = local_to_global[r.label];
}

}  // namespace

// --- format selector --------------------------------------------------------

std::string_view to_string(TraceFormat f) noexcept {
  return f == TraceFormat::kBinary ? "bin" : "csv";
}

std::optional<TraceFormat> trace_format_from_string(
    std::string_view s) noexcept {
  if (s == "csv") return TraceFormat::kCsv;
  if (s == "bin" || s == "binary") return TraceFormat::kBinary;
  return std::nullopt;
}

TraceFormat trace_format_from_env() {
  const char* v = std::getenv("U1SIM_TRACE_FORMAT");
  if (v == nullptr || *v == '\0') return TraceFormat::kCsv;
  if (const auto f = trace_format_from_string(v)) return *f;
  throw std::runtime_error(std::string("U1SIM_TRACE_FORMAT: unknown format '") +
                           v + "' (want csv|bin)");
}

bool is_binary_logfile_magic(const unsigned char* p, std::size_t n) noexcept {
  return n >= kLogMagic.size() &&
         std::memcmp(p, kLogMagic.data(), kLogMagic.size()) == 0;
}

// --- writer -----------------------------------------------------------------

namespace {

/// Encodes `recs` as one stripe (header, then payload) into `out`,
/// assigning dictionary ids to labels on first use.
void encode_stripe(std::span<const TraceRecord> recs, SymbolDict& dict,
                   std::vector<std::uint8_t>& out) {
  const auto count = static_cast<std::uint32_t>(recs.size());
  std::array<std::vector<std::uint32_t>, kRecordTypeCount> idx;
  for (std::uint32_t i = 0; i < count; ++i)
    idx[static_cast<std::size_t>(recs[i].type)].push_back(i);

  out.assign(kStripeHeaderBytes, 0);  // filled in below
  for (std::uint32_t i = 0; i < count; ++i)
    out.push_back(static_cast<std::uint8_t>(recs[i].type));
  for (std::size_t t = 0; t < kRecordTypeCount; ++t)
    if (!idx[t].empty()) encode_segment(recs, idx[t], dict, out);

  std::uint8_t* header = out.data();
  put_le32(header, static_cast<std::uint32_t>(out.size() - kStripeHeaderBytes));
  put_le32(header + 4, count);
  for (std::size_t t = 0; t < kRecordTypeCount; ++t)
    put_le32(header + 8 + 4 * t, static_cast<std::uint32_t>(idx[t].size()));
}

/// One `.u1b` logfile and its `.u1s` sidecar. The full stripes are on
/// disk as soon as they fill; the last, open stripe stays in `rows_` as
/// packed rows (trace/packed.hpp) until finish() writes it behind them.
/// A stripe is unpacked only to be encoded, into the writer's scratch
/// stripe of the thread that encodes it.
class BinaryLogfile final : public LogfileSink::File {
 public:
  BinaryLogfile(const TraceRecord& first, const std::filesystem::path& stem,
                std::size_t stripe_records,
                BinaryLogfileWriter::Scratch& scratch)
      : machine_(static_cast<std::uint8_t>(first.machine.value)),
        process_(first.process.value),
        stripe_records_(stripe_records),
        scratch_(scratch) {
    path_ = stem;
    path_ += kBinaryLogfileExt;
    // A stripe's worst case, as address space: only the pages its rows
    // reach become resident.
    rows_.reserve(stripe_records_ * kMaxPackedRow);
  }

  std::size_t add(const TraceRecord& record) override {
    rows_.push_back(record);
    if (rows_.rows() < stripe_records_) return rows_.bytes();
    std::vector<std::uint8_t> stripe;
    encode_stripe(unpack(scratch_.append), dict_, stripe);
    write(stripe, nullptr);
    checksum_.update(stripe.data(), stripe.size());
    payload_bytes_ += stripe.size();
    record_count_ += rows_.rows();
    stripe_count_ += 1;
    // The next stripe may never grow this large: its pages come back
    // as its rows reach them.
    rows_.release_prefix(rows_.bytes());
    rows_.clear();
    return 0;
  }

  std::uint64_t finish() override {
    // The last stripe goes behind the full ones, but the state below
    // keeps describing the full stripes only, so reopen() can cut it.
    std::vector<std::uint8_t> stripe;
    tail_dict_ = dict_.size();
    if (rows_.rows() > 0)
      encode_stripe(unpack(scratch_.finish), dict_, stripe);
    Xxh64 digest = checksum_;
    digest.update(stripe.data(), stripe.size());

    std::array<std::uint8_t, kFileHeaderBytes> header{};
    std::memcpy(header.data(), kLogMagic.data(), kLogMagic.size());
    put_le32(header.data() + 8, kFormatVersion);
    put_le32(header.data() + 12, kFileHeaderBytes);
    header[16] = machine_;
    put_le16(header.data() + 18, process_);
    put_le32(header.data() + 20, stripe_count_ + (stripe.empty() ? 0 : 1));
    put_le64(header.data() + 24, record_count_ + rows_.rows());
    put_le64(header.data() + 32, payload_bytes_ + stripe.size());
    put_le64(header.data() + 40, digest.digest());
    write(stripe, header.data());
    tail_bytes_ = stripe.size();
    rows_.free();
    return kFileHeaderBytes + payload_bytes_ + tail_bytes_ + write_sidecar();
  }

  void reopen() override {
    if (tail_bytes_ == 0) return;  // a new record starts a new stripe
    const std::uint64_t offset = kFileHeaderBytes + payload_bytes_;
    std::vector<std::uint8_t> stripe(tail_bytes_);
    std::ifstream in(path_, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char*>(stripe.data()),
            static_cast<std::streamsize>(stripe.size()));
    std::uint32_t type_counts[kRecordTypeCount];
    for (std::size_t t = 0; t < kRecordTypeCount; ++t)
      type_counts[t] = get_le32(stripe.data() + 8 + 4 * t);
    std::vector<Symbol> local_to_global{kEmptySymbol};
    local_to_global.insert(local_to_global.end(), dict_.globals().begin(),
                           dict_.globals().end());
    PageVector<TraceRecord>& records = scratch_.append;
    records.clear();
    if (!in ||
        !decode_stripe(stripe.data() + kStripeHeaderBytes,
                       stripe.data() + stripe.size(),
                       get_le32(stripe.data() + 4), type_counts, machine_,
                       process_, local_to_global.size(), records))
      throw std::runtime_error("BinaryLogfileWriter: cannot reopen " +
                               path_.string());
    remap_labels(records, local_to_global);
    rows_.reserve(stripe_records_ * kMaxPackedRow);
    for (const TraceRecord& r : records) rows_.push_back(r);
    dict_.truncate(tail_dict_);
    std::filesystem::resize_file(path_, offset);
    tail_bytes_ = 0;
  }

 private:
  /// The open stripe's records, unpacked into `records`.
  std::span<const TraceRecord> unpack(PageVector<TraceRecord>& records) const {
    records.resize(rows_.rows());
    PackedReader reader{rows_.data()};
    for (TraceRecord& r : records) reader.next(r);
    return records;
  }

  /// Writes `stripe` behind the full stripes and `header` (if given) over
  /// the file's header, in one open. The first write creates the file,
  /// behind a zero header until the real one is patched in.
  void write(const std::vector<std::uint8_t>& stripe,
             const std::uint8_t* header) {
    std::fstream out(path_, std::ios::binary | std::ios::out |
                                (created_ ? std::ios::in : std::ios::trunc));
    if (!out.is_open())
      throw std::runtime_error("BinaryLogfileWriter: cannot open " +
                               path_.string());
    if (header != nullptr || !created_) {
      const std::array<std::uint8_t, kFileHeaderBytes> zeros{};
      out.write(reinterpret_cast<const char*>(header ? header : zeros.data()),
                kFileHeaderBytes);
    }
    out.seekp(static_cast<std::streamoff>(kFileHeaderBytes + payload_bytes_));
    out.write(reinterpret_cast<const char*>(stripe.data()),
              static_cast<std::streamsize>(stripe.size()));
    out.close();
    if (!out)
      throw std::runtime_error("BinaryLogfileWriter: write failed for " +
                               path_.string());
    created_ = true;
  }

  /// Writes the symbol sidecar — the strings this file references, in
  /// local-id order — and returns its size.
  std::uint64_t write_sidecar() const {
    std::vector<std::uint8_t> payload;
    for (const Symbol global : dict_.globals()) {
      const std::string_view text = global_symbols().resolve(global);
      put_varint(payload, text.size());
      payload.insert(payload.end(), text.begin(), text.end());
    }
    std::array<std::uint8_t, kSidecarHeaderBytes> header{};
    std::memcpy(header.data(), kSymMagic.data(), kSymMagic.size());
    put_le32(header.data() + 8, kFormatVersion);
    put_le32(header.data() + 12, static_cast<std::uint32_t>(dict_.size()));
    put_le64(header.data() + 16, payload.size());
    put_le64(header.data() + 24, xxh64(payload.data(), payload.size()));
    const std::filesystem::path path = sidecar_path(path_);
    std::ofstream sidecar(path, std::ios::binary | std::ios::trunc);
    if (!sidecar.is_open())
      throw std::runtime_error("BinaryLogfileWriter: cannot open " +
                               path.string());
    sidecar.write(reinterpret_cast<const char*>(header.data()),
                  static_cast<std::streamsize>(header.size()));
    sidecar.write(reinterpret_cast<const char*>(payload.data()),
                  static_cast<std::streamsize>(payload.size()));
    sidecar.flush();
    if (!sidecar)
      throw std::runtime_error("BinaryLogfileWriter: write failed for " +
                               path.string());
    return header.size() + payload.size();
  }

  std::filesystem::path path_;
  bool created_ = false;  // the file exists on disk
  std::uint8_t machine_;
  std::uint16_t process_;
  std::size_t stripe_records_;
  // The full stripes on disk.
  std::uint64_t record_count_ = 0;
  std::uint32_t stripe_count_ = 0;
  std::uint64_t payload_bytes_ = 0;
  Xxh64 checksum_;  // over their payload bytes
  SymbolDict dict_;
  PackedRows rows_;  // the open stripe, arrival order
  BinaryLogfileWriter::Scratch& scratch_;
  // What the last finish() wrote behind the full stripes: its bytes, and
  // the dictionary size before it assigned ids.
  std::size_t tail_bytes_ = 0;
  std::size_t tail_dict_ = 0;
};

}  // namespace

BinaryLogfileWriter::BinaryLogfileWriter(std::filesystem::path directory)
    : LogfileSink(std::move(directory)) {}

BinaryLogfileWriter::~BinaryLogfileWriter() {
  try {
    close();
  } catch (...) {
    // As ~LogfileSink: an explicit close() reports errors.
  }
}

std::unique_ptr<LogfileSink::File> BinaryLogfileWriter::start(
    const TraceRecord& first, const std::filesystem::path& stem) {
  return std::make_unique<BinaryLogfile>(first, stem, stripe_records_,
                                         scratch_);
}

// --- reader -----------------------------------------------------------------

namespace {

/// The checks a read makes before it decodes any stripe: header, payload
/// digest, then sidecar. On success `labels` holds the sidecar's strings;
/// on failure `stats` holds the file's verdict and nothing may be decoded.
bool open_binary_logfile(const std::filesystem::path& file,
                         std::span<const std::uint8_t> bytes,
                         ReadStats& stats, std::vector<std::string>& labels) {
  // A file too short for a header, or with the wrong magic/version,
  // carries no trustworthy record count: it is one malformed unit.
  if (bytes.size() < kFileHeaderBytes ||
      !is_binary_logfile_magic(bytes.data(), bytes.size()) ||
      get_le32(bytes.data() + 8) != kFormatVersion ||
      get_le32(bytes.data() + 12) != kFileHeaderBytes) {
    stats.rows = 1;
    stats.malformed = 1;
    return false;
  }
  const std::uint64_t record_count = get_le64(bytes.data() + 24);
  const std::uint64_t payload_declared = get_le64(bytes.data() + 32);
  const std::uint8_t* payload = bytes.data() + kFileHeaderBytes;
  const std::uint64_t payload_actual = bytes.size() - kFileHeaderBytes;
  stats.rows = record_count;

  // Truncated tails skip checksum verification (it cannot match) and
  // decode whatever stripes survive intact; complete files must match
  // their digest or every record is rejected.
  const bool truncated = payload_actual < payload_declared;
  if (!truncated) {
    if (xxh64(payload, static_cast<std::size_t>(payload_declared)) !=
        get_le64(bytes.data() + 40)) {
      stats.checksum_failures = 1;
      stats.malformed = std::max<std::uint64_t>(record_count, 1);
      stats.rows = stats.malformed;
      return false;
    }
  }

  if (!load_sidecar(sidecar_path(file), labels, stats)) {
    stats.malformed = std::max<std::uint64_t>(record_count, 1);
    stats.rows = stats.malformed;
    return false;
  }
  return true;
}

}  // namespace

ReadStats decode_binary_logfile(const std::filesystem::path& file,
                                std::span<const std::uint8_t> bytes,
                                std::vector<std::string>& labels,
                                PageVector<TraceRecord>& scratch,
                                const StripeFn& on_stripe) {
  ReadStats stats;
  stats.files = 1;
  stats.files_binary = 1;
  stats.bytes_read = bytes.size();
  labels.clear();
  if (!open_binary_logfile(file, bytes, stats, labels)) return stats;
  const std::uint8_t machine = bytes[16];
  const std::uint16_t process = get_le16(bytes.data() + 18);
  const std::uint32_t stripe_count = get_le32(bytes.data() + 20);
  const std::uint64_t record_count = get_le64(bytes.data() + 24);
  const std::uint64_t payload_declared = get_le64(bytes.data() + 32);
  const std::uint8_t* payload = bytes.data() + kFileHeaderBytes;
  const std::uint64_t payload_actual = bytes.size() - kFileHeaderBytes;

  const std::uint8_t* p = payload;
  const std::uint8_t* end =
      payload +
      static_cast<std::size_t>(std::min(payload_actual, payload_declared));
  std::uint64_t decoded = 0;
  for (std::uint32_t s = 0; s < stripe_count; ++s) {
    if (static_cast<std::size_t>(end - p) < kStripeHeaderBytes)
      break;  // truncated tail: remaining stripes count as malformed
    const std::uint32_t stripe_bytes = get_le32(p);
    const std::uint32_t count = get_le32(p + 4);
    std::uint32_t type_counts[kRecordTypeCount];
    std::uint64_t type_total = 0;
    for (std::size_t t = 0; t < kRecordTypeCount; ++t) {
      type_counts[t] = get_le32(p + 8 + 4 * t);
      type_total += type_counts[t];
    }
    if (type_total != count) break;  // header inconsistent: stop trusting
    if (static_cast<std::size_t>(end - p) - kStripeHeaderBytes <
        stripe_bytes)
      break;  // stripe body truncated
    const std::uint8_t* body = p + kStripeHeaderBytes;
    scratch.clear();
    if (decode_stripe(body, body + stripe_bytes, count, type_counts, machine,
                      process, labels.size() + 1, scratch)) {
      decoded += count;
      on_stripe(scratch);
    }
    p += kStripeHeaderBytes + stripe_bytes;
  }
  scratch.clear();

  stats.parsed = decoded;
  stats.rows = std::max<std::uint64_t>(record_count, decoded);
  stats.malformed = stats.rows - decoded;
  return stats;
}

ReadStats decode_binary_logfile(const std::filesystem::path& file,
                                std::vector<TraceRecord>& out,
                                std::vector<std::string>& labels) {
  MappedFile map;
  if (!map.open(file))
    throw std::runtime_error("read_binary_logfile: cannot open " +
                             file.string());
  PageVector<TraceRecord> scratch;
  return decode_binary_logfile(file, map.bytes(), labels, scratch,
                               [&out](std::span<const TraceRecord> rows) {
                                 out.insert(out.end(), rows.begin(),
                                            rows.end());
                               });
}

std::vector<Symbol> intern_labels(const std::vector<std::string>& labels) {
  std::vector<Symbol> local_to_global;
  local_to_global.reserve(labels.size() + 1);
  local_to_global.push_back(kEmptySymbol);
  for (const std::string& label : labels)
    local_to_global.push_back(global_symbols().intern(label));
  return local_to_global;
}

ReadStats read_binary_logfile(const std::filesystem::path& file,
                              std::vector<TraceRecord>& out) {
  const std::size_t base = out.size();
  std::vector<std::string> labels;
  const ReadStats stats = decode_binary_logfile(file, out, labels);
  remap_labels(std::span(out).subspan(base), intern_labels(labels));
  return stats;
}

std::unique_ptr<LogfileSink> make_logfile_writer(
    std::filesystem::path directory, TraceFormat format) {
  if (format == TraceFormat::kBinary)
    return std::make_unique<BinaryLogfileWriter>(std::move(directory));
  return std::make_unique<LogfileWriter>(std::move(directory));
}

}  // namespace u1
