#include "trace/packed.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "proto/wire.hpp"

namespace u1 {
namespace {

enum Field : unsigned {
  kMachine,
  kProcess,
  kUser,
  kSession,
  kLabel,
  kSize,
  kTransferred,
  kDuration,
  kServiceTime,
  kShard,
  kApiOp,
  kRpcOp,
  kSessionEvent,
  kNode,
  kVolume,
  kParent,
  kContent,
};

constexpr std::uint32_t bit(Field f) noexcept { return 1u << f; }

std::uint8_t* put(std::uint8_t* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint64_t get(const std::uint8_t*& p) noexcept {
  if (*p < 0x80) return *p++;
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
}

/// True when the N bytes are all zero (a nil id).
template <std::size_t N>
bool all_zero(const std::array<std::uint8_t, N>& b) noexcept {
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (; i + 8 <= N; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, b.data() + i, 8);
    acc |= word;
  }
  for (; i < N; ++i) acc |= b[i];
  return acc == 0;
}

template <std::size_t N>
std::uint8_t* put_bytes(std::uint8_t* p,
                        const std::array<std::uint8_t, N>& b) noexcept {
  std::memcpy(p, b.data(), N);
  return p + N;
}

template <std::size_t N>
void get_bytes(const std::uint8_t*& p,
               std::array<std::uint8_t, N>& b) noexcept {
  std::memcpy(b.data(), p, N);
  p += N;
}

}  // namespace

void PackedRows::reserve(std::size_t bytes) {
  bytes = std::max(bytes, bytes_ + kMaxPackedRow);
  if (bytes <= capacity_) return;
  std::uint8_t* grown = PageAllocator<std::uint8_t>().allocate(bytes);
  if (bytes_ > 0) std::memcpy(grown, data_, bytes_);
  deallocate();
  data_ = grown;
  capacity_ = bytes;
  released_ = 0;
}

std::uint8_t* pack_record(const TraceRecord& r, SimTime prev_t,
                          std::uint8_t* out) noexcept {
  std::uint32_t mask = 0;
  if (r.machine.value != 0) mask |= bit(kMachine);
  if (r.process.value != 0) mask |= bit(kProcess);
  if (r.user.value != 0) mask |= bit(kUser);
  if (r.session.value != 0) mask |= bit(kSession);
  if (r.label != kEmptySymbol) mask |= bit(kLabel);
  if (r.size_bytes != 0) mask |= bit(kSize);
  if (r.transferred_bytes != 0) mask |= bit(kTransferred);
  if (r.duration != 0) mask |= bit(kDuration);
  if (r.service_time != 0) mask |= bit(kServiceTime);
  if (r.shard.value != 0) mask |= bit(kShard);
  if (r.api_op != ApiOp{}) mask |= bit(kApiOp);
  if (r.rpc_op != RpcOp{}) mask |= bit(kRpcOp);
  if (r.session_event != SessionEvent{}) mask |= bit(kSessionEvent);
  if (!all_zero(r.node.bytes)) mask |= bit(kNode);
  if (!all_zero(r.volume.bytes)) mask |= bit(kVolume);
  if (!all_zero(r.parent.bytes)) mask |= bit(kParent);
  if (!all_zero(r.content.bytes)) mask |= bit(kContent);

  std::uint8_t* p = out;
  *p++ = static_cast<std::uint8_t>(
      static_cast<unsigned>(r.type) | (r.is_update ? 1u << 3 : 0u) |
      (r.is_dir ? 1u << 4 : 0u) | (r.deduplicated ? 1u << 5 : 0u) |
      (r.failed ? 1u << 6 : 0u));
  p = put(p, mask);
  // Unsigned subtraction wraps instead of overflowing; the reader's
  // unsigned addition wraps back.
  p = put(p, wire::zigzag(static_cast<std::int64_t>(
                 static_cast<std::uint64_t>(r.t) -
                 static_cast<std::uint64_t>(prev_t))));
  if (mask & bit(kMachine)) p = put(p, r.machine.value);
  if (mask & bit(kProcess)) p = put(p, r.process.value);
  if (mask & bit(kUser)) p = put(p, r.user.value);
  if (mask & bit(kSession)) p = put(p, r.session.value);
  if (mask & bit(kLabel)) p = put(p, r.label);
  if (mask & bit(kSize)) p = put(p, r.size_bytes);
  if (mask & bit(kTransferred)) p = put(p, r.transferred_bytes);
  if (mask & bit(kDuration)) p = put(p, wire::zigzag(r.duration));
  if (mask & bit(kServiceTime)) p = put(p, r.service_time);
  if (mask & bit(kShard)) p = put(p, r.shard.value);
  if (mask & bit(kApiOp)) *p++ = static_cast<std::uint8_t>(r.api_op);
  if (mask & bit(kRpcOp)) *p++ = static_cast<std::uint8_t>(r.rpc_op);
  if (mask & bit(kSessionEvent))
    *p++ = static_cast<std::uint8_t>(r.session_event);
  if (mask & bit(kNode)) p = put_bytes(p, r.node.bytes);
  if (mask & bit(kVolume)) p = put_bytes(p, r.volume.bytes);
  if (mask & bit(kParent)) p = put_bytes(p, r.parent.bytes);
  if (mask & bit(kContent)) p = put_bytes(p, r.content.bytes);
  return p;
}

const std::uint8_t* unpack_record(const std::uint8_t* in, SimTime prev_t,
                                  TraceRecord& r) noexcept {
  r = TraceRecord{};
  const std::uint8_t* p = in;
  const unsigned head = *p++;
  r.type = static_cast<RecordType>(head & 7u);
  r.is_update = (head >> 3) & 1u;
  r.is_dir = (head >> 4) & 1u;
  r.deduplicated = (head >> 5) & 1u;
  r.failed = (head >> 6) & 1u;
  const auto mask = static_cast<std::uint32_t>(get(p));
  r.t = static_cast<SimTime>(
      static_cast<std::uint64_t>(prev_t) +
      static_cast<std::uint64_t>(wire::unzigzag(get(p))));
  if (mask & bit(kMachine)) r.machine = MachineId{get(p)};
  if (mask & bit(kProcess)) r.process = ProcessId{get(p)};
  if (mask & bit(kUser)) r.user = UserId{get(p)};
  if (mask & bit(kSession)) r.session = SessionId{get(p)};
  if (mask & bit(kLabel)) r.label = static_cast<Symbol>(get(p));
  if (mask & bit(kSize)) r.size_bytes = get(p);
  if (mask & bit(kTransferred)) r.transferred_bytes = get(p);
  if (mask & bit(kDuration)) r.duration = wire::unzigzag(get(p));
  if (mask & bit(kServiceTime))
    r.service_time = static_cast<std::uint32_t>(get(p));
  if (mask & bit(kShard)) r.shard = ShardId{get(p)};
  if (mask & bit(kApiOp)) r.api_op = static_cast<ApiOp>(*p++);
  if (mask & bit(kRpcOp)) r.rpc_op = static_cast<RpcOp>(*p++);
  if (mask & bit(kSessionEvent))
    r.session_event = static_cast<SessionEvent>(*p++);
  if (mask & bit(kNode)) get_bytes(p, r.node.bytes);
  if (mask & bit(kVolume)) get_bytes(p, r.volume.bytes);
  if (mask & bit(kParent)) get_bytes(p, r.parent.bytes);
  if (mask & bit(kContent)) get_bytes(p, r.content.bytes);
  return p;
}

PackedRows PackedRows::fitted() const {
  PackedRows out;
  if (bytes_ == 0) return out;
  out.data_ = PageAllocator<std::uint8_t>().allocate(bytes_);
  std::memcpy(out.data_, data_, bytes_);
  out.capacity_ = out.bytes_ = bytes_;
  out.rows_ = rows_;
  out.last_t_ = last_t_;
  return out;
}

}  // namespace u1
