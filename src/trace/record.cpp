#include "trace/record.hpp"

#include <array>
#include <charconv>
#include <cstring>

#include "util/strings.hpp"

namespace u1 {
namespace {

constexpr std::array<std::string_view, 8> kMachineNames = {
    "whitecurrant", "blackcurrant", "redcurrant", "gooseberry",
    "elderberry",   "cloudberry",   "mulberry",   "boysenberry",
};

const std::vector<std::string> kCsvHeader = {
    "t_us",     "type",    "machine", "process",  "user",
    "session",  "event",   "op",      "node",     "parent",
    "volume",
    "size",     "wire",    "hash",    "ext",      "update",
    "dir",      "dedup",   "failed",  "dur_us",   "rpc",
    "shard",    "svc_us",  "fault",
};

std::string u64s(std::uint64_t v) { return std::to_string(v); }

std::string uuid_or_empty(const Uuid& u) {
  return u.is_nil() ? std::string{} : u.str();
}

std::string hash_or_empty(const ContentId& c) {
  return c == ContentId{} ? std::string{} : c.hex();
}

constexpr char kHexDigits[] = "0123456789abcdef";

// --- allocation-free appenders for append_csv_row ---------------------------

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_hex_bytes(std::string& out, const std::uint8_t* bytes,
                      std::size_t n) {
  char buf[40];
  for (std::size_t i = 0; i < n; ++i) {
    buf[2 * i] = kHexDigits[bytes[i] >> 4];
    buf[2 * i + 1] = kHexDigits[bytes[i] & 0xf];
  }
  out.append(buf, 2 * n);
}

/// Canonical 8-4-4-4-12 form, byte-identical to Uuid::str().
void append_uuid(std::string& out, const Uuid& u) {
  append_hex_bytes(out, u.bytes.data(), 4);
  out.push_back('-');
  append_hex_bytes(out, u.bytes.data() + 4, 2);
  out.push_back('-');
  append_hex_bytes(out, u.bytes.data() + 6, 2);
  out.push_back('-');
  append_hex_bytes(out, u.bytes.data() + 8, 2);
  out.push_back('-');
  append_hex_bytes(out, u.bytes.data() + 10, 6);
}

}  // namespace

std::string_view to_string(RecordType t) noexcept {
  switch (t) {
    case RecordType::kSession: return "session";
    case RecordType::kStorage: return "storage";
    case RecordType::kStorageDone: return "storage_done";
    case RecordType::kRpc: return "rpc";
    case RecordType::kFault: return "fault";
  }
  return "unknown";
}

std::optional<RecordType> record_type_from_string(
    std::string_view s) noexcept {
  if (s == "session") return RecordType::kSession;
  if (s == "storage") return RecordType::kStorage;
  if (s == "storage_done") return RecordType::kStorageDone;
  if (s == "rpc") return RecordType::kRpc;
  if (s == "fault") return RecordType::kFault;
  return std::nullopt;
}

std::string_view to_string(SessionEvent e) noexcept {
  switch (e) {
    case SessionEvent::kNone: return "";
    case SessionEvent::kAuthRequest: return "auth_request";
    case SessionEvent::kAuthOk: return "auth_ok";
    case SessionEvent::kAuthFail: return "auth_fail";
    case SessionEvent::kOpen: return "open";
    case SessionEvent::kClose: return "close";
    case SessionEvent::kDropped: return "dropped";
    case SessionEvent::kTryAgain: return "try_again";
  }
  return "";
}

std::optional<SessionEvent> session_event_from_string(
    std::string_view s) noexcept {
  if (s.empty()) return SessionEvent::kNone;
  if (s == "auth_request") return SessionEvent::kAuthRequest;
  if (s == "auth_ok") return SessionEvent::kAuthOk;
  if (s == "auth_fail") return SessionEvent::kAuthFail;
  if (s == "open") return SessionEvent::kOpen;
  if (s == "close") return SessionEvent::kClose;
  if (s == "dropped") return SessionEvent::kDropped;
  if (s == "try_again") return SessionEvent::kTryAgain;
  return std::nullopt;
}

std::string_view machine_name(MachineId id) noexcept {
  if (id.value == 0) return "unassigned";
  return kMachineNames[(id.value - 1) % kMachineNames.size()];
}

std::string TraceRecord::logname() const {
  std::string out = "production-";
  out += machine_name(machine);
  out += '-';
  out += std::to_string(process.value);
  out += '-';
  out += trace_date(t);
  return out;
}

const std::vector<std::string>& TraceRecord::csv_header() {
  return kCsvHeader;
}

std::vector<std::string> TraceRecord::to_csv() const {
  std::vector<std::string> f;
  f.reserve(kCsvHeader.size());
  f.push_back(u64s(static_cast<std::uint64_t>(t)));
  f.emplace_back(to_string(type));
  f.push_back(u64s(machine.value));
  f.push_back(u64s(process.value));
  f.push_back(u64s(user.value));
  f.push_back(u64s(session.value));
  f.emplace_back(to_string(session_event));
  if (type == RecordType::kStorage || type == RecordType::kStorageDone) {
    f.emplace_back(to_string(api_op));
  } else {
    f.emplace_back();
  }
  f.push_back(uuid_or_empty(node));
  f.push_back(uuid_or_empty(parent));
  f.push_back(uuid_or_empty(volume));
  f.push_back(size_bytes > 0 ? u64s(size_bytes) : std::string{});
  f.push_back(transferred_bytes > 0 ? u64s(transferred_bytes)
                                    : std::string{});
  f.push_back(hash_or_empty(content));
  f.emplace_back(extension());
  f.emplace_back(is_update ? "1" : "");
  f.emplace_back(is_dir ? "1" : "");
  f.emplace_back(deduplicated ? "1" : "");
  f.emplace_back(failed ? "1" : "");
  f.push_back(duration > 0 ? u64s(static_cast<std::uint64_t>(duration))
                           : std::string{});
  if (type == RecordType::kRpc) {
    f.emplace_back(to_string(rpc_op));
  } else {
    f.emplace_back();
  }
  f.push_back(shard.value > 0 ? u64s(shard.value) : std::string{});
  f.push_back(service_time > 0 ? u64s(service_time) : std::string{});
  f.emplace_back(fault());
  return f;
}

void TraceRecord::append_csv_row(std::string& out) const {
  // Field order and formatting mirror to_csv() exactly; every field is
  // followed by ',' and the row by '\n' (the historical hashing format —
  // note the trailing comma before the newline).
  append_u64(out, static_cast<std::uint64_t>(t));
  out.push_back(',');
  out.append(to_string(type));
  out.push_back(',');
  append_u64(out, machine.value);
  out.push_back(',');
  append_u64(out, process.value);
  out.push_back(',');
  append_u64(out, user.value);
  out.push_back(',');
  append_u64(out, session.value);
  out.push_back(',');
  out.append(to_string(session_event));
  out.push_back(',');
  if (type == RecordType::kStorage || type == RecordType::kStorageDone)
    out.append(to_string(api_op));
  out.push_back(',');
  if (!node.is_nil()) append_uuid(out, node);
  out.push_back(',');
  if (!parent.is_nil()) append_uuid(out, parent);
  out.push_back(',');
  if (!volume.is_nil()) append_uuid(out, volume);
  out.push_back(',');
  if (size_bytes > 0) append_u64(out, size_bytes);
  out.push_back(',');
  if (transferred_bytes > 0) append_u64(out, transferred_bytes);
  out.push_back(',');
  if (!(content == ContentId{}))
    append_hex_bytes(out, content.bytes.data(), content.bytes.size());
  out.push_back(',');
  out.append(extension());
  out.push_back(',');
  if (is_update) out.push_back('1');
  out.push_back(',');
  if (is_dir) out.push_back('1');
  out.push_back(',');
  if (deduplicated) out.push_back('1');
  out.push_back(',');
  if (failed) out.push_back('1');
  out.push_back(',');
  if (duration > 0) append_u64(out, static_cast<std::uint64_t>(duration));
  out.push_back(',');
  if (type == RecordType::kRpc) out.append(to_string(rpc_op));
  out.push_back(',');
  if (shard.value > 0) append_u64(out, shard.value);
  out.push_back(',');
  if (service_time > 0) append_u64(out, service_time);
  out.push_back(',');
  out.append(fault());
  out.push_back(',');
  out.push_back('\n');
}

std::optional<TraceRecord> TraceRecord::from_csv(
    const std::vector<std::string>& fields) {
  return from_csv(fields, [](std::string_view label) {
    return global_symbols().intern(label);
  });
}

std::optional<TraceRecord> TraceRecord::from_csv(
    const std::vector<std::string>& f,
    const std::function<Symbol(std::string_view)>& intern) {
  if (f.size() != kCsvHeader.size()) return std::nullopt;
  TraceRecord r;
  // The writer prints t as its unsigned bit pattern, so a pre-window
  // (t < 0) record reads back as 2^63 or more: take it as the two's
  // complement it is.
  const auto t_us = parse_u64(f[0]);
  if (!t_us) return std::nullopt;
  r.t = static_cast<SimTime>(*t_us);
  const auto type = record_type_from_string(f[1]);
  if (!type) return std::nullopt;
  r.type = *type;
  const auto machine = parse_i64(f[2]);
  const auto process = parse_i64(f[3]);
  const auto user = parse_i64(f[4]);
  const auto session = parse_i64(f[5]);
  if (!machine || !process || !user || !session) return std::nullopt;
  // Ids overflowing their packed in-record width are malformed, not
  // silently truncated.
  const auto fits = [](std::int64_t v, std::uint64_t max) {
    return v >= 0 && static_cast<std::uint64_t>(v) <= max;
  };
  if (!fits(*machine, 0xff) || !fits(*process, 0xffff) ||
      !fits(*user, 0xffffffff) || !fits(*session, 0xffffffff))
    return std::nullopt;
  r.machine = MachineId{static_cast<std::uint64_t>(*machine)};
  r.process = ProcessId{static_cast<std::uint64_t>(*process)};
  r.user = UserId{static_cast<std::uint64_t>(*user)};
  r.session = SessionId{static_cast<std::uint64_t>(*session)};
  const auto event = session_event_from_string(f[6]);
  if (!event) return std::nullopt;
  r.session_event = *event;
  if (r.type == RecordType::kStorage || r.type == RecordType::kStorageDone) {
    const auto op = api_op_from_string(f[7]);
    if (!op) return std::nullopt;
    r.api_op = *op;
  }
  try {
    if (!f[8].empty()) r.node = Uuid::parse(f[8]);
    if (!f[9].empty()) r.parent = Uuid::parse(f[9]);
    if (!f[10].empty()) r.volume = Uuid::parse(f[10]);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  if (!f[11].empty()) {
    const auto v = parse_i64(f[11]);
    if (!v) return std::nullopt;
    r.size_bytes = static_cast<std::uint64_t>(*v);
  }
  if (!f[12].empty()) {
    const auto v = parse_i64(f[12]);
    if (!v) return std::nullopt;
    r.transferred_bytes = static_cast<std::uint64_t>(*v);
  }
  if (!f[13].empty()) {
    if (f[13].size() != 40) return std::nullopt;
    for (std::size_t i = 0; i < 20; ++i) {
      auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      const int hi = nibble(f[13][2 * i]);
      const int lo = nibble(f[13][2 * i + 1]);
      if (hi < 0 || lo < 0) return std::nullopt;
      r.content.bytes[i] = static_cast<std::uint8_t>((hi << 4) | lo);
    }
  }
  if (!f[19].empty()) {
    const auto v = parse_i64(f[19]);
    if (!v) return std::nullopt;
    r.duration = *v;
  }
  if (r.type == RecordType::kRpc) {
    const auto op = rpc_op_from_string(f[20]);
    if (!op) return std::nullopt;
    r.rpc_op = *op;
  }
  if (!f[21].empty()) {
    const auto v = parse_i64(f[21]);
    if (!v) return std::nullopt;
    if (!fits(*v, 0xffff)) return std::nullopt;
    r.shard = ShardId{static_cast<std::uint64_t>(*v)};
  }
  if (!f[22].empty()) {
    const auto v = parse_i64(f[22]);
    if (!v) return std::nullopt;
    if (!fits(*v, 0xffffffff)) return std::nullopt;
    r.service_time = static_cast<std::uint32_t>(*v);
  }
  // ext and fault share the interned label slot; a row claiming both is
  // internally inconsistent (no record type carries both columns).
  if (!f[14].empty() && !f[23].empty()) return std::nullopt;
  if (!f[14].empty()) {
    if (r.type == RecordType::kFault) return std::nullopt;
    r.label = intern(f[14]);
  }
  if (!f[23].empty()) {
    if (r.type != RecordType::kFault) return std::nullopt;
    r.label = intern(f[23]);
  }
  r.is_update = f[15] == "1";
  r.is_dir = f[16] == "1";
  r.deduplicated = f[17] == "1";
  r.failed = f[18] == "1";
  return r;
}

}  // namespace u1
