// The trace record format (§4). The U1 dataset is a merge of per-process
// CSV logfiles with four request types:
//   session      — session management (auth request/ok/fail, open, close)
//   storage      — an API operation arriving at an API server
//   storage_done — its completion (carries the duration)
//   rpc          — the DAL call it translated into (carries shard + time)
// Our simulated back-end emits exactly this shape so that the analyzers
// are written as they would be for the real dataset.
//
// The in-memory representation is a fixed-size trivially-copyable struct
// (budget: 128 bytes — two cache lines) so the engine's hot path — epoch
// chunk sorts, the k-way merge, guard scans, sink hand-offs — moves plain
// bytes, never strings. The two string-valued columns (`ext`, `fault`)
// are interned into one `Symbol` (they are mutually exclusive: only
// kFault records carry a fault label, only storage records an extension)
// and resolved back through the global SymbolTable at the CSV
// serialization boundary, which keeps the emitted bytes — and therefore
// the trace SHA-1 — identical to the string-carrying layout.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "proto/entities.hpp"
#include "proto/ids.hpp"
#include "proto/operations.hpp"
#include "trace/symbols.hpp"
#include "util/sim_time.hpp"

namespace u1 {

enum class RecordType : std::uint8_t {
  kSession,
  kStorage,
  kStorageDone,
  kRpc,
  kFault,  // fault-injection window begin/end (operator's incident log)
};

/// Number of RecordType values — size per-type arrays from this, never
/// from a literal (CountingSink once had a 4-slot array and kFault wrote
/// past its end).
inline constexpr std::size_t kRecordTypeCount =
    static_cast<std::size_t>(RecordType::kFault) + 1;

std::string_view to_string(RecordType t) noexcept;
std::optional<RecordType> record_type_from_string(std::string_view s) noexcept;

enum class SessionEvent : std::uint8_t {
  kNone,
  kAuthRequest,  // API server asked the auth service to verify/issue
  kAuthOk,
  kAuthFail,
  kOpen,     // session established
  kClose,    // session ended by a client disconnect
  kDropped,  // session force-closed (process crash / machine outage)
  kTryAgain, // load-shed: balancer had no process with capacity
};

std::string_view to_string(SessionEvent e) noexcept;
std::optional<SessionEvent> session_event_from_string(
    std::string_view s) noexcept;

/// Narrow in-record storage for a StrongId. The trace never sees ids
/// that need 64 bits (machines: 6, processes: ~100, users/sessions:
/// millions), so records store the compact width and convert implicitly
/// at the boundaries — call sites keep writing `r.user` where a UserId
/// is expected. Widths are validated on the CSV parse path (overflow ==
/// malformed row), and emit paths only ever narrow ids they generated
/// within range.
template <typename Id, typename Raw>
struct PackedTraceId {
  Raw value = 0;

  constexpr PackedTraceId() = default;
  constexpr PackedTraceId(Id id) noexcept  // NOLINT: implicit by design
      : value(static_cast<Raw>(id.value)) {}
  constexpr operator Id() const noexcept { return Id{value}; }  // NOLINT

  constexpr bool valid() const noexcept { return value != 0; }

  friend constexpr bool operator==(PackedTraceId a, PackedTraceId b) noexcept {
    return a.value == b.value;
  }
  friend constexpr bool operator==(PackedTraceId a, Id b) noexcept {
    return a.value == b.value;
  }
  friend constexpr bool operator==(Id a, PackedTraceId b) noexcept {
    return a.value == b.value;
  }
};

/// One log line. Fields not applicable to the record type are left at
/// their zero values and serialize to empty CSV cells.
struct TraceRecord {
  SimTime t = 0;
  SimTime duration = 0;  // kStorageDone: end-to-end op time; kFault: window
  std::uint64_t size_bytes = 0;         // logical file size
  std::uint64_t transferred_bytes = 0;  // wire bytes (0 on dedup hit)

  // type == kStorage / kStorageDone
  NodeId node;
  NodeId parent;  // parent directory (set on Make records)
  VolumeId volume;
  ContentId content;  // SHA-1 (files only)

  // type == kRpc (microseconds; the DAL never served a >1h call)
  std::uint32_t service_time = 0;

  PackedTraceId<UserId, std::uint32_t> user;
  PackedTraceId<SessionId, std::uint32_t> session;

  /// Interned `ext` column (storage records) or `fault` column (kFault
  /// records: "<kind>#<window-id>:begin|end") — mutually exclusive by
  /// type, so one slot serves both. Emit through GroupSymbols/
  /// set_extension/set_fault; read through extension()/fault().
  Symbol label = kEmptySymbol;

  PackedTraceId<ProcessId, std::uint16_t> process;
  PackedTraceId<ShardId, std::uint16_t> shard;  // kRpc / kFault target
  PackedTraceId<MachineId, std::uint8_t> machine;

  RecordType type = RecordType::kStorage;
  SessionEvent session_event = SessionEvent::kNone;  // type == kSession
  ApiOp api_op = ApiOp::kListVolumes;   // kStorage / kStorageDone
  RpcOp rpc_op = RpcOp::kListVolumes;   // kRpc

  bool is_update : 1 = false;    // upload of an existing node w/ new content
  bool is_dir : 1 = false;
  bool deduplicated : 1 = false; // upload satisfied by get_reusable_content
  bool failed : 1 = false;

  /// Interns `ext` eagerly into the global table (tests — engine emit
  /// paths intern through their group's GroupSymbols, and the trace
  /// reader through file-local ids).
  void set_extension(std::string_view ext) {
    label = global_symbols().intern(ext);
  }
  void set_fault(std::string_view fault_text) {
    label = global_symbols().intern(fault_text);
  }

  /// Resolved `ext` column; empty for kFault records (whose label is the
  /// fault text). Only valid for global label ids — i.e. any record the
  /// engines hand to a sink; the parallel engine remaps group-local ids
  /// before records leave the flush pipeline.
  std::string_view extension() const noexcept {
    return type == RecordType::kFault ? std::string_view{}
                                      : global_symbols().resolve(label);
  }
  /// Resolved `fault` column; empty for non-fault records.
  std::string_view fault() const noexcept {
    return type == RecordType::kFault ? global_symbols().resolve(label)
                                      : std::string_view{};
  }

  /// The logfile this record belongs to, e.g.
  /// "production-whitecurrant-23-20140128" (paper §4).
  std::string logname() const;

  /// CSV row (fixed column order, see kCsvHeader).
  std::vector<std::string> to_csv() const;

  /// Appends the record's serialized form to `out` as
  ///   field0,field1,...,field23,\n
  /// — every field followed by a comma, then a newline. This is the byte
  /// stream the determinism oracles hash (historically: to_csv() fields
  /// each followed by ","), kept verbatim so trace SHA-1s are comparable
  /// across engine versions. No allocations beyond `out`'s growth.
  void append_csv_row(std::string& out) const;

  /// Parses a row; std::nullopt for malformed rows (the paper reports ~1%
  /// of trace lines failed to parse — the reader counts, not crashes).
  /// Malformed includes: id fields overflowing their packed widths, and
  /// a row carrying both a non-empty `ext` and a non-empty `fault` (the
  /// columns are mutually exclusive by record type).
  static std::optional<TraceRecord> from_csv(
      const std::vector<std::string>& fields);
  /// from_csv with the label id of a non-empty `ext` or `fault` column
  /// taken from `intern` (called only for rows that parse) instead of
  /// the global table.
  static std::optional<TraceRecord> from_csv(
      const std::vector<std::string>& fields,
      const std::function<Symbol(std::string_view)>& intern);

  static const std::vector<std::string>& csv_header();
};

// The hot-path contract: records are raw bytes to the engine. The 128-
// byte budget (two cache lines) is load-bearing for flush throughput —
// if a new field pushes past it, shrink something else.
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "TraceRecord must stay POD: the engine memcpys it");
static_assert(sizeof(TraceRecord) <= 128,
              "TraceRecord exceeds its 128-byte (two cache line) budget");

/// Machine names used in lognames. The production fleet had 6 API/RPC
/// machines; we keep Canonical's fruit-flavored naming style.
std::string_view machine_name(MachineId id) noexcept;

}  // namespace u1
