// The `.u1b` binary columnar trace format (DESIGN.md §8).
//
// CSV serialization is the single most expensive phase of a month-scale
// run: every record costs ~24 formatted fields, and every re-read costs
// the reverse parse. A TraceRecord is already a 128-byte POD with
// interned labels, so persistence does not need formatting at all — it
// needs a byte layout. One `.u1b` file corresponds to exactly one CSV
// logfile (same per-(machine, process, day) sharding, same
// "production-…" name), and holds the identical records; `u1trace
// convert` round-trips a directory between the two formats
// byte-faithfully in both directions.
//
// Layout (all integers little-endian; varint = LEB128):
//
//   file      := header stripe*
//   header    := magic[8] version:u32 header_bytes:u32 machine:u8 pad:u8
//                process:u16 stripe_count:u32 record_count:u64
//                payload_bytes:u64 xxh64:u64 pad              (64 bytes)
//   stripe    := payload_bytes:u32 record_count:u32
//                type_counts:u32[kRecordTypeCount]           (28 bytes)
//                type_seq:u8[record_count] segment*
//   segment   := one per record type with type_counts[t] > 0, in
//                RecordType order; column-major (see binlog.cpp for the
//                exact column list): varint columns for the integer
//                fields (timestamps zigzag-delta-encoded within the
//                segment), presence bitmap + raw bytes for UUID/SHA-1
//                columns, plain u8 arrays for the enum/flag columns
//
// A file's records collect in its current stripe, which is encoded and
// appended as soon as it holds BinaryLogfileWriter::kStripeRecords
// records. The last, partial stripe is encoded when the file is
// finished: after the day rollover, on the writer core's finisher thread
// (trace/logfile.hpp), or at close(). That write also patches in the
// header, and the sidecar is written then, so the writer holds about two
// days of records, not the run. `machine` and `process` are file
// constants (the file IS one process-day) and live in the header, never
// per record; `type` is a segment constant. The XXH64 in the header
// covers every byte after the header.
//
// A late record for a finished file reopens it: the last partial stripe
// is read back and decoded, cut off the file, and the file's dictionary
// is cut back to the ids used before it, so the stripe is re-encoded
// with the new record exactly as if the file had never been finished.
// After a full last stripe the record simply starts a new stripe. Stripe
// boundaries thus depend only on each file's own record order, never on
// how records of different files interleave.
//
// Symbols: the `label` column stores file-local dictionary ids. The
// dictionary — exactly the strings this one logfile references, in
// first-use order — is written once to a `.u1s` sidecar next to the
// file (magic, version, count, checksum, then length-prefixed strings).
// The reader interns the sidecar strings back into the global
// SymbolTable and rewrites labels to global ids, so decoded records are
// indistinguishable from engine-emitted ones.
//
// The reader memory-maps the file (falling back to a plain read when
// mmap is unavailable) and decodes columns straight out of the mapping —
// no text tokenizing, no number parsing, no per-field strings. Every
// access is bounds-checked against the mapping; hostile inputs (bad
// magic, truncated tails, corrupt checksums, missing sidecars) are
// rejected with counts in ReadStats, never UB.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "trace/logfile.hpp"
#include "trace/record.hpp"
#include "trace/symbols.hpp"

namespace u1 {

/// On-disk trace format selector (U1SIM_TRACE_FORMAT=csv|bin).
enum class TraceFormat : std::uint8_t { kCsv, kBinary };

std::string_view to_string(TraceFormat f) noexcept;
std::optional<TraceFormat> trace_format_from_string(
    std::string_view s) noexcept;
/// U1SIM_TRACE_FORMAT, defaulting to kCsv (the historical format; the
/// full-scale trace SHA-1 contract is pinned to it).
TraceFormat trace_format_from_env();

/// File extensions: logfiles are "<logname>.u1b", the symbol sidecar is
/// "<logname>.u1s".
inline constexpr std::string_view kBinaryLogfileExt = ".u1b";
inline constexpr std::string_view kSymbolSidecarExt = ".u1s";

/// True when the 8 bytes at `p` (n >= 8) are the .u1b file magic.
bool is_binary_logfile_magic(const unsigned char* p, std::size_t n) noexcept;

/// Writes records into per-(machine, process, day) `.u1b` files plus one
/// `.u1s` symbol sidecar each, through the LogfileSink core: same
/// sharding rule, day rollover and late-record rule — and therefore the
/// same file set — as the CSV LogfileWriter. Records must carry global
/// label ids (every sink-visible record does).
class BinaryLogfileWriter final : public LogfileSink {
 public:
  /// Records per stripe unless a test sets another count.
  static constexpr std::size_t kStripeRecords = 8192;

  explicit BinaryLogfileWriter(std::filesystem::path directory);

  /// Records per stripe, for files started after the call. Tests shrink
  /// it to exercise multi-stripe files without bulk data.
  void set_stripe_records(std::size_t n) noexcept {
    stripe_records_ = n < 1 ? 1 : n;
  }

 private:
  std::unique_ptr<File> start(const TraceRecord& first,
                              const std::filesystem::path& stem) override;

  std::size_t stripe_records_ = kStripeRecords;
};

/// Reads one `.u1b` logfile (and its `.u1s` sidecar), appending decoded
/// records — labels rewritten to global symbol ids — to `out`. Integrity
/// failures never throw: they are reported through the returned stats
/// (`malformed` counts records lost to bad magic / version / truncation /
/// checksum / sidecar problems; `checksum_failures` counts files whose
/// payload digest did not match). A truncated tail loses only the
/// stripes it overlaps: intact leading stripes still decode.
ReadStats read_binary_logfile(const std::filesystem::path& file,
                              std::vector<TraceRecord>& out);

/// The symbol half of read_binary_logfile: makes the same header, digest
/// and sidecar checks and, when they pass, interns the sidecar's strings
/// into the global SymbolTable exactly as a read of the file would.
/// Returns the header's record count (bounded by the payload size), or 0
/// when a read would reject the file before its sidecar. Interning every
/// file this way in a fixed order first lets the files then decode in
/// any order, on any thread, with no new global id left to assign.
std::uint64_t intern_binary_logfile_symbols(const std::filesystem::path& file);

/// The writer for `format` behind the common LogfileSink interface.
std::unique_ptr<LogfileSink> make_logfile_writer(
    std::filesystem::path directory, TraceFormat format);

}  // namespace u1
