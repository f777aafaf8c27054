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
// A file's records collect in its current stripe, held as packed rows
// (trace/packed.hpp, about a third of a TraceRecord each) and unpacked
// into a scratch stripe only to be encoded. The stripe is encoded and
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
// is read back, decoded and packed again, cut off the file, and the
// file's dictionary is cut back to the ids used before it, so the stripe
// is re-encoded with the new record exactly as if the file had never
// been finished.
// After a full last stripe the record simply starts a new stripe. Stripe
// boundaries thus depend only on each file's own record order, never on
// how records of different files interleave.
//
// Symbols: the `label` column stores file-local dictionary ids. The
// dictionary — exactly the strings this one logfile references, in
// first-use order — is written once to a `.u1s` sidecar next to the
// file (magic, version, count, checksum, then length-prefixed strings).
// The reader decodes labels as file-local ids, then interns the sidecar
// strings back into the global SymbolTable and rewrites labels to global
// ids, so delivered records are indistinguishable from engine-emitted
// ones. The two steps are separate so that files can decode on any
// thread while the interning, which fixes the global ids, runs in one
// deterministic order (trace/logfile.hpp, read_logfiles).
//
// The reader memory-maps the file (falling back to a plain read when
// mmap is unavailable) and decodes columns straight out of the mapping —
// no text tokenizing, no number parsing, no per-field strings. It decodes
// one stripe at a time: the trace reader (read_logfiles) takes each
// stripe from a per-thread scratch of at most kStripeRecords records and
// holds the file as packed rows, so a thread never holds a whole
// decoded file. Every access is bounds-checked against the mapping;
// hostile inputs (bad magic, truncated tails, corrupt checksums, missing
// sidecars) are rejected with counts in ReadStats, never UB.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/logfile.hpp"
#include "trace/record.hpp"
#include "trace/symbols.hpp"
#include "util/page_alloc.hpp"

namespace u1 {

/// On-disk trace format selector (U1SIM_TRACE_FORMAT=csv|bin).
enum class TraceFormat : std::uint8_t { kCsv, kBinary };

std::string_view to_string(TraceFormat f) noexcept;
std::optional<TraceFormat> trace_format_from_string(
    std::string_view s) noexcept;
/// U1SIM_TRACE_FORMAT, defaulting to kCsv when unset or empty (the
/// historical format; the full-scale trace SHA-1 contract is pinned to
/// it). Throws std::runtime_error naming any other value.
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
  /// Closes the writer while the files can still use its scratch stripes.
  ~BinaryLogfileWriter() override;

  /// Records per stripe, for files started after the call. Tests shrink
  /// it to exercise multi-stripe files without bulk data.
  void set_stripe_records(std::size_t n) noexcept {
    stripe_records_ = n < 1 ? 1 : n;
  }

  /// The stripes files unpack their open stripe into to encode it: one
  /// for the appending thread (add, reopen) and one for the finisher
  /// (finish; close() runs it too, with the finisher joined).
  struct Scratch {
    PageVector<TraceRecord> append;
    PageVector<TraceRecord> finish;
  };

 private:
  std::unique_ptr<File> start(const TraceRecord& first,
                              const std::filesystem::path& stem) override;

  std::size_t stripe_records_ = kStripeRecords;
  Scratch scratch_;
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

/// read_binary_logfile up to, not including, the global symbol ids: the
/// same checks, stats and records, but each record's label stays the
/// file-local id and nothing is interned. The sidecar strings those ids
/// index (local id i + 1 is labels[i], 0 the empty string) come back in
/// `labels`, as far as the sidecar parsed, so interning them in order
/// assigns exactly the ids a read_binary_logfile would: nothing for a
/// file that fails its digest, the parsed prefix for a sidecar that
/// checksums but fails partway. Touches no shared state, so files decode
/// on any thread in any order; the mapping is released before it returns.
ReadStats decode_binary_logfile(const std::filesystem::path& file,
                                std::vector<TraceRecord>& out,
                                std::vector<std::string>& labels);

/// Takes one decoded stripe's records, labels still file-local.
using StripeFn = std::function<void(std::span<const TraceRecord>)>;

/// decode_binary_logfile over the file's bytes, already read (the
/// sidecar is read from beside `file`), one stripe at a time: each intact
/// stripe decodes into `scratch`, replacing what it held, and goes to
/// `on_stripe`, in file order. The same checks, stats and labels; the
/// records held are one stripe's, however large the file.
ReadStats decode_binary_logfile(const std::filesystem::path& file,
                                std::span<const std::uint8_t> bytes,
                                std::vector<std::string>& labels,
                                PageVector<TraceRecord>& scratch,
                                const StripeFn& on_stripe);

/// Interns a decoded file's `labels` into the global SymbolTable, in
/// order, and returns the file's local -> global id map (element 0 is
/// kEmptySymbol, element i + 1 the id of labels[i]).
std::vector<Symbol> intern_labels(const std::vector<std::string>& labels);

/// The writer for `format` behind the common LogfileSink interface.
std::unique_ptr<LogfileSink> make_logfile_writer(
    std::filesystem::path directory, TraceFormat format);

}  // namespace u1
