// Logfile persistence matching the paper's collection methodology (§4):
// "Each logfile corresponds to the entire activity of a single API/RPC
// process in a machine for a period of time ... there is one log file per
// server/service and day", named production-<machine>-<proc>-<date>.
// The writer shards records into such files; the reader merges a directory
// of them back into timestamp order, tolerating malformed lines (~1% in
// the real dataset).
//
// Two on-disk formats share the sharding rule and the reader API: the
// original CSV logfiles (this header) and the binary columnar `.u1b`
// format (trace/binlog.hpp). read_logfile sniffs the leading magic, so a
// directory may freely mix both; read_logfiles merges either kind into
// one timestamp-ordered stream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace u1 {

/// The writer core both logfile formats share: it owns the
/// per-(machine, process, day) file map, the day rollover and close(),
/// and leaves the bytes to one File per logfile — CSV rows
/// (LogfileWriter) or `.u1b` stripes (BinaryLogfileWriter).
///
/// Day rollover: when the first record of day d+1 arrives, every file of
/// an earlier day is finished. A background finisher thread, started at
/// the rollover (never by the constructor), finishes them in file-name
/// order: each file writes what it still holds, so the day is complete
/// on disk, and frees its records. Memory thus holds about two days of
/// records, not the run. At most one finished day is in flight: the next
/// rollover and close() join the finisher and rethrow its error.
///
/// Late records: records need not come in day order (the engine can
/// deliver records of a day's last hours after the next day began,
/// DESIGN.md §8). A record for a finished file joins the finisher and
/// reopens the file; the bytes come out exactly as if the file had never
/// been finished.
///
/// Files are opened only for each write, so each of the two threads holds
/// at most one file open however many logfiles a run makes. A file is
/// created by its first write, so most files (and every `.u1s` sidecar)
/// are created by the finisher, off the appending thread. Creating a day's
/// files on the appending thread while the finisher wrote the previous
/// day's contended on the directory's lock (DESIGN.md §8).
class LogfileSink : public TraceSink {
 public:
  /// One logfile and its encoder. The appending thread owns it, except
  /// while its day is with the finisher.
  class File {
   public:
    virtual ~File() = default;
    /// Takes the file's next record; may write part of the file.
    /// Returns the bytes the file now holds in memory, not yet written:
    /// its open stripe's packed rows (`.u1b`, trace/packed.hpp) or its
    /// CSV rows.
    virtual std::size_t add(const TraceRecord& record) = 0;
    /// Writes whatever add() left and frees the records, so the file is
    /// complete on disk. Returns its bytes on disk, sidecar included.
    virtual std::uint64_t finish() = 0;
    /// Makes a finished file take records again, with the bytes it would
    /// have had if finish() had not run.
    virtual void reopen() = 0;
  };

  LogfileSink(const LogfileSink&) = delete;
  LogfileSink& operator=(const LogfileSink&) = delete;
  /// Closes the writer, joining the finisher; an explicit close() is
  /// what reports errors.
  ~LogfileSink() override;

  void append(const TraceRecord& record) final;
  void append_batch(const TraceRecord* records, std::size_t count) final;
  /// Joins the finisher and finishes every file; the directory is then
  /// complete. Rethrows the first write error.
  void close();

  /// Files started since the last close() (0 after close()).
  std::size_t files_written() const noexcept { return files_.size(); }
  std::uint64_t records_written() const noexcept { return records_; }
  /// Bytes of the files closed so far: after close(), the directory's
  /// byte total, a reopened file counted once.
  std::uint64_t bytes_written() const noexcept { return bytes_; }
  /// The most bytes that files not yet finished held at once since
  /// construction, as File::add reports them (packed rows or CSV rows);
  /// a day counts until its finisher is joined. Counts what add()
  /// buffered, not buffer slack.
  std::uint64_t buffered_bytes_max() const noexcept { return buffered_max_; }

 protected:
  explicit LogfileSink(std::filesystem::path directory);

 private:
  struct Slot {
    std::string name;  // logname: the file-name order
    std::int64_t day = 0;
    std::unique_ptr<File> file;
    bool finished = false;   // handed to the finisher or closed
    std::uint64_t bytes = 0;  // set by finish()
    std::size_t buffered = 0;  // what the last add() reported
  };

  /// Starts the logfile `first` belongs to; `stem` is its path without
  /// the extension.
  virtual std::unique_ptr<File> start(const TraceRecord& first,
                                      const std::filesystem::path& stem) = 0;
  void roll_over(std::int64_t day);
  /// Unfinished files of days before `day`, in file-name order.
  std::vector<Slot*> unfinished_before(std::int64_t day);
  void join_finisher();

  std::filesystem::path dir_;
  // Keyed by (machine, process, day) packed into one integer, so the hot
  // path builds no logname string. Slots never move: the finisher keeps
  // pointers to them.
  std::unordered_map<std::uint64_t, Slot> files_;
  std::int64_t day_ = 0;  // latest trace day appended
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  // Bytes held by unfinished files, the part of it the day in flight
  // holds, and the largest total seen.
  std::uint64_t buffered_ = 0;
  std::uint64_t finishing_ = 0;
  std::uint64_t buffered_max_ = 0;
  std::future<void> finisher_;  // the day in flight, if any
};

/// Writes records into per-(machine, process, day) CSV logfiles under a
/// directory. Files carry a header row. Rows collect in a buffer per file,
/// which is appended to the file once it holds kFileBufferBytes and when
/// the file is finished; a late row is appended to its finished file.
class LogfileWriter final : public LogfileSink {
 public:
  /// Buffered bytes that make a file's rows go to disk (DESIGN.md §8
  /// has the timings behind the value).
  static constexpr std::size_t kFileBufferBytes = std::size_t{16} << 10;

  explicit LogfileWriter(std::filesystem::path directory);

 private:
  std::unique_ptr<File> start(const TraceRecord& first,
                              const std::filesystem::path& stem) override;
};

struct ReadStats {
  std::uint64_t rows = 0;       // data rows / records seen, never headers
  std::uint64_t parsed = 0;
  std::uint64_t malformed = 0;  // CSV/field failures, or binary records
                                // lost to integrity errors
  std::uint64_t files = 0;      // logfiles of either format
  std::uint64_t files_binary = 0;      // .u1b logfiles among `files`
  std::uint64_t bytes_read = 0;        // on-disk bytes, both formats
  std::uint64_t checksum_failures = 0; // binary files failing their digest
  // read_logfiles: the most decoded, undelivered records held at once,
  // counting a day from its decode until its merge ends (0 per file),
  // and, counted at the same moments, the most bytes the packed rows
  // holding them took.
  std::uint64_t records_held_max = 0;
  std::uint64_t held_bytes_max = 0;

  void add(const ReadStats& other) noexcept {
    rows += other.rows;
    parsed += other.parsed;
    malformed += other.malformed;
    files += other.files;
    files_binary += other.files_binary;
    bytes_read += other.bytes_read;
    checksum_failures += other.checksum_failures;
    records_held_max = std::max(records_held_max, other.records_held_max);
    held_bytes_max = std::max(held_bytes_max, other.held_bytes_max);
  }
};

/// A logfile of a trace directory and the trace day its name ends in.
struct LogfileEntry {
  std::int64_t day = 0;
  std::filesystem::path path;
};

/// Every "production-*" logfile in a directory (symbol sidecars are not
/// logfiles), in (day, name) order. The day is the trace day of the
/// name's "-YYYYMMDD" suffix, the date LogfileSink names each file after;
/// a name without one throws, naming the file. In this order every file
/// of a day comes before any file of a later day.
std::vector<LogfileEntry> list_logfiles(const std::filesystem::path& directory);

/// Reads every "production-*" logfile in a directory — CSV, binary, or a
/// mix (sniffed per file) — merges the records and delivers them to
/// `sink` in global timestamp order, ties in file-name order then file
/// order: the order of one stable sort of the name-ordered concatenation.
/// Pre-window records (t < 0) are dropped and counted malformed.
///
/// The read goes one day at a time, in list_logfiles order: while day d
/// merges, day d+1's files, CSV and binary alike, decode on
/// hardware_concurrency() threads in the background, so at most two days
/// of records are held. They are held as packed rows (trace/packed.hpp,
/// about a third of a TraceRecord each), one buffer of their exact size
/// per file: each thread decodes a file one stripe at a time into a
/// scratch of at most BinaryLogfileWriter::kStripeRecords records and
/// packs the stripe's in-window rows, so a file's pre-window rows never
/// reach memory whole. Only a file whose rows break t order (late
/// records) is held unpacked until it is sorted. The sink gets batches of
/// at most kStripeRecords records.
/// The sink is only ever called from the calling thread. New labels get
/// global symbol ids in the order a file-after-file read in (day, name)
/// order would give them, whatever the thread count. A file holding a
/// record of another day than its name's throws, naming the file.
/// Returns parsing statistics; a decode failure is re-thrown here, after
/// every earlier day has reached the sink.
ReadStats read_logfiles(const std::filesystem::path& directory,
                        TraceSink& sink);

/// Reads a single logfile of either format (sniffed by leading magic),
/// appending to `out`.
ReadStats read_logfile(const std::filesystem::path& file,
                       std::vector<TraceRecord>& out);

}  // namespace u1
