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

#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace u1 {

/// Common interface of the per-(machine, process, day) logfile writers —
/// CSV LogfileWriter and binary BinaryLogfileWriter — so engines, tools
/// and benches select a trace format without caring which.
class LogfileSink : public TraceSink {
 public:
  /// Flushes and closes all open files; idempotent.
  virtual void close() = 0;
  /// Files started since the last close() (0 after close()).
  virtual std::size_t files_written() const noexcept = 0;
};

/// Writes records into per-(machine, process, day) CSV logfiles under a
/// directory. Files carry a header row. Rows collect in a buffer per file,
/// which is appended to the file once it holds kFileBufferBytes, when the
/// first record of a later day arrives (records come in time order, so
/// that day's files are then complete), and at close(). A file is open
/// only for such a write, so the writer never holds more than one file
/// open however many logfiles a run makes.
class LogfileWriter final : public LogfileSink {
 public:
  /// Buffered bytes that make a file's rows go to disk (DESIGN.md §8
  /// has the timings behind the value).
  static constexpr std::size_t kFileBufferBytes = std::size_t{16} << 10;

  explicit LogfileWriter(std::filesystem::path directory);
  ~LogfileWriter() override;

  void append(const TraceRecord& record) override;
  /// Writes every buffered row out; the files are then complete.
  void close() override;

  std::size_t files_written() const noexcept override {
    return files_.size();
  }

 private:
  struct FileState {
    std::int64_t day = 0;  // trace day the file covers
    std::string pending;   // rows not yet on disk
    bool created = false;  // later write-outs append
  };
  void write_out(const std::string& name, FileState& file);

  std::filesystem::path dir_;
  std::map<std::string, FileState> files_;
  std::ostringstream row_;  // one formatted row, reused
  std::int64_t day_ = 0;    // latest trace day appended
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

  void add(const ReadStats& other) noexcept {
    rows += other.rows;
    parsed += other.parsed;
    malformed += other.malformed;
    files += other.files;
    files_binary += other.files_binary;
    bytes_read += other.bytes_read;
    checksum_failures += other.checksum_failures;
  }
};

/// Reads every "production-*" logfile in a directory — CSV, binary, or a
/// mix (sniffed per file) — merges the records and delivers them to
/// `sink` in global timestamp order, ties in file-name order then file
/// order: the order of one stable sort of the name-ordered concatenation.
/// Pre-window records (t < 0) are dropped and counted malformed. Binary
/// files decode on hardware_concurrency() threads and stream through a
/// k-way merge; the sink is only ever called from the calling thread.
/// Returns parsing statistics; a decode failure is re-thrown here.
ReadStats read_logfiles(const std::filesystem::path& directory,
                        TraceSink& sink);

/// Reads a single logfile of either format (sniffed by leading magic),
/// appending to `out`.
ReadStats read_logfile(const std::filesystem::path& file,
                       std::vector<TraceRecord>& out);

}  // namespace u1
