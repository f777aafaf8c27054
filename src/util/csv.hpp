// Minimal CSV reader/writer. The U1 trace is 758GB of .csv logfiles
// (paper §4.1); our trace layer serializes to the same shape, so this is
// the only file-format code in the repository.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace u1 {

/// Escape-aware CSV writer for one output stream. Fields containing the
/// delimiter, quotes or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out, char delim = ',')
      : out_(&out), delim_(delim) {}

  void write_row(const std::vector<std::string>& fields);

 private:
  std::ostream* out_;
  char delim_;
};

/// Appends one row to `out`, quoted as CsvWriter writes it.
void write_csv_row(std::string& out, const std::vector<std::string>& fields,
                   char delim = ',');

/// Parses a single CSV line into fields, honoring RFC 4180 quoting.
/// Returns false on malformed input (unterminated quote) — the paper
/// reports ~1% of trace lines failed parsing, and our reader surfaces the
/// same condition instead of guessing.
bool parse_csv_line(std::string_view line, char delim,
                    std::vector<std::string>& fields);

/// Streaming CSV reader over text in memory (a mapped logfile), which
/// must outlive it. Rows are lines, split as std::getline splits them.
class CsvReader {
 public:
  explicit CsvReader(std::string_view text, char delim = ',')
      : text_(text), delim_(delim) {}

  /// Reads the next row; returns false at end of stream. Malformed rows
  /// increment error_count() and are skipped.
  bool next(std::vector<std::string>& fields);

  std::uint64_t error_count() const noexcept { return errors_; }
  std::uint64_t row_count() const noexcept { return rows_; }

 private:
  std::string_view text_;  // what is left to read
  char delim_;
  std::uint64_t errors_ = 0;
  std::uint64_t rows_ = 0;
};

}  // namespace u1
