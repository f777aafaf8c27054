#include "util/csv.hpp"

#include <ostream>

namespace u1 {
namespace {

bool needs_quoting(std::string_view field, char delim) {
  for (const char c : field) {
    if (c == delim || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

void write_csv_row(std::string& out, const std::vector<std::string>& fields,
                   char delim) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(delim);
    const std::string& f = fields[i];
    if (needs_quoting(f, delim)) {
      out.push_back('"');
      for (const char c : f) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
      }
      out.push_back('"');
    } else {
      out += f;
    }
  }
  out.push_back('\n');
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  std::string row;
  write_csv_row(row, fields, delim_);
  out_->write(row.data(), static_cast<std::streamsize>(row.size()));
}

bool parse_csv_line(std::string_view line, char delim,
                    std::vector<std::string>& fields) {
  fields.clear();
  std::string current;
  bool in_quotes = false;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      current.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && current.empty()) {
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == delim) {
      fields.push_back(std::move(current));
      current.clear();
      ++i;
      continue;
    }
    current.push_back(c);
    ++i;
  }
  if (in_quotes) return false;  // unterminated quote
  fields.push_back(std::move(current));
  return true;
}

bool CsvReader::next(std::vector<std::string>& fields) {
  while (!text_.empty()) {
    const std::size_t nl = text_.find('\n');
    std::string_view line = text_.substr(0, nl);
    text_.remove_prefix(nl == std::string_view::npos ? text_.size()
                                                      : nl + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++rows_;
    if (parse_csv_line(line, delim_, fields)) return true;
    ++errors_;
  }
  return false;
}

}  // namespace u1
