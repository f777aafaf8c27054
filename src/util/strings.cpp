#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace u1 {

std::vector<std::string_view> split(std::string_view text, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

namespace {

/// Strict from_chars parse: the whole of `text`, nothing else.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::int64_t> parse_i64(std::string_view text) {
  return parse_whole<std::int64_t>(text);
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  return parse_whole<std::uint64_t>(text);
}

std::optional<double> parse_double(std::string_view text) {
  return parse_whole<double>(text);
}

std::string format_bytes(double bytes) {
  static constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 5) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", bytes, kUnits[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, kUnits[unit]);
  }
  return buf;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace u1
