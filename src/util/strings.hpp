// Small string helpers shared by the CSV layer, trace parser and reports.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace u1 {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string_view> split(std::string_view text, char delim);

/// Join with a delimiter.
std::string join(const std::vector<std::string>& parts,
                 std::string_view delim);

std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// Strict integer / double parsing; std::nullopt on any trailing garbage.
std::optional<std::int64_t> parse_i64(std::string_view text);
std::optional<std::uint64_t> parse_u64(std::string_view text);
std::optional<double> parse_double(std::string_view text);

/// "12.3 MB", "980 KB", "1.2 GB" — used in reports; 1 KB = 1024 bytes.
std::string format_bytes(double bytes);

/// Lowercase ASCII copy.
std::string to_lower(std::string_view text);

}  // namespace u1
