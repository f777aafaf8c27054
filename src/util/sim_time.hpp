// Virtual time for the simulator and the trace. The paper's trace spans
// 30 days (2014-01-11 .. 2014-02-10); we keep the same calendar so that
// day-of-week effects ("15% more auth requests on Mondays") line up.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace u1 {

/// Microseconds since the trace epoch (2014-01-11 00:00:00 UTC, a Saturday).
using SimTime = std::int64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;
constexpr SimTime kMinute = 60 * kSecond;
constexpr SimTime kHour = 60 * kMinute;
constexpr SimTime kDay = 24 * kHour;
constexpr SimTime kWeek = 7 * kDay;

/// Day of week of the trace epoch. 2014-01-11 was a Saturday.
/// Encoding: 0 = Monday .. 6 = Sunday.
constexpr int kEpochWeekday = 5;

constexpr double to_seconds(SimTime t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

constexpr SimTime from_seconds(double s) noexcept {
  return static_cast<SimTime>(s * static_cast<double>(kSecond));
}

/// Zero-based day index within the trace (0..29 for the full month).
constexpr int day_index(SimTime t) noexcept {
  return static_cast<int>(t / kDay);
}

/// Hour of day, 0..23.
constexpr int hour_of_day(SimTime t) noexcept {
  return static_cast<int>((t % kDay) / kHour);
}

/// Fractional hour of day in [0, 24).
constexpr double frac_hour_of_day(SimTime t) noexcept {
  return static_cast<double>(t % kDay) / static_cast<double>(kHour);
}

/// Day of week: 0 = Monday .. 6 = Sunday.
constexpr int weekday(SimTime t) noexcept {
  return (kEpochWeekday + day_index(t)) % 7;
}

constexpr bool is_weekend(SimTime t) noexcept { return weekday(t) >= 5; }

/// Calendar date of a sim time, e.g. "20140111"; used in logfile names
/// (production-<machine>-<proc>-<date>). Handles the Jan->Feb rollover of
/// the trace window and keeps going for longer simulations.
std::string trace_date(SimTime t);

/// The inverse of trace_date: the zero-based trace day a "YYYYMMDD" date
/// names, or nullopt unless it is eight digits naming a real calendar
/// date on or after the trace epoch.
std::optional<int> trace_day_of_date(std::string_view date);

/// Human-readable timestamp "YYYY-MM-DD HH:MM:SS.mmm" for log records.
std::string format_timestamp(SimTime t);

/// Compact duration such as "1.5s", "320ms", "2.1h" for reports.
std::string format_duration(SimTime t);

}  // namespace u1
