#include "util/sim_time.hpp"

#include <array>
#include <cstdio>

namespace u1 {
namespace {

struct CalendarDate {
  int year;
  int month;  // 1..12
  int day;    // 1..31
};

bool is_leap(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int days_in_month(int year, int month) {
  static constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (month == 2 && is_leap(year)) return 29;
  return kDays[static_cast<std::size_t>(month - 1)];
}

/// Walk forward from the trace epoch (2014-01-11).
CalendarDate date_of(SimTime t) {
  CalendarDate d{2014, 1, 11};
  int remaining = day_index(t);
  while (remaining > 0) {
    ++d.day;
    if (d.day > days_in_month(d.year, d.month)) {
      d.day = 1;
      ++d.month;
      if (d.month > 12) {
        d.month = 1;
        ++d.year;
      }
    }
    --remaining;
  }
  return d;
}

}  // namespace

std::string trace_date(SimTime t) {
  const CalendarDate d = date_of(t);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d%02d%02d", d.year, d.month, d.day);
  return buf;
}

std::optional<int> trace_day_of_date(std::string_view date) {
  if (date.size() != 8) return std::nullopt;
  int digits[8];
  for (std::size_t i = 0; i < 8; ++i) {
    if (date[i] < '0' || date[i] > '9') return std::nullopt;
    digits[i] = date[i] - '0';
  }
  const int year = digits[0] * 1000 + digits[1] * 100 + digits[2] * 10 +
                   digits[3];
  const int month = digits[4] * 10 + digits[5];
  const int day = digits[6] * 10 + digits[7];
  if (year < 2014 || month < 1 || month > 12 || day < 1 ||
      day > days_in_month(year, month))
    return std::nullopt;
  int since_epoch = day - 11;  // the epoch is January 11th, 2014
  for (int y = 2014; y < year; ++y) since_epoch += is_leap(y) ? 366 : 365;
  for (int m = 1; m < month; ++m) since_epoch += days_in_month(year, m);
  if (since_epoch < 0) return std::nullopt;
  return since_epoch;
}

std::string format_timestamp(SimTime t) {
  const CalendarDate d = date_of(t);
  const SimTime within = t % kDay;
  const int h = static_cast<int>(within / kHour);
  const int m = static_cast<int>((within % kHour) / kMinute);
  const int s = static_cast<int>((within % kMinute) / kSecond);
  const int ms = static_cast<int>((within % kSecond) / kMillisecond);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d.%03d", d.year,
                d.month, d.day, h, m, s, ms);
  return buf;
}

std::string format_duration(SimTime t) {
  char buf[32];
  const double s = to_seconds(t);
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(t));
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.0fms", s * 1e3);
  } else if (s < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.1fs", s);
  } else if (s < 2.0 * 3600.0) {
    std::snprintf(buf, sizeof(buf), "%.1fm", s / 60.0);
  } else if (s < 2.0 * 86400.0) {
    std::snprintf(buf, sizeof(buf), "%.1fh", s / 3600.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fd", s / 86400.0);
  }
  return buf;
}

}  // namespace u1
