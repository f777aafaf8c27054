#include "util/sim_time.hpp"

#include <gtest/gtest.h>

namespace u1 {
namespace {

TEST(SimTime, UnitRelations) {
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
  EXPECT_EQ(kDay, 24 * kHour);
  EXPECT_EQ(kWeek, 7 * kDay);
}

TEST(SimTime, DayIndexAndHour) {
  EXPECT_EQ(day_index(0), 0);
  EXPECT_EQ(day_index(kDay - 1), 0);
  EXPECT_EQ(day_index(kDay), 1);
  EXPECT_EQ(hour_of_day(0), 0);
  EXPECT_EQ(hour_of_day(13 * kHour + 30 * kMinute), 13);
  EXPECT_EQ(hour_of_day(kDay + 5 * kHour), 5);
}

TEST(SimTime, FracHour) {
  EXPECT_DOUBLE_EQ(frac_hour_of_day(90 * kMinute), 1.5);
}

TEST(SimTime, EpochIsSaturday) {
  // 2014-01-11 was a Saturday (weekday 5 with Monday=0).
  EXPECT_EQ(weekday(0), 5);
  EXPECT_TRUE(is_weekend(0));
  EXPECT_TRUE(is_weekend(kDay));       // Sunday Jan 12
  EXPECT_FALSE(is_weekend(2 * kDay));  // Monday Jan 13
  EXPECT_EQ(weekday(2 * kDay), 0);
}

TEST(SimTime, TraceDateStartsAtJan11) {
  EXPECT_EQ(trace_date(0), "20140111");
  EXPECT_EQ(trace_date(kDay), "20140112");
}

TEST(SimTime, TraceDateCrossesIntoFebruary) {
  // Jan 11 + 21 days = Feb 1.
  EXPECT_EQ(trace_date(21 * kDay), "20140201");
  // Day 30 of the trace (index 29) is Feb 9; the paper window ends Feb 10.
  EXPECT_EQ(trace_date(29 * kDay), "20140209");
  EXPECT_EQ(trace_date(30 * kDay), "20140210");
}

TEST(SimTime, TraceDateHandlesNonLeapFebruary) {
  // 2014 is not a leap year: Feb has 28 days. Jan 11 + 49 days = Mar 1.
  EXPECT_EQ(trace_date(49 * kDay), "20140301");
}

TEST(SimTime, TraceDayOfDateInvertsTraceDate) {
  // Past two year ends, one of them after a leap February (2016).
  for (int day = 0; day < 1200; ++day)
    ASSERT_EQ(trace_day_of_date(trace_date(day * kDay)), day) << day;
}

TEST(SimTime, TraceDayOfDateRejectsWhatIsNotATraceDate) {
  EXPECT_EQ(trace_day_of_date("20140110"), std::nullopt);  // before epoch
  EXPECT_EQ(trace_day_of_date("20131231"), std::nullopt);
  EXPECT_EQ(trace_day_of_date("20140229"), std::nullopt);  // not a leap year
  EXPECT_EQ(trace_day_of_date("20141301"), std::nullopt);
  EXPECT_EQ(trace_day_of_date("20140100"), std::nullopt);
  EXPECT_EQ(trace_day_of_date("2014011x"), std::nullopt);
  EXPECT_EQ(trace_day_of_date("2014011"), std::nullopt);
  EXPECT_EQ(trace_day_of_date(""), std::nullopt);
  EXPECT_EQ(trace_day_of_date("20160229"), 779);  // a leap day
}

TEST(SimTime, FormatTimestamp) {
  EXPECT_EQ(format_timestamp(0), "2014-01-11 00:00:00.000");
  EXPECT_EQ(format_timestamp(kDay + 3 * kHour + 4 * kMinute + 5 * kSecond +
                             6 * kMillisecond),
            "2014-01-12 03:04:05.006");
}

TEST(SimTime, FormatDurationPicksUnits) {
  EXPECT_EQ(format_duration(500), "500us");
  EXPECT_EQ(format_duration(250 * kMillisecond), "250ms");
  EXPECT_EQ(format_duration(90 * kSecond), "90.0s");
  EXPECT_EQ(format_duration(30 * kMinute), "30.0m");
  EXPECT_EQ(format_duration(10 * kHour), "10.0h");
  EXPECT_EQ(format_duration(3 * kDay), "3.0d");
}

TEST(SimTime, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(12.5)), 12.5);
  EXPECT_EQ(from_seconds(1.0), kSecond);
}

}  // namespace
}  // namespace u1
