#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "trace/logfile.hpp"
#include "trace/sink.hpp"

namespace u1 {
namespace {

TraceRecord record_at(SimTime t, std::uint64_t machine = 1,
                      std::uint64_t process = 1) {
  TraceRecord r;
  r.t = t;
  r.type = RecordType::kStorage;
  r.api_op = ApiOp::kMake;
  r.machine = MachineId{machine};
  r.process = ProcessId{process};
  r.user = UserId{1};
  r.session = SessionId{1};
  return r;
}

TEST(Sinks, InMemoryKeepsAll) {
  InMemorySink sink;
  sink.append(record_at(1));
  sink.append(record_at(2));
  EXPECT_EQ(sink.records().size(), 2u);
  sink.clear();
  EXPECT_TRUE(sink.records().empty());
}

TEST(Sinks, MultiFanOut) {
  InMemorySink a, b;
  CountingSink c;
  MultiSink multi;
  multi.add(&a);
  multi.add(&b);
  multi.add(&c);
  EXPECT_EQ(multi.sink_count(), 3u);
  multi.append(record_at(1));
  EXPECT_EQ(a.records().size(), 1u);
  EXPECT_EQ(b.records().size(), 1u);
  EXPECT_EQ(c.total(), 1u);
  EXPECT_THROW(multi.add(nullptr), std::invalid_argument);
}

TEST(Sinks, CountingByType) {
  CountingSink sink;
  TraceRecord r = record_at(1);
  sink.append(r);
  r.type = RecordType::kRpc;
  sink.append(r);
  sink.append(r);
  EXPECT_EQ(sink.total(), 3u);
  EXPECT_EQ(sink.count(RecordType::kStorage), 1u);
  EXPECT_EQ(sink.count(RecordType::kRpc), 2u);
  EXPECT_EQ(sink.count(RecordType::kSession), 0u);
}

// Regression: by_type_ used to have 4 slots while RecordType has 5
// values — appending a kFault record indexed past the array. The array
// is now sized from the enum; every type must count without UB.
TEST(Sinks, CountingCoversEveryRecordType) {
  CountingSink sink;
  TraceRecord r = record_at(1);
  for (std::size_t i = 0; i < kRecordTypeCount; ++i) {
    r.type = static_cast<RecordType>(i);
    sink.append(r);
  }
  EXPECT_EQ(sink.total(), kRecordTypeCount);
  for (std::size_t i = 0; i < kRecordTypeCount; ++i)
    EXPECT_EQ(sink.count(static_cast<RecordType>(i)), 1u);
  EXPECT_EQ(sink.count(RecordType::kFault), 1u);
}

TEST(Sinks, CallbackInvoked) {
  int calls = 0;
  CallbackSink sink([&](const TraceRecord&) { ++calls; });
  sink.append(record_at(1));
  EXPECT_EQ(calls, 1);
  EXPECT_THROW(CallbackSink(nullptr), std::invalid_argument);
}

class LogfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("u1sim_logtest_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(LogfileTest, WriterShardsByMachineProcessDay) {
  LogfileWriter writer(dir_);
  writer.append(record_at(kHour, 1, 1));
  writer.append(record_at(2 * kHour, 1, 1));   // same file
  writer.append(record_at(kHour, 1, 2));       // different process
  writer.append(record_at(kDay + kHour, 1, 1));  // next day
  writer.append(record_at(kHour, 2, 7));       // different machine
  writer.close();
  EXPECT_EQ(writer.files_written(), 0u);  // closed
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    ++files;
    EXPECT_TRUE(e.path().filename().string().starts_with("production-"));
  }
  EXPECT_EQ(files, 4u);
}

TEST_F(LogfileTest, RoundTripThroughDirectory) {
  {
    LogfileWriter writer(dir_);
    writer.append(record_at(3 * kHour, 2, 9));
    writer.append(record_at(kHour, 1, 1));
    writer.append(record_at(2 * kHour, 1, 2));
  }
  InMemorySink sink;
  const ReadStats stats = read_logfiles(dir_, sink);
  EXPECT_EQ(stats.files, 3u);
  EXPECT_EQ(stats.parsed, 3u);
  EXPECT_EQ(stats.malformed, 0u);
  ASSERT_EQ(sink.records().size(), 3u);
  // Merged in timestamp order.
  EXPECT_EQ(sink.records()[0].t, kHour);
  EXPECT_EQ(sink.records()[1].t, 2 * kHour);
  EXPECT_EQ(sink.records()[2].t, 3 * kHour);
}

TEST_F(LogfileTest, MalformedLinesCountedNotFatal) {
  {
    LogfileWriter writer(dir_);
    writer.append(record_at(kHour));
  }
  // Corrupt the file by appending garbage (the paper: ~1% of lines failed
  // to parse).
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    std::ofstream f(e.path(), std::ios::app);
    f << "garbage,line\n";
    f << "\"unterminated\n";
  }
  InMemorySink sink;
  const ReadStats stats = read_logfiles(dir_, sink);
  EXPECT_EQ(stats.parsed, 1u);
  EXPECT_EQ(stats.malformed, 2u);
  EXPECT_EQ(stats.rows, 3u);  // the header line is not a row
  EXPECT_EQ(sink.records().size(), 1u);
}

TEST_F(LogfileTest, NonProductionFilesIgnored) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ / "README.txt") << "not a log\n";
  InMemorySink sink;
  const ReadStats stats = read_logfiles(dir_, sink);
  EXPECT_EQ(stats.files, 0u);
  EXPECT_TRUE(sink.records().empty());
}

TEST_F(LogfileTest, ReadMissingFileThrows) {
  std::vector<TraceRecord> out;
  EXPECT_THROW(read_logfile(dir_ / "missing.csv", out), std::runtime_error);
}

}  // namespace
}  // namespace u1
