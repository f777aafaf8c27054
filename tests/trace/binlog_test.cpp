// Binary columnar logfile format: round-trip fidelity, mixed-format
// directory merging, and hostile-input rejection (every corruption is
// counted in ReadStats, never UB — this file is the ASan/UBSan probe for
// the bounds-checked decoder).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "trace/binlog.hpp"
#include "trace/logfile.hpp"
#include "trace/sink.hpp"

namespace u1 {
namespace {

/// A record exercising every column the given type carries.
TraceRecord sample(std::size_t i, RecordType type, std::uint64_t machine = 1,
                   std::uint64_t process = 7) {
  TraceRecord r;
  r.t = static_cast<SimTime>(i + 1) * kMinute;
  r.type = type;
  r.machine = MachineId{machine};
  r.process = ProcessId{process};
  r.user = UserId{100 + i};
  r.session = SessionId{200 + i};
  switch (type) {
    case RecordType::kSession:
      r.session_event = SessionEvent::kOpen;
      r.duration = static_cast<SimTime>(1000 + i);
      break;
    case RecordType::kStorage:
    case RecordType::kStorageDone:
      r.api_op = ApiOp::kPutContent;
      r.node.bytes[0] = static_cast<std::uint8_t>(i + 1);
      r.node.bytes[15] = 0xaa;
      r.parent.bytes[3] = static_cast<std::uint8_t>(i + 2);
      r.volume.bytes[7] = 0x42;
      r.content.bytes[0] = static_cast<std::uint8_t>(i + 3);
      r.content.bytes[19] = 0x7f;
      r.size_bytes = 1000 + 13 * i;
      r.transferred_bytes = type == RecordType::kStorageDone ? 1000 + 13 * i
                                                             : 0;
      r.set_extension(i % 2 == 0 ? "jpg" : "pdf");
      r.is_update = (i % 2) != 0;
      r.is_dir = false;
      r.deduplicated = (i % 3) == 0;
      r.failed = (i % 5) == 0;
      if (type == RecordType::kStorageDone)
        r.duration = static_cast<SimTime>(5000 + i);
      break;
    case RecordType::kRpc:
      r.rpc_op = RpcOp::kMakeContent;
      r.shard = ShardId{i % 10};
      r.service_time = static_cast<std::uint32_t>(300 + i);
      break;
    case RecordType::kFault:
      r.set_fault("outage#3:begin");
      r.shard = ShardId{2};
      r.duration = 2 * kMinute;
      break;
  }
  return r;
}

std::string csv_of(const std::vector<TraceRecord>& records) {
  std::string out;
  for (const TraceRecord& r : records) r.append_csv_row(out);
  return out;
}

class BinlogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("u1sim_binlogtest_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path only_file(std::string_view ext) const {
    for (const auto& e : std::filesystem::directory_iterator(dir_))
      if (e.path().extension() == ext) return e.path();
    ADD_FAILURE() << "no " << ext << " file in " << dir_;
    return {};
  }

  /// Writes one multi-record file covering every record type; returns
  /// the records in write order.
  std::vector<TraceRecord> write_sample_file(std::size_t stripe_records = 64) {
    std::vector<TraceRecord> records;
    for (std::size_t i = 0; i < 10; ++i)
      records.push_back(
          sample(i, static_cast<RecordType>(i % kRecordTypeCount)));
    BinaryLogfileWriter writer(dir_);
    writer.set_stripe_records(stripe_records);
    writer.append_batch(records.data(), records.size());
    EXPECT_EQ(writer.files_written(), 1u);
    writer.close();
    EXPECT_EQ(writer.files_written(), 0u);
    EXPECT_EQ(writer.records_written(), records.size());
    EXPECT_GT(writer.bytes_written(), 0u);
    return records;
  }

  std::filesystem::path dir_;
};

TEST_F(BinlogTest, RoundTripsEveryRecordType) {
  const auto records = write_sample_file();
  std::vector<TraceRecord> decoded;
  const ReadStats stats = read_binary_logfile(only_file(".u1b"), decoded);
  EXPECT_EQ(stats.files, 1u);
  EXPECT_EQ(stats.files_binary, 1u);
  EXPECT_EQ(stats.rows, records.size());
  EXPECT_EQ(stats.parsed, records.size());
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_GT(stats.bytes_read, 0u);
  // Field-for-field equality, including the original interleaved order,
  // via the canonical CSV serialization (TraceRecord has no operator==).
  EXPECT_EQ(csv_of(decoded), csv_of(records));
}

TEST_F(BinlogTest, MultiStripeFilesPreserveOrder) {
  const auto records = write_sample_file(/*stripe_records=*/3);
  std::vector<TraceRecord> decoded;
  const ReadStats stats = read_binary_logfile(only_file(".u1b"), decoded);
  EXPECT_EQ(stats.parsed, records.size());
  EXPECT_EQ(csv_of(decoded), csv_of(records));
}

TEST_F(BinlogTest, ShardsByMachineProcessDayLikeCsv) {
  BinaryLogfileWriter writer(dir_);
  writer.append(sample(0, RecordType::kStorage, 1, 1));
  writer.append(sample(1, RecordType::kStorage, 1, 1));  // same file
  writer.append(sample(0, RecordType::kStorage, 1, 2));  // other process
  writer.append(sample(0, RecordType::kStorage, 2, 1));  // other machine
  TraceRecord next_day = sample(0, RecordType::kStorage, 1, 1);
  next_day.t += kDay;
  writer.append(next_day);
  EXPECT_EQ(writer.files_written(), 4u);
  writer.close();
  std::size_t logs = 0, sidecars = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    EXPECT_TRUE(e.path().filename().string().starts_with("production-"));
    if (e.path().extension() == ".u1b") ++logs;
    if (e.path().extension() == ".u1s") ++sidecars;
  }
  EXPECT_EQ(logs, 4u);
  EXPECT_EQ(sidecars, 4u);
}

TEST_F(BinlogTest, PreTraceRecordsShareTheEpochFile) {
  // trace_date() maps every t < 0 to the epoch date, so the writer must
  // not open a second file (clobbering the first) for bootstrap records.
  BinaryLogfileWriter writer(dir_);
  TraceRecord pre = sample(0, RecordType::kStorage);
  pre.t = -3 * kDay;
  writer.append(pre);
  writer.append(sample(1, RecordType::kStorage));
  EXPECT_EQ(writer.files_written(), 1u);
  writer.close();
  std::vector<TraceRecord> decoded;
  const ReadStats stats = read_binary_logfile(only_file(".u1b"), decoded);
  EXPECT_EQ(stats.parsed, 2u);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].t, -3 * kDay);
}

TEST_F(BinlogTest, MixedFormatDirectoryMergesInTimestampOrder) {
  {
    LogfileWriter csv(dir_);
    csv.append(sample(2, RecordType::kStorage, 1, 1));  // t = 3 min
    BinaryLogfileWriter bin(dir_);
    bin.append(sample(0, RecordType::kStorage, 2, 1));  // t = 1 min
    bin.append(sample(4, RecordType::kStorage, 2, 1));  // t = 5 min
  }
  InMemorySink sink;
  const ReadStats stats = read_logfiles(dir_, sink);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.files_binary, 1u);
  EXPECT_EQ(stats.parsed, 3u);
  EXPECT_EQ(stats.malformed, 0u);
  ASSERT_EQ(sink.records().size(), 3u);
  EXPECT_EQ(sink.records()[0].t, 1 * kMinute);
  EXPECT_EQ(sink.records()[1].t, 3 * kMinute);
  EXPECT_EQ(sink.records()[2].t, 5 * kMinute);
  EXPECT_EQ(sink.records()[0].machine.value, 2u);
  EXPECT_EQ(sink.records()[1].machine.value, 1u);
}

TEST_F(BinlogTest, MergedReadDropsPreTraceRecordsForCsvParity) {
  // The merged read drops pre-window (t < 0) records, counted as
  // malformed, whichever format holds them, so analyzers see the same
  // stream per format. Raw per-file access still delivers everything in
  // both formats (convert depends on this for byte-faithful
  // transcoding): CSV prints t < 0 as its unsigned bit pattern and reads
  // it back signed.
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    SCOPED_TRACE(std::string(to_string(format)));
    std::filesystem::remove_all(dir_);
    {
      const auto writer = make_logfile_writer(dir_, format);
      TraceRecord pre = sample(0, RecordType::kStorage);
      pre.t = -kDay;
      writer->append(pre);
      writer->append(sample(1, RecordType::kStorage));
    }
    InMemorySink sink;
    const ReadStats stats = read_logfiles(dir_, sink);
    EXPECT_EQ(stats.rows, 2u);
    EXPECT_EQ(stats.parsed, 1u);
    EXPECT_EQ(stats.malformed, 1u);
    ASSERT_EQ(sink.records().size(), 1u);
    EXPECT_GT(sink.records()[0].t, 0);
    std::vector<TraceRecord> raw;
    const char* ext = format == TraceFormat::kCsv ? ".csv" : ".u1b";
    EXPECT_EQ(read_logfile(only_file(ext), raw).parsed, 2u);
    ASSERT_EQ(raw.size(), 2u);
    EXPECT_EQ(raw[0].t, -kDay);
  }
}

TEST(TraceFormatFromEnv, RejectsAnUnknownValue) {
  const char* saved = std::getenv("U1SIM_TRACE_FORMAT");
  const std::string restore = saved != nullptr ? saved : "";
  ::unsetenv("U1SIM_TRACE_FORMAT");
  EXPECT_EQ(trace_format_from_env(), TraceFormat::kCsv);
  ::setenv("U1SIM_TRACE_FORMAT", "bin", 1);
  EXPECT_EQ(trace_format_from_env(), TraceFormat::kBinary);
  ::setenv("U1SIM_TRACE_FORMAT", "parquet", 1);
  try {
    trace_format_from_env();
    ADD_FAILURE() << "a bad U1SIM_TRACE_FORMAT must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'parquet'"), std::string::npos) << what;
    EXPECT_NE(what.find("csv|bin"), std::string::npos) << what;
  }
  if (saved != nullptr) {
    ::setenv("U1SIM_TRACE_FORMAT", restore.c_str(), 1);
  } else {
    ::unsetenv("U1SIM_TRACE_FORMAT");
  }
}

TEST_F(BinlogTest, LabelFreeFileHasEmptySidecarPayload) {
  // No record carries a label, so the sidecar lists no strings and its
  // checksum covers zero bytes (an empty buffer whose data() may be
  // null — the UBSan probe for the digest's zero-length path).
  std::vector<TraceRecord> records;
  for (std::size_t i = 0; i < 3; ++i)
    records.push_back(sample(i, RecordType::kRpc));
  {
    BinaryLogfileWriter writer(dir_);
    writer.append_batch(records.data(), records.size());
  }
  EXPECT_EQ(std::filesystem::file_size(only_file(".u1s")), 48u);
  std::vector<TraceRecord> decoded;
  const ReadStats stats = read_binary_logfile(only_file(".u1b"), decoded);
  EXPECT_EQ(stats.parsed, records.size());
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(csv_of(decoded), csv_of(records));
}

TEST_F(BinlogTest, BadMagicRejected) {
  std::filesystem::create_directories(dir_);
  const auto path = dir_ / "production-bogus-1-20140111.u1b";
  std::ofstream(path, std::ios::binary) << "this is not a u1b file at all";
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(path, out);
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(stats.parsed, 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(BinlogTest, TruncatedHeaderRejected) {
  write_sample_file();
  const auto path = only_file(".u1b");
  std::filesystem::resize_file(path, 8);  // magic only
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(path, out);
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_TRUE(out.empty());
}

TEST_F(BinlogTest, UnsupportedVersionRejected) {
  write_sample_file();
  const auto path = only_file(".u1b");
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);  // version field
  const char v99 = 99;
  f.write(&v99, 1);
  f.close();
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(path, out);
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_TRUE(out.empty());
}

TEST_F(BinlogTest, TruncatedTailLosesOnlyOverlappedStripes) {
  const auto records = write_sample_file(/*stripe_records=*/4);  // 4+4+2
  const auto path = only_file(".u1b");
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);  // cut into last stripe
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(path, out);
  EXPECT_EQ(stats.rows, records.size());
  EXPECT_EQ(stats.parsed, 8u);  // the two intact stripes
  EXPECT_EQ(stats.malformed, 2u);
  EXPECT_EQ(stats.checksum_failures, 0u);  // truncation, not corruption
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(csv_of(out),
            csv_of({records.begin(), records.begin() + 8}));
}

TEST_F(BinlogTest, CorruptedChecksumRejectsWholeFile) {
  const auto records = write_sample_file();
  const auto path = only_file(".u1b");
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(64 + 30);  // somewhere in the payload
  const char junk = '\x5a';
  f.write(&junk, 1);
  f.close();
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(path, out);
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.malformed, records.size());
  EXPECT_EQ(stats.parsed, 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(BinlogTest, MissingSidecarRejectsWholeFile) {
  const auto records = write_sample_file();
  std::filesystem::remove(only_file(".u1s"));
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(only_file(".u1b"), out);
  EXPECT_EQ(stats.malformed, records.size());
  EXPECT_EQ(stats.parsed, 0u);
  EXPECT_TRUE(out.empty());
}

TEST_F(BinlogTest, CorruptedSidecarRejectsWholeFile) {
  const auto records = write_sample_file();
  const auto sidecar = only_file(".u1s");
  std::fstream f(sidecar, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(48);  // first payload byte (a symbol length prefix)
  const char junk = '\xff';
  f.write(&junk, 1);
  f.close();
  std::vector<TraceRecord> out;
  const ReadStats stats = read_binary_logfile(only_file(".u1b"), out);
  EXPECT_EQ(stats.malformed, records.size());
  EXPECT_EQ(stats.parsed, 0u);
}

TEST_F(BinlogTest, CorruptFileDoesNotPoisonTheDirectory) {
  // One good CSV file plus one corrupt binary file: the merge keeps the
  // good records and counts the bad file's in stats.
  {
    LogfileWriter csv(dir_);
    csv.append(sample(0, RecordType::kStorage, 1, 1));
    BinaryLogfileWriter bin(dir_);
    bin.append(sample(1, RecordType::kStorage, 2, 1));
  }
  const auto path = only_file(".u1b");
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(70);
  const char junk = '\x13';
  f.write(&junk, 1);
  f.close();
  InMemorySink sink;
  const ReadStats stats = read_logfiles(dir_, sink);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.parsed, 1u);
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.malformed, 1u);
  ASSERT_EQ(sink.records().size(), 1u);
  EXPECT_EQ(sink.records()[0].machine.value, 1u);
}

TEST_F(BinlogTest, ReadLogfileSniffsMagic) {
  // read_logfile dispatches on leading bytes, not extension.
  const auto records = write_sample_file();
  std::vector<TraceRecord> out;
  const ReadStats stats = read_logfile(only_file(".u1b"), out);
  EXPECT_EQ(stats.files_binary, 1u);
  EXPECT_EQ(stats.parsed, records.size());
}

TEST_F(BinlogTest, FormatSelection) {
  EXPECT_EQ(trace_format_from_string("csv"), TraceFormat::kCsv);
  EXPECT_EQ(trace_format_from_string("bin"), TraceFormat::kBinary);
  EXPECT_EQ(trace_format_from_string("binary"), TraceFormat::kBinary);
  EXPECT_EQ(trace_format_from_string("parquet"), std::nullopt);
  EXPECT_EQ(to_string(TraceFormat::kCsv), "csv");
  EXPECT_EQ(to_string(TraceFormat::kBinary), "bin");
  const auto csv = make_logfile_writer(dir_, TraceFormat::kCsv);
  const auto bin = make_logfile_writer(dir_, TraceFormat::kBinary);
  EXPECT_NE(dynamic_cast<LogfileWriter*>(csv.get()), nullptr);
  EXPECT_NE(dynamic_cast<BinaryLogfileWriter*>(bin.get()), nullptr);
}

}  // namespace
}  // namespace u1
