// The logfile writers' day rollover. When the first record of day d+1
// arrives, every file of an earlier day goes to the background finisher;
// records are not day-ordered, so a late record reopens its finished
// file, and the bytes must come out as if the file had never been
// finished. Both formats are checked against the same records grouped by
// file — the order `u1trace convert` feeds them — and the CSV files also
// against rows written in one go.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/binlog.hpp"
#include "trace/logfile.hpp"
#include "trace/packed.hpp"
#include "util/csv.hpp"

namespace u1 {
namespace {

namespace fs = std::filesystem;

/// Record `i` of (machine m, process p) on `day`, at `minute` of the day.
/// Types and labels vary with `i`, so stripes hold several segments and
/// file dictionaries grow as records arrive; a record given `ext` is a
/// storage record with that label.
TraceRecord make_record(std::uint64_t i, std::int64_t day, std::uint64_t m,
                        std::uint64_t p, std::int64_t minute,
                        const char* ext = nullptr) {
  TraceRecord r;
  r.t = day * kDay + minute * kMinute;
  r.machine = MachineId{m};
  r.process = ProcessId{p};
  r.user = UserId{1 + i % 13};
  r.session = SessionId{1 + i % 7};
  if (ext == nullptr && i % 3 == 2) {
    r.type = RecordType::kRpc;
    r.rpc_op = RpcOp::kGetNode;
    r.shard = ShardId{1 + i % 4};
    r.service_time = static_cast<std::uint32_t>(300 + i);
  } else {
    r.type = RecordType::kStorage;
    r.api_op = ApiOp::kPutContent;
    r.size_bytes = 100 + i;
    r.node.bytes[0] = static_cast<std::uint8_t>(i + 1);
    static const char* const kExts[] = {"jpg", "pdf", "mp3", "txt"};
    r.set_extension(ext != nullptr ? ext : kExts[i % 4]);
  }
  return r;
}

/// Days 0, 1 and 2 in order, then late day-0 and day-1 records. With
/// three records per stripe, the late records reach files whose last
/// stripe is partial (m1p1 days 0 and 1, m2p1 day 0) and full (m1p2
/// day 0); one, of day 1, arrives while day 1 is still with the
/// finisher, several bring labels the file has not seen (one ahead of a
/// label the reopened stripe had introduced), and one starts a file of
/// day 0 that had no record before.
std::vector<TraceRecord> late_records() {
  std::vector<TraceRecord> out;
  std::uint64_t i = 0;
  const auto add = [&](std::int64_t day, std::uint64_t m, std::uint64_t p,
                       std::int64_t minute, const char* ext = nullptr) {
    out.push_back(make_record(i++, day, m, p, minute, ext));
  };
  for (int n = 0; n < 4; ++n) add(0, 1, 1, 10 + n);  // 3 + 1 records
  for (int n = 0; n < 6; ++n) add(0, 1, 2, 20 + n);  // 3 + 3
  add(0, 2, 1, 30);
  add(0, 2, 1, 31, "done0");  // 2; a label only the last stripe uses,
  out.back().type = RecordType::kStorageDone;  // in a later segment
  for (int n = 0; n < 5; ++n) add(1, 1, 1, 10 + n);  // 3 + 2
  add(1, 2, 1, 40);
  add(2, 1, 1, 5);  // day 1 goes to the finisher
  add(1, 1, 1, 60, "late1");  // day 1 is still with the finisher
  add(2, 2, 1, 6);
  add(0, 1, 1, 70, "late0");  // partial last stripe, a new label
  add(0, 1, 1, 71);           // fills the reopened stripe
  add(0, 1, 2, 72, "late0");  // full last stripe: a new stripe
  add(0, 2, 1, 73, "late2");  // its segment comes before done0's
  add(0, 3, 1, 74);           // a day-0 file that had no record yet
  add(1, 1, 1, 75);
  add(2, 1, 1, 6);
  add(3, 1, 1, 1);  // days 0-2 go to the finisher again
  add(0, 1, 1, 80);  // after a full reopened stripe: a new stripe
  add(1, 1, 1, 81, "late3");
  return out;
}

/// `records` grouped by file in file-name order, each file's records in
/// arrival order.
std::vector<TraceRecord> grouped_by_file(
    const std::vector<TraceRecord>& records) {
  std::vector<TraceRecord> out = records;
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.logname() < b.logname();
                   });
  return out;
}

/// The CSV files as written in one go, keyed like dir_contents().
std::map<std::string, std::string> csv_reference(
    const std::vector<TraceRecord>& records, const std::string& prefix) {
  std::map<std::string, std::string> out;
  for (const TraceRecord& r : records) {
    auto [it, fresh] = out.try_emplace(prefix + r.logname() + ".csv");
    if (fresh) write_csv_row(it->second, TraceRecord::csv_header());
    write_csv_row(it->second, r.to_csv());
  }
  return out;
}

std::map<std::string, std::string> dir_contents(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    out[fs::relative(e.path(), dir).string()] = {
        std::istreambuf_iterator<char>(in), {}};
  }
  return out;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& [name, bytes] : dir_contents(dir)) total += bytes.size();
  return total;
}

/// Writes `records` in both formats under `dir`, three records per
/// stripe; returns the two writers' bytes_written().
std::pair<std::uint64_t, std::uint64_t> write_both(
    const std::vector<TraceRecord>& records, const fs::path& dir) {
  BinaryLogfileWriter bin(dir / "bin");
  bin.set_stripe_records(3);
  LogfileWriter csv(dir / "csv");
  bin.append_batch(records.data(), records.size());
  csv.append_batch(records.data(), records.size());
  bin.close();
  csv.close();
  return {bin.bytes_written(), csv.bytes_written()};
}

class WriterRollover : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("u1_rollover_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(WriterRollover, LateRecordsMatchRecordsGroupedByFile) {
  const std::vector<TraceRecord> records = late_records();
  write_both(records, dir_ / "late");
  write_both(grouped_by_file(records), dir_ / "grouped");

  const auto late = dir_contents(dir_ / "late");
  // Nine files, each a .u1b, a .u1s and a .csv.
  ASSERT_EQ(late.size(), 3u * 9u);
  EXPECT_TRUE(late == dir_contents(dir_ / "grouped"));
  for (const auto& [name, text] : csv_reference(records, "csv/")) {
    const auto it = late.find(name);
    ASSERT_NE(it, late.end()) << name;
    EXPECT_TRUE(it->second == text) << name;
  }
  // Every file reads back whole, in its arrival order.
  for (const auto& e : fs::directory_iterator(dir_ / "late" / "bin")) {
    if (e.path().extension() != kBinaryLogfileExt) continue;
    std::vector<TraceRecord> decoded;
    const ReadStats stats = read_binary_logfile(e.path(), decoded);
    EXPECT_EQ(stats.malformed, 0u) << e.path();
    std::vector<TraceRecord> expected;
    for (const TraceRecord& r : records)
      if (r.logname() == e.path().stem().string()) expected.push_back(r);
    ASSERT_EQ(decoded.size(), expected.size()) << e.path();
    for (std::size_t k = 0; k < decoded.size(); ++k)
      EXPECT_EQ(decoded[k].to_csv(), expected[k].to_csv()) << e.path();
  }
}

TEST_F(WriterRollover, DayIsCompleteWhenTheDayAfterNextStarts) {
  std::vector<TraceRecord> day0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const auto minute = static_cast<std::int64_t>(i);
    day0.push_back(make_record(i, 0, 1 + i % 2, 1, minute));
  }
  BinaryLogfileWriter bin(dir_ / "bin");
  bin.set_stripe_records(3);
  LogfileWriter csv(dir_ / "csv");
  for (LogfileSink* writer : {static_cast<LogfileSink*>(&bin),
                              static_cast<LogfileSink*>(&csv)}) {
    writer->append_batch(day0.data(), day0.size());
    writer->append(make_record(20, 1, 1, 1, 0));
    writer->append(make_record(21, 2, 1, 1, 0));
    // Files started since the last close(), finished ones included.
    EXPECT_EQ(writer->files_written(), 4u);
  }

  for (const TraceRecord& first : {day0[0], day0[1]}) {
    const fs::path stem = dir_ / "bin" / first.logname();
    std::vector<TraceRecord> decoded;
    const ReadStats stats =
        read_binary_logfile(fs::path(stem) += ".u1b", decoded);
    EXPECT_TRUE(fs::exists(fs::path(stem) += ".u1s")) << stem;
    EXPECT_EQ(stats.rows, 10u) << stem;  // header patched
    EXPECT_EQ(stats.parsed, 10u) << stem;
    EXPECT_EQ(stats.malformed, 0u) << stem;
    EXPECT_EQ(stats.checksum_failures, 0u) << stem;
  }
  const auto on_disk = dir_contents(dir_ / "csv");
  for (const auto& [name, text] : csv_reference(day0, "")) {
    const auto it = on_disk.find(name);
    ASSERT_NE(it, on_disk.end()) << name;
    EXPECT_TRUE(it->second == text) << name;
  }

  bin.close();
  csv.close();
  EXPECT_EQ(bin.files_written(), 0u);
  EXPECT_EQ(csv.files_written(), 0u);
  EXPECT_EQ(bin.records_written(), 22u);
  EXPECT_EQ(csv.records_written(), 22u);
}

TEST_F(WriterRollover, BytesWrittenCountReopenedFilesOnce) {
  const auto [bin_bytes, csv_bytes] = write_both(late_records(), dir_);
  EXPECT_EQ(bin_bytes, dir_bytes(dir_ / "bin"));
  EXPECT_EQ(csv_bytes, dir_bytes(dir_ / "csv"));
}

TEST_F(WriterRollover, BufferedBytesCountUnfinishedDays) {
  // Three records per stripe: a file holds the packed rows of its open
  // stripe, and a day keeps counting while its finisher runs.
  BinaryLogfileWriter bin(dir_ / "bin");
  bin.set_stripe_records(3);
  std::vector<TraceRecord> r;
  const auto add = [&](std::int64_t day, std::uint64_t m) {
    const std::uint64_t i = r.size();
    r.push_back(make_record(i, day, m, 1, static_cast<std::int64_t>(i)));
    bin.append(r.back());
  };
  // The bytes of one open stripe holding `rows`.
  const auto held = [](std::initializer_list<TraceRecord> rows) {
    PackedRows packed;
    for (const TraceRecord& row : rows) packed.push_back(row);
    return std::uint64_t{packed.bytes()};
  };
  add(0, 1);
  add(0, 1);
  add(0, 2);
  add(0, 2);  // 2 + 2 rows held
  add(0, 2);  // m2's full stripe is written: 2 held
  add(0, 2);  // 2 + 1 held
  const std::uint64_t four = held({r[0], r[1]}) + held({r[2], r[3]});
  EXPECT_EQ(bin.buffered_bytes_max(), four);
  add(1, 1);  // day 0 goes to the finisher: 3 + 1 held
  add(1, 1);  // 3 + 2 held
  const std::uint64_t five =
      held({r[0], r[1]}) + held({r[5]}) + held({r[6], r[7]});
  EXPECT_EQ(bin.buffered_bytes_max(), std::max(four, five));
  add(2, 1);  // day 0 is joined, day 1 goes: 2 + 1 held
  bin.close();
  EXPECT_EQ(bin.buffered_bytes_max(), std::max(four, five));
  // A row here is a fraction of the record it packs.
  EXPECT_LT(bin.buffered_bytes_max(), 5 * sizeof(TraceRecord) / 2);
}

TEST_F(WriterRollover, LateRecordReopensADefaultSizeStripe) {
  // At the default stripe size, reopen() decodes a file's last stripe
  // and packs it back into the file's open stripe.
  const std::uint64_t n = BinaryLogfileWriter::kStripeRecords + 1000;
  std::vector<TraceRecord> records;
  for (std::uint64_t i = 0; i < n; ++i)  // one full stripe, then 1000
    records.push_back(
        make_record(i, 0, 1, 1, static_cast<std::int64_t>(i % 1440)));
  records.push_back(make_record(n, 0, 2, 1, 1));
  records.push_back(make_record(n + 1, 1, 1, 1, 0));
  records.push_back(make_record(n + 2, 2, 1, 1, 0));  // day 0 is finished
  records.push_back(make_record(n + 3, 0, 1, 1, 1439, "late0"));
  records.push_back(make_record(n + 4, 0, 1, 1, 1439));
  records.push_back(make_record(n + 5, 0, 2, 1, 2, "late1"));

  for (const auto& [name, in] :
       {std::pair{"late", records}, std::pair{"grouped",
                                              grouped_by_file(records)}}) {
    BinaryLogfileWriter bin(dir_ / name);
    bin.append_batch(in.data(), in.size());
    bin.close();
  }
  const auto late = dir_contents(dir_ / "late");
  ASSERT_EQ(late.size(), 2u * 4u);
  EXPECT_TRUE(late == dir_contents(dir_ / "grouped"));

  const fs::path day0 =
      dir_ / "late" / (records.front().logname() + ".u1b");
  std::vector<TraceRecord> decoded;
  const ReadStats stats = read_binary_logfile(day0, decoded);
  EXPECT_EQ(stats.malformed, 0u);
  std::vector<TraceRecord> expected;
  for (const TraceRecord& r : records)
    if (r.logname() == records.front().logname()) expected.push_back(r);
  ASSERT_EQ(decoded.size(), n + 2);
  ASSERT_EQ(decoded.size(), expected.size());
  for (std::size_t k = 0; k < decoded.size(); ++k)
    ASSERT_EQ(decoded[k].to_csv(), expected[k].to_csv()) << k;
}

TEST_F(WriterRollover, LateRecordsFillAReopenedDefaultSizeStripe) {
  // A day-0 file is finished two records short of its second full
  // stripe. Its late records reopen that stripe, fill it, which encodes
  // it from the re-packed rows, and start a third; the bytes match the
  // same records written in file order.
  const std::uint64_t k = BinaryLogfileWriter::kStripeRecords;
  std::vector<TraceRecord> records;
  std::uint64_t i = 0;
  for (; i < 2 * k - 2; ++i)
    records.push_back(
        make_record(i, 0, 1, 1, static_cast<std::int64_t>(i % 1200)));
  records.push_back(make_record(i++, 1, 1, 1, 0));
  records.push_back(make_record(i++, 2, 1, 1, 0));  // day 0 is finished
  for (int late = 0; late < 5; ++late)
    records.push_back(make_record(i++, 0, 1, 1, 1300 + late,
                                  late == 3 ? "late" : nullptr));
  records.push_back(make_record(i++, 2, 1, 1, 1));

  for (const auto& [name, in] :
       {std::pair{"late", records}, std::pair{"grouped",
                                              grouped_by_file(records)}}) {
    BinaryLogfileWriter bin(dir_ / name);
    bin.append_batch(in.data(), in.size());
    bin.close();
  }
  const auto late = dir_contents(dir_ / "late");
  ASSERT_EQ(late.size(), 2u * 3u);
  EXPECT_TRUE(late == dir_contents(dir_ / "grouped"));

  std::vector<TraceRecord> decoded;
  const ReadStats stats = read_binary_logfile(
      dir_ / "late" / (records.front().logname() + ".u1b"), decoded);
  EXPECT_EQ(stats.malformed, 0u);
  ASSERT_EQ(decoded.size(), 2 * k + 3);
  EXPECT_EQ(decoded.back().to_csv(), records[2 * k + 4].to_csv());
}

TEST_F(WriterRollover, DestructorWithoutCloseJoinsTheFinisher) {
  const std::vector<TraceRecord> records = late_records();
  {
    BinaryLogfileWriter bin(dir_ / "dropped");
    bin.set_stripe_records(3);
    bin.append_batch(records.data(), records.size());
  }
  write_both(records, dir_ / "closed");
  EXPECT_TRUE(dir_contents(dir_ / "dropped") ==
              dir_contents(dir_ / "closed" / "bin"));
}

}  // namespace
}  // namespace u1
