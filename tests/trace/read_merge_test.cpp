// read_logfiles equivalence: the day-by-day, parallel-decode, k-way-merge
// reader must deliver exactly what the plain reader it replaced delivered
// — every logfile concatenated in name order, pre-window (t < 0) records
// dropped, then one stable sort by t. Each case builds a directory, reads
// it both ways and compares the records (serialized row and label id) and
// every ReadStats field the reference computes. The reference lives here,
// in the test, on purpose: it is the specification the streaming reader
// is held to.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "trace/binlog.hpp"
#include "trace/logfile.hpp"
#include "trace/sink.hpp"
#include "trace/symbols.hpp"
#include "util/sha1.hpp"

namespace u1 {
namespace {

namespace fs = std::filesystem;

/// The reader read_logfiles replaced: concatenate in name order, drop
/// t < 0 (counted malformed), stable sort by t.
ReadStats reference_read(const fs::path& dir, std::vector<TraceRecord>& all) {
  std::vector<fs::path> paths;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && name.starts_with("production-") &&
        e.path().extension() != kSymbolSidecarExt)
      paths.push_back(e.path());
  }
  std::sort(paths.begin(), paths.end());
  ReadStats stats;
  for (const auto& p : paths) stats.add(read_logfile(p, all));
  const auto kept = std::remove_if(all.begin(), all.end(),
                                   [](const TraceRecord& r) { return r.t < 0; });
  const auto dropped = static_cast<std::uint64_t>(all.end() - kept);
  all.erase(kept, all.end());
  stats.parsed -= dropped;
  stats.malformed += dropped;
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.t < b.t;
                   });
  return stats;
}

/// Collects what read_logfiles delivers, remembering each batch size.
class BatchSink final : public TraceSink {
 public:
  void append(const TraceRecord& record) override {
    append_batch(&record, 1);
  }
  void append_batch(const TraceRecord* records, std::size_t count) override {
    batches.push_back(count);
    this->records.insert(this->records.end(), records, records + count);
  }
  std::vector<TraceRecord> records;
  std::vector<std::size_t> batches;
};

std::string row_of(const TraceRecord& r) {
  std::string out;
  r.append_csv_row(out);
  return out;
}

void expect_stats_equal(const ReadStats& got, const ReadStats& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.parsed, want.parsed);
  EXPECT_EQ(got.malformed, want.malformed);
  EXPECT_EQ(got.files, want.files);
  EXPECT_EQ(got.files_binary, want.files_binary);
  EXPECT_EQ(got.bytes_read, want.bytes_read);
  EXPECT_EQ(got.checksum_failures, want.checksum_failures);
}

/// Reads `dir` both ways and requires identical output; returns the
/// streaming reader's sink for further checks.
BatchSink expect_equivalent(const fs::path& dir) {
  std::vector<TraceRecord> want;
  const ReadStats want_stats = reference_read(dir, want);
  BatchSink got;
  const ReadStats got_stats = read_logfiles(dir, got);
  expect_stats_equal(got_stats, want_stats);
  EXPECT_EQ(got.records.size(), want.size());
  const std::size_t n = std::min(got.records.size(), want.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n && mismatches < 5; ++i) {
    if (row_of(got.records[i]) != row_of(want[i]) ||
        got.records[i].label != want[i].label) {
      ADD_FAILURE() << "record " << i << " differs:\n  got  "
                    << row_of(got.records[i]) << "  want "
                    << row_of(want[i]);
      ++mismatches;
    }
  }
  return got;
}

/// A record of a type picked by `i`, on (machine, process), at t.
TraceRecord make_record(SimTime t, std::uint64_t machine,
                        std::uint64_t process, std::uint64_t i,
                        std::string_view label = {}) {
  TraceRecord r;
  r.t = t;
  r.machine = MachineId{machine};
  r.process = ProcessId{process};
  r.user = UserId{1000 + i};
  r.session = SessionId{2000 + i};
  switch (i % 3) {
    case 0:
      r.type = RecordType::kStorage;
      r.api_op = ApiOp::kPutContent;
      r.node.bytes[0] = static_cast<std::uint8_t>(i);
      r.size_bytes = 100 + i;
      r.set_extension(label.empty() ? (i % 2 ? "jpg" : "pdf") : label);
      break;
    case 1:
      r.type = RecordType::kRpc;
      r.rpc_op = RpcOp::kGetNode;
      r.shard = ShardId{1 + i % 10};
      r.service_time = static_cast<std::uint32_t>(300 + i);
      break;
    default:
      r.type = RecordType::kSession;
      r.session_event = SessionEvent::kOpen;
      r.duration = static_cast<SimTime>(i);
      break;
  }
  return r;
}

/// `count` records over machines 1..3 x processes 1..4 and two days,
/// timestamps drawn at random from `instants` evenly spaced ones (so
/// every file is out of order; few instants make many ties), with
/// `prewindow` of them moved before t = 0.
std::vector<TraceRecord> scattered(std::size_t count, std::uint64_t seed,
                                   std::size_t prewindow = 0,
                                   std::uint64_t instants = 2 * kDay) {
  std::mt19937_64 rng(seed);
  std::vector<TraceRecord> out;
  out.reserve(count);
  const auto step = static_cast<SimTime>(2 * kDay / instants);
  for (std::size_t i = 0; i < count; ++i) {
    SimTime t = static_cast<SimTime>(rng() % instants) * step;
    if (i < prewindow) t = -1 - static_cast<SimTime>(rng() % kDay);
    out.push_back(make_record(t, 1 + rng() % 3, 1 + rng() % 4, i));
  }
  return out;
}

class ReadMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("u1sim_readmerge_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write(const std::vector<TraceRecord>& records, TraceFormat format,
             std::size_t stripe_records = 8192) {
    auto writer = make_logfile_writer(dir_, format);
    if (auto* bin = dynamic_cast<BinaryLogfileWriter*>(writer.get()))
      bin->set_stripe_records(stripe_records);
    writer->append_batch(records.data(), records.size());
    writer->close();
  }

  /// Runs `body` in a forked child and expects it to succeed. Labels the
  /// child interns never reach this process's symbol table, so files it
  /// writes hold labels that are new to the reader.
  static void in_child(const std::function<void()>& body) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      try {
        body();
      } catch (...) {
        ::_exit(1);
      }
      ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  std::vector<fs::path> files_with(std::string_view ext) const {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir_))
      if (e.path().extension() == ext) out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
  }

  fs::path dir_;
};

TEST_F(ReadMergeTest, FilesOutOfOrderInternally) {
  // 100 instants over ~250 records per file: each file is out of order
  // and holds ties of its own, which its sort must keep in file order.
  write(scattered(3000, 1, 0, 100), TraceFormat::kBinary);
  const BatchSink got = expect_equivalent(dir_);
  EXPECT_EQ(got.records.size(), 3000u);
  EXPECT_TRUE(std::is_sorted(
      got.records.begin(), got.records.end(),
      [](const TraceRecord& a, const TraceRecord& b) { return a.t < b.t; }));
}

TEST_F(ReadMergeTest, EqualTimestampsAcrossFilesTieInNameOrder) {
  // Every file holds the same three instants, several records each.
  std::vector<TraceRecord> records;
  std::uint64_t i = 0;
  for (std::uint64_t machine = 1; machine <= 3; ++machine)
    for (std::uint64_t process = 1; process <= 4; ++process)
      for (const SimTime t : {3 * kHour, kHour, 2 * kHour, kHour})
        records.push_back(make_record(t, machine, process, i++));
  write(records, TraceFormat::kBinary);
  const BatchSink got = expect_equivalent(dir_);
  ASSERT_EQ(got.records.size(), records.size());
  // Within one instant, records arrive file by file in name order.
  for (std::size_t k = 1; k < got.records.size(); ++k) {
    const TraceRecord& a = got.records[k - 1];
    const TraceRecord& b = got.records[k];
    if (a.t == b.t) {
      EXPECT_LE(a.logname(), b.logname()) << "at " << k;
    }
  }
}

TEST_F(ReadMergeTest, MixedCsvAndBinaryDirectory) {
  const auto records = scattered(2000, 2);
  std::vector<TraceRecord> as_csv, as_bin;
  for (const TraceRecord& r : records)
    (r.process.value % 2 ? as_csv : as_bin).push_back(r);
  write(as_csv, TraceFormat::kCsv);
  write(as_bin, TraceFormat::kBinary);
  ASSERT_FALSE(files_with(".csv").empty());
  ASSERT_FALSE(files_with(".u1b").empty());
  const BatchSink got = expect_equivalent(dir_);
  EXPECT_EQ(got.records.size(), records.size());
}

TEST_F(ReadMergeTest, PreWindowRecordsDroppedAndCountedMalformed) {
  write(scattered(1500, 3, /*prewindow=*/200), TraceFormat::kBinary);
  BatchSink got;
  const ReadStats stats = read_logfiles(dir_, got);
  EXPECT_EQ(stats.parsed, 1300u);
  EXPECT_EQ(stats.malformed, 200u);
  for (const TraceRecord& r : got.records) EXPECT_GE(r.t, 0);
  expect_equivalent(dir_);
}

TEST_F(ReadMergeTest, CorruptAndTruncatedFiles) {
  write(scattered(4000, 4), TraceFormat::kBinary, /*stripe_records=*/64);
  const auto logs = files_with(".u1b");
  ASSERT_GE(logs.size(), 2u);
  {  // flip one payload byte: the whole file fails its digest
    std::fstream f(logs[0], std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(100);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(100);
    f.write(&c, 1);
  }
  // Cut into the last stripe: the leading stripes still decode.
  fs::resize_file(logs[1], fs::file_size(logs[1]) - 7);
  BatchSink got;
  const ReadStats stats = read_logfiles(dir_, got);
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_GT(stats.malformed, 64u);
  EXPECT_GT(stats.parsed, 0u);
  expect_equivalent(dir_);
}

TEST_F(ReadMergeTest, LargeReadArrivesInSeveralBatches) {
  write(scattered(150000, 5, /*prewindow=*/10), TraceFormat::kBinary);
  const BatchSink got = expect_equivalent(dir_);
  ASSERT_EQ(got.records.size(), 150000u - 10u);
  ASSERT_GE(got.batches.size(), 3u);
  for (const std::size_t b : got.batches) {
    EXPECT_GT(b, 0u);
    EXPECT_LE(b, BinaryLogfileWriter::kStripeRecords);
  }
}

TEST_F(ReadMergeTest, StripesStraddlingTheWindowStartDropOnlyPreWindowRows) {
  // Files written in t order, as the engine writes them: each day-0 file
  // opens with a run of pre-window rows whose end falls inside a stripe
  // (stripes of 64 records), then in-window rows over several stripes.
  std::vector<TraceRecord> records;
  std::uint64_t i = 0;
  for (SimTime t = -kDay; t < 2 * kDay; t += 37 * kSecond, ++i)
    records.push_back(make_record(t, 1 + i % 2, 1 + i % 3, i));
  const auto prewindow = static_cast<std::uint64_t>(std::count_if(
      records.begin(), records.end(),
      [](const TraceRecord& r) { return r.t < 0; }));
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    SCOPED_TRACE(std::string(to_string(format)));
    fs::remove_all(dir_);
    write(records, format, /*stripe_records=*/64);
    const BatchSink got = expect_equivalent(dir_);
    ASSERT_EQ(got.records.size(), records.size() - prewindow);
    BatchSink again;
    const ReadStats stats = read_logfiles(dir_, again);
    EXPECT_EQ(stats.malformed, prewindow);
    EXPECT_EQ(stats.parsed, records.size() - prewindow);
  }
}

TEST_F(ReadMergeTest, LateRecordInALaterStripeSortsTheWholeFile) {
  // One file of 10000 records in t order but for one late record in
  // its ninth thousand: past the first 8192-row stripe (CSV) or many
  // 64-record stripes (.u1b), so it arrives after rows were packed.
  // Pre-window rows lead the file and must still be dropped.
  std::vector<TraceRecord> records;
  for (std::uint64_t i = 0; i < 10000; ++i)
    records.push_back(make_record(
        (static_cast<SimTime>(i) - 500) * kSecond, 1, 1, i));
  records[9000].t = 700 * kSecond;  // behind the rows around it
  records[9001].t = records[9002].t;  // a tie with the row after it
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    SCOPED_TRACE(std::string(to_string(format)));
    fs::remove_all(dir_);
    write(records, format, /*stripe_records=*/64);
    ASSERT_EQ(files_with(format == TraceFormat::kCsv ? ".csv" : ".u1b")
                  .size(),
              1u);
    const BatchSink got = expect_equivalent(dir_);
    ASSERT_EQ(got.records.size(), 10000u - 500u);
    EXPECT_TRUE(std::is_sorted(
        got.records.begin(), got.records.end(),
        [](const TraceRecord& a, const TraceRecord& b) { return a.t < b.t; }));
  }
}

TEST_F(ReadMergeTest, HeldBytesAreAtMostHalfTheRecordsHeld) {
  // The days are held as packed rows: the bytes they take stay under
  // half of what the same records take as TraceRecords, and the record
  // count is the one the day pipeline always reported (days 0 and 1
  // together).
  std::vector<TraceRecord> records;
  const std::size_t per_day[] = {3000, 20, 2400};
  std::uint64_t i = 0;
  for (SimTime day = 0; day < 3; ++day)
    for (std::size_t k = 0; k < per_day[day]; ++k, ++i)
      records.push_back(
          make_record(day * kDay + static_cast<SimTime>(i % 5000) * kSecond,
                      1 + i % 3, 1 + i % 4, i));
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    SCOPED_TRACE(std::string(to_string(format)));
    fs::remove_all(dir_);
    write(records, format);
    BatchSink got;
    const ReadStats stats = read_logfiles(dir_, got);
    EXPECT_EQ(stats.records_held_max, per_day[0] + per_day[1]);
    EXPECT_GT(stats.held_bytes_max, 0u);
    EXPECT_LE(stats.held_bytes_max,
              stats.records_held_max * sizeof(TraceRecord) / 2);
  }
}

TEST_F(ReadMergeTest, EmptyDirectoryDeliversNothing) {
  const BatchSink got = expect_equivalent(dir_);
  EXPECT_TRUE(got.records.empty());
  EXPECT_TRUE(got.batches.empty());
}

TEST_F(ReadMergeTest, GlobalSymbolIdsFollowFileNameOrder) {
  // The labels must be new to this process's symbol table, so a forked
  // child writes the files: its interning never reaches the parent.
  // Sixteen binary files (machines 1-4 x processes 1-4) and one CSV file
  // (machine 5). Binary file f uses labels 2f..2f+3, so it shares two
  // with the file before it; the CSV file uses labels 100..102.
  const std::string tag = "symorder" + std::to_string(::getpid()) + "_";
  const auto label = [&](std::uint64_t k) { return tag + std::to_string(k); };
  struct File {
    std::string logname;
    std::vector<std::string> labels;  // in first-use order
  };
  std::vector<File> files;
  for (std::uint64_t machine = 1; machine <= 4; ++machine)
    for (std::uint64_t process = 1; process <= 4; ++process) {
      const std::uint64_t f = (machine - 1) * 4 + (process - 1);
      files.push_back({make_record(0, machine, process, 1).logname(),
                       {label(2 * f), label(2 * f + 1), label(2 * f + 2),
                        label(2 * f + 3)}});
    }
  files.push_back({make_record(0, 5, 1, 1).logname(),
                   {label(100), label(101), label(102)}});

  in_child([&] {
    std::vector<TraceRecord> bin_records, csv_records;
    std::uint64_t i = 0;
    for (std::size_t f = 0; f < files.size(); ++f) {
      const std::uint64_t machine = f < 16 ? 1 + f / 4 : 5;
      const std::uint64_t process = f < 16 ? 1 + f % 4 : 1;
      auto& out = f < 16 ? bin_records : csv_records;
      // Falling timestamps: first use order is not timestamp order.
      for (std::size_t k = 0; k < files[f].labels.size(); ++k)
        out.push_back(make_record(static_cast<SimTime>(100 - k) * kSecond,
                                  machine, process, 3 * i++,
                                  files[f].labels[k]));
    }
    write(bin_records, TraceFormat::kBinary);
    write(csv_records, TraceFormat::kCsv);
  });
  if (HasFatalFailure()) return;
  ASSERT_EQ(files_with(".u1b").size(), 16u);
  ASSERT_EQ(files_with(".csv").size(), 1u);

  // A file-after-file read in name order meets each label first where
  // its earliest file (by name) lists it.
  std::sort(files.begin(), files.end(),
            [](const File& a, const File& b) { return a.logname < b.logname; });
  std::vector<std::string> first_sight;
  for (const File& file : files)
    for (const std::string& s : file.labels)
      if (std::find(first_sight.begin(), first_sight.end(), s) ==
          first_sight.end())
        first_sight.push_back(s);

  const std::size_t base = global_symbols().size();
  BatchSink got;
  const ReadStats stats = read_logfiles(dir_, got);
  EXPECT_EQ(stats.parsed, 16u * 4u + 3u);
  ASSERT_EQ(global_symbols().size(), base + first_sight.size());
  for (std::size_t k = 0; k < first_sight.size(); ++k)
    EXPECT_EQ(global_symbols().resolve(static_cast<Symbol>(base + k)),
              first_sight[k])
        << "id " << base + k;
  expect_equivalent(dir_);
}


/// One storage record per label, a file per label list on machines
/// 1..n (process 1): the file that comes j-th in name order uses
/// labels[j], in order.
std::vector<TraceRecord> labelled_files(
    const std::vector<std::vector<std::string>>& labels) {
  std::vector<std::uint64_t> machines;
  for (std::uint64_t m = 1; m <= labels.size(); ++m) machines.push_back(m);
  std::sort(machines.begin(), machines.end(),
            [](std::uint64_t a, std::uint64_t b) {
              return make_record(0, a, 1, 0).logname() <
                     make_record(0, b, 1, 0).logname();
            });
  std::vector<TraceRecord> out;
  std::uint64_t i = 0;
  for (std::size_t j = 0; j < labels.size(); ++j)
    for (std::size_t k = 0; k < labels[j].size(); ++k)
      out.push_back(make_record(static_cast<SimTime>(100 + k) * kSecond,
                                machines[j], 1, 3 * i++, labels[j][k]));
  return out;
}

/// Expects the symbols interned since `base` to be exactly `want`, in
/// order.
void expect_new_symbols(std::size_t base,
                        const std::vector<std::string>& want) {
  ASSERT_EQ(global_symbols().size(), base + want.size());
  for (std::size_t k = 0; k < want.size(); ++k)
    EXPECT_EQ(global_symbols().resolve(static_cast<Symbol>(base + k)),
              want[k])
        << "id " << base + k;
}

TEST_F(ReadMergeTest, FileFailingItsDigestInternsNoneOfItsLabels) {
  // Three binary files. The middle one in name order fails its digest: its own label "b" must never be interned, and
  // "a", which it shares with the last file, gets its id there.
  const std::string tag = "digest" + std::to_string(::getpid()) + "_";
  const std::vector<std::vector<std::string>> labels = {
      {tag + "p0", tag + "p1"}, {tag + "a", tag + "b"}, {tag + "q0", tag + "a"}};
  in_child([&] { write(labelled_files(labels), TraceFormat::kBinary); });
  if (HasFatalFailure()) return;
  const auto logs = files_with(".u1b");
  ASSERT_EQ(logs.size(), 3u);
  ASSERT_GT(fs::file_size(logs[1]), 80u);
  {  // flip one payload byte of the middle file
    std::fstream f(logs[1], std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(80);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(80);
    f.write(&c, 1);
  }

  const std::size_t base = global_symbols().size();
  BatchSink got;
  const ReadStats stats = read_logfiles(dir_, got);
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.parsed, 4u);
  expect_new_symbols(base, {tag + "p0", tag + "p1", tag + "q0", tag + "a"});
  expect_equivalent(dir_);
}

TEST_F(ReadMergeTest, SidecarFailingPartwayInternsItsPrefix) {
  // The middle file's sidecar checksums but lists "a", "b", then a
  // zero-length string, then "c": the record labelled with an id no
  // table assigned resolves to "" when the writer lists it. A read
  // interns "a" and "b", rejects the file at the empty string, and never
  // reaches "c" — which the last file then interns in its own place.
  const std::string tag = "prefix" + std::to_string(::getpid()) + "_";
  const std::vector<std::vector<std::string>> labels = {
      {tag + "p0"}, {tag + "a", tag + "b", tag + "x", tag + "c"},
      {tag + "q0", tag + "c"}};
  in_child([&] {
    std::vector<TraceRecord> records = labelled_files(labels);
    records[3].label = std::numeric_limits<Symbol>::max();  // "x"
    write(records, TraceFormat::kBinary);
  });
  if (HasFatalFailure()) return;
  ASSERT_EQ(files_with(".u1b").size(), 3u);

  const std::size_t base = global_symbols().size();
  BatchSink got;
  const ReadStats stats = read_logfiles(dir_, got);
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_EQ(stats.parsed, 3u);
  EXPECT_EQ(stats.malformed, 4u);
  expect_new_symbols(base,
                     {tag + "p0", tag + "a", tag + "b", tag + "q0", tag + "c"});
  expect_equivalent(dir_);
}

TEST_F(ReadMergeTest, GlobalSymbolIdsFollowDayThenNameOrder) {
  // Machine `a` sorts before machine `b` by name. a's day-0 and day-1
  // files are binary, b's day-0 file is CSV. In name order a's day-1 file
  // comes before b's day-0 file; in (day, name) order it comes after, and
  // the read interns in (day, name) order: a later day's sidecar is not
  // read before an earlier day is delivered.
  const std::string tag = "dayorder" + std::to_string(::getpid()) + "_";
  std::uint64_t a = 1, b = 2;
  if (make_record(0, b, 1, 0).logname() < make_record(0, a, 1, 0).logname())
    std::swap(a, b);
  struct File {
    std::uint64_t machine;
    SimTime day;
    std::vector<std::string> labels;  // in first-use order
  };
  const std::vector<File> files = {
      {a, 0, {tag + "p"}},
      {a, 1, {tag + "x", tag + "y"}},
      {b, 0, {tag + "y", tag + "z"}}};
  in_child([&] {
    std::vector<TraceRecord> bin_records, csv_records;
    std::uint64_t i = 0;
    for (const File& f : files)
      for (std::size_t k = 0; k < f.labels.size(); ++k)
        (f.machine == a ? bin_records : csv_records)
            .push_back(make_record(
                f.day * kDay + static_cast<SimTime>(100 - k) * kSecond,
                f.machine, 1, 3 * i++, f.labels[k]));
    write(bin_records, TraceFormat::kBinary);
    write(csv_records, TraceFormat::kCsv);
  });
  if (HasFatalFailure()) return;
  ASSERT_EQ(files_with(".u1b").size(), 2u);
  ASSERT_EQ(files_with(".csv").size(), 1u);

  const auto first_sight = [&](auto before) {
    std::vector<File> order = files;
    std::sort(order.begin(), order.end(), before);
    std::vector<std::string> out;
    for (const File& f : order)
      for (const std::string& label : f.labels)
        if (std::find(out.begin(), out.end(), label) == out.end())
          out.push_back(label);
    return out;
  };
  const auto name = [](const File& f) {
    return make_record(f.day * kDay, f.machine, 1, 0).logname();
  };
  const auto want = first_sight([&](const File& x, const File& y) {
    return x.day != y.day ? x.day < y.day : name(x) < name(y);
  });
  ASSERT_NE(want, first_sight([&](const File& x, const File& y) {
              return name(x) < name(y);
            }));

  const std::size_t base = global_symbols().size();
  BatchSink got;
  const ReadStats stats = read_logfiles(dir_, got);
  EXPECT_EQ(stats.parsed, 5u);
  expect_new_symbols(base, want);
  expect_equivalent(dir_);
}

TEST_F(ReadMergeTest, CsvAndItsBinaryTwinDeliverOneStreamAndOneSetOfIds) {
  // CSV files parse on the decode threads with file-local label ids, as
  // .u1b files decode; interning those in first-sight order must give
  // the ids a row-by-row parse into the global table gave. Two days,
  // three machines; within a file the rows run backwards in time, so row
  // order is not timestamp order, and files share labels. One CSV row is
  // malformed: its label must not be interned. The binary twin is what
  // `u1trace convert --to bin` writes: each CSV file read and appended
  // in (day, name) order.
  const std::string tag = "twin" + std::to_string(::getpid()) + "_";
  struct File {
    std::uint64_t machine;
    SimTime day;
    std::vector<std::string> labels;  // in row order
  };
  const std::vector<File> files = {
      {1, 1, {tag + "d", tag + "a"}},
      {2, 0, {tag + "b", tag + "c", tag + "b"}},
      {3, 0, {tag + "c", tag + "a"}},
      {1, 0, {tag + "e"}},
      {2, 1, {tag + "f", tag + "d"}}};
  const fs::path twin = dir_ / "twin";
  in_child([&] {
    std::vector<TraceRecord> records;
    std::uint64_t i = 0;
    for (const File& f : files)
      for (std::size_t k = 0; k < f.labels.size(); ++k)
        records.push_back(make_record(
            f.day * kDay + static_cast<SimTime>(100 - k) * kSecond,
            f.machine, 1, 3 * i++, f.labels[k]));
    write(records, TraceFormat::kCsv);
    // The bogus type fails the row before its label is looked at.
    const fs::path first = files_with(".csv").front();
    std::ofstream(first, std::ios::app)
        << "5,bogus_type,1,1,1,1,,,,,,,,,"
        << tag << "never,0,0,0,0,,,,,\n";
    const auto writer = make_logfile_writer(twin, TraceFormat::kBinary);
    std::vector<TraceRecord> file_records;
    for (const LogfileEntry& entry : list_logfiles(dir_)) {
      file_records.clear();
      read_logfile(entry.path, file_records);
      writer->append_batch(file_records.data(), file_records.size());
    }
    writer->close();
  });
  if (HasFatalFailure()) return;
  ASSERT_EQ(files_with(".csv").size(), files.size());

  // First sight in (day, name) order, rows in file order.
  std::vector<File> order = files;
  const auto name = [](const File& f) {
    return make_record(f.day * kDay, f.machine, 1, 0).logname();
  };
  std::sort(order.begin(), order.end(), [&](const File& x, const File& y) {
    return x.day != y.day ? x.day < y.day : name(x) < name(y);
  });
  std::vector<std::string> want;
  for (const File& f : order)
    for (const std::string& label : f.labels)
      if (std::find(want.begin(), want.end(), label) == want.end())
        want.push_back(label);

  const auto stream_sha = [](const BatchSink& sink) {
    Sha1 sha;
    for (const TraceRecord& r : sink.records) sha.update(row_of(r));
    return sha.finish().hex();
  };
  const std::size_t base = global_symbols().size();
  BatchSink csv;
  const ReadStats csv_stats = read_logfiles(dir_, csv);
  EXPECT_EQ(csv_stats.parsed, 10u);
  EXPECT_EQ(csv_stats.malformed, 1u);
  expect_new_symbols(base, want);
  BatchSink bin;
  const ReadStats bin_stats = read_logfiles(twin, bin);
  EXPECT_EQ(bin_stats.files_binary, files.size());
  EXPECT_EQ(global_symbols().size(), base + want.size());
  EXPECT_EQ(stream_sha(bin), stream_sha(csv));
  ASSERT_EQ(bin.records.size(), csv.records.size());
  for (std::size_t i = 0; i < csv.records.size(); ++i)
    EXPECT_EQ(bin.records[i].label, csv.records[i].label) << "record " << i;
  expect_equivalent(dir_);
}

TEST_F(ReadMergeTest, FileUnderAnotherDaysNameThrowsNamingIt) {
  // Three days in each format. A day-0 file copied under a day-2 name
  // (sidecar too) holds records two days early; a day-2 file renamed to
  // a day-1 name holds them a day late. Either read throws, naming the
  // file, after every earlier day has reached the sink.
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    for (const bool copy : {true, false}) {
      SCOPED_TRACE(std::string(to_string(format)) +
                   (copy ? " copy" : " rename"));
      fs::remove_all(dir_);
      std::vector<TraceRecord> records = scattered(600, 7);
      for (std::size_t i = 0; i < 200; ++i)
        records.push_back(
            make_record(2 * kDay + static_cast<SimTime>(i) * kMinute,
                        1 + i % 3, 1 + i % 4, i));
      write(records, format);
      // What the days before the bad file's day hold, read before the
      // copy or rename.
      std::vector<TraceRecord> want;
      reference_read(dir_, want);
      const std::string ext = format == TraceFormat::kCsv ? ".csv" : ".u1b";
      const TraceRecord from = make_record(copy ? 0 : 2 * kDay, 2, 3, 0);
      const TraceRecord to = make_record(copy ? 2 * kDay : kDay, 2, 9, 0);
      const SimTime bad_day = copy ? 2 : 1;
      const auto move = [&](const std::string& suffix) {
        const fs::path src = dir_ / (from.logname() + suffix);
        const fs::path dst = dir_ / (to.logname() + suffix);
        ASSERT_TRUE(fs::exists(src)) << src;
        if (copy)
          fs::copy_file(src, dst);
        else
          fs::rename(src, dst);
      };
      move(ext);
      if (format == TraceFormat::kBinary) move(std::string(kSymbolSidecarExt));
      if (HasFatalFailure()) return;

      BatchSink got;
      try {
        read_logfiles(dir_, got);
        ADD_FAILURE() << "no error";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(to.logname() + ext),
                  std::string::npos)
            << e.what();
      }
      // Those days arrived whole, as the reference orders them.
      std::size_t earlier = 0;
      while (earlier < want.size() && want[earlier].t < bad_day * kDay)
        ++earlier;
      ASSERT_EQ(got.records.size(), earlier);
      for (std::size_t i = 0; i < earlier; ++i)
        ASSERT_EQ(row_of(got.records[i]), row_of(want[i])) << "record " << i;
    }
  }
}

TEST_F(ReadMergeTest, NameWithoutTraceDateThrowsNamingIt) {
  write(scattered(100, 8), TraceFormat::kCsv);
  std::ofstream(dir_ / "production-whitecurrant-1.csv") << "t_us\n";
  BatchSink got;
  try {
    read_logfiles(dir_, got);
    ADD_FAILURE() << "no error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("production-whitecurrant-1.csv"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(got.records.empty());
}

TEST_F(ReadMergeTest, RecordsHeldSpanAtMostTwoDays) {
  // Days 0 and 2 are large, day 1 is tiny: a reader holding the whole
  // trace would hold days 0 and 2 together; the day pipeline never does.
  std::vector<TraceRecord> records;
  const std::size_t per_day[] = {3000, 20, 2400};
  std::uint64_t i = 0;
  for (SimTime day = 0; day < 3; ++day)
    for (std::size_t k = 0; k < per_day[day]; ++k, ++i)
      records.push_back(
          make_record(day * kDay + static_cast<SimTime>(i % 5000) * kSecond,
                      1 + i % 3, 1 + i % 4, i));
  for (const TraceFormat format : {TraceFormat::kCsv, TraceFormat::kBinary}) {
    SCOPED_TRACE(std::string(to_string(format)));
    fs::remove_all(dir_);
    write(records, format);
    BatchSink got;
    const ReadStats stats = read_logfiles(dir_, got);
    EXPECT_LT(stats.records_held_max, per_day[0] + per_day[2]);
    EXPECT_GE(stats.records_held_max, per_day[0]);
    expect_equivalent(dir_);
  }
}

}  // namespace
}  // namespace u1
