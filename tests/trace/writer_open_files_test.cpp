// Logfile writers under a low open-file limit. A month-scale run makes
// thousands of per-(machine, process, day) files, far above the common
// `ulimit -n 1024`, so neither writer may keep its files open: a forked
// child with RLIMIT_NOFILE = 64 writes records over 600 keys in both
// formats, and its directory must equal one written without the limit.
// A few hot keys get enough rows that their CSV files are appended to
// several times while the other files are still buffered.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "trace/binlog.hpp"
#include "trace/logfile.hpp"
#include "util/csv.hpp"

namespace u1 {
namespace {

namespace fs = std::filesystem;

constexpr rlim_t kOpenFileLimit = 64;
constexpr std::uint64_t kMachines = 6, kProcesses = 10, kDays = 10;
constexpr std::uint64_t kHotKeys = 2;
constexpr int kRounds = 8;

TraceRecord make_record(std::uint64_t i, std::uint64_t day, std::uint64_t m,
                        std::uint64_t p, int round) {
  TraceRecord r;
  r.t = static_cast<SimTime>(day) * kDay + round * kSecond;
  r.machine = MachineId{m};
  r.process = ProcessId{p};
  r.user = UserId{1 + i % 97};
  r.session = SessionId{1 + i % 31};
  if (i % 2 == 0) {
    r.type = RecordType::kStorage;
    r.api_op = ApiOp::kPutContent;
    r.size_bytes = 100 + i;
    r.set_extension(i % 4 == 0 ? "jpg" : "pdf");
  } else {
    r.type = RecordType::kRpc;
    r.rpc_op = RpcOp::kGetNode;
    r.shard = ShardId{1 + i % 10};
    r.service_time = static_cast<std::uint32_t>(300 + i);
  }
  return r;
}

/// Rounds of one record per (machine, process, day) key, so every file
/// is written to again long after the others were touched; each round
/// also gives the first kHotKeys processes of machine 1, day 0 at least
/// half a CSV buffer of rows.
std::vector<TraceRecord> interleaved_records() {
  constexpr std::uint64_t kHotRowsPerRound =
      LogfileWriter::kFileBufferBytes / 40;
  std::vector<TraceRecord> out;
  std::uint64_t i = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint64_t day = 0; day < kDays; ++day)
      for (std::uint64_t m = 1; m <= kMachines; ++m)
        for (std::uint64_t p = 1; p <= kProcesses; ++p, ++i)
          out.push_back(make_record(i, day, m, p, round));
    for (std::uint64_t n = 0; n < kHotRowsPerRound; ++n)
      for (std::uint64_t p = 1; p <= kHotKeys; ++p, ++i)
        out.push_back(make_record(i, 0, 1, p, round));
  }
  return out;
}

/// Writes `records` in both formats under `dir`.
void write_both(const std::vector<TraceRecord>& records, const fs::path& dir) {
  BinaryLogfileWriter bin(dir / "bin");
  bin.set_stripe_records(3);  // several stripes per file, each reopening it
  LogfileWriter csv(dir / "csv");
  for (const TraceRecord& r : records) {
    bin.append(r);
    csv.append(r);
  }
  bin.close();
  csv.close();
}

/// The CSV files as written in one go: header, then each file's rows in
/// arrival order, keyed like dir_contents().
std::map<std::string, std::string> csv_reference(
    const std::vector<TraceRecord>& records) {
  std::map<std::string, std::ostringstream> files;
  for (const TraceRecord& r : records) {
    auto [it, fresh] = files.try_emplace("csv/" + r.logname() + ".csv");
    CsvWriter writer(it->second);
    if (fresh) writer.write_row(TraceRecord::csv_header());
    writer.write_row(r.to_csv());
  }
  std::map<std::string, std::string> out;
  for (const auto& [name, text] : files) out[name] = text.str();
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

class WriterOpenFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("u1_open_files_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(WriterOpenFiles, ByteIdenticalUnderLowOpenFileLimit) {
  const std::vector<TraceRecord> records = interleaved_records();
  write_both(records, dir_ / "free");

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const rlimit limit{kOpenFileLimit, kOpenFileLimit};
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(2);
    try {
      write_both(records, dir_ / "limited");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "writer failed: %s\n", e.what());
      ::_exit(1);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;

  const auto free = dir_contents(dir_ / "free");
  const std::size_t keys = kMachines * kProcesses * kDays;
  // One .u1b and one .u1s per key, one .csv per key.
  ASSERT_EQ(free.size(), 3 * keys);
  const auto limited = dir_contents(dir_ / "limited");
  EXPECT_TRUE(free == limited);

  const auto reference = csv_reference(records);
  std::size_t csv_files = 0;
  for (const auto& [name, text] : reference) {
    const auto it = limited.find(name);
    ASSERT_NE(it, limited.end()) << name;
    EXPECT_TRUE(it->second == text) << name;
    ++csv_files;
  }
  EXPECT_EQ(csv_files, keys);
  // The hot files were appended to several times during the run.
  for (std::uint64_t p = 1; p <= kHotKeys; ++p) {
    const TraceRecord hot = make_record(0, 0, 1, p, 0);
    EXPECT_GT(limited.at("csv/" + hot.logname() + ".csv").size(),
              3 * LogfileWriter::kFileBufferBytes);
  }
}

}  // namespace
}  // namespace u1
