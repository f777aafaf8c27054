#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tools/u1trace_cli.hpp"

namespace u1::cli {
namespace {

TEST(Args, ParsesPositionalsFlagsSwitches) {
  const Args args = Args::parse({"dir1", "--users", "500", "--no-ddos",
                                 "dir2"},
                                {"users"}, {"no-ddos"});
  ASSERT_TRUE(args.ok());
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "dir1");
  EXPECT_EQ(args.int_flag("users"), 500);
  EXPECT_TRUE(args.has_switch("no-ddos"));
  EXPECT_FALSE(args.flag("days").has_value());
}

TEST(Args, RejectsUnknownAndDangling) {
  const Args bad = Args::parse({"--bogus", "x"}, {"users"}, {});
  EXPECT_FALSE(bad.ok());
  const Args dangling = Args::parse({"--users"}, {"users"}, {});
  EXPECT_FALSE(dangling.ok());
}

TEST(Args, NonNumericIntFlag) {
  const Args args = Args::parse({"--users", "abc"}, {"users"}, {});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args.int_flag("users").has_value());
}

TEST(Run, UnknownCommandFails) {
  std::ostringstream out, err;
  EXPECT_NE(run({"frobnicate"}, out, err), 0);
  EXPECT_NE(err.str().find("usage"), std::string::npos);
}

TEST(Run, NoArgsShowsUsage) {
  std::ostringstream out, err;
  EXPECT_NE(run({}, out, err), 0);
}

class CliPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("u1trace_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CliPipeline, GenerateSummarizeAnalyzeValidate) {
  std::ostringstream out, err;
  ASSERT_EQ(run({"generate", "--out", dir_, "--users", "120", "--days", "2",
                 "--seed", "7", "--no-ddos"},
                out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("sessions"), std::string::npos);

  std::ostringstream sum_out, sum_err;
  ASSERT_EQ(run({"summarize", dir_}, sum_out, sum_err), 0) << sum_err.str();
  EXPECT_NE(sum_out.str().find("unique users"), std::string::npos);

  for (const char* figure :
       {"traffic", "dedup", "sessions", "users", "ops", "ddos"}) {
    std::ostringstream a_out, a_err;
    EXPECT_EQ(run({"analyze", dir_, "--figure", figure}, a_out, a_err), 0)
        << figure << ": " << a_err.str();
    EXPECT_FALSE(a_out.str().empty()) << figure;
  }

  std::ostringstream v_out, v_err;
  EXPECT_EQ(run({"validate", dir_}, v_out, v_err), 0) << v_err.str();
  EXPECT_NE(v_out.str().find("TRACE SOUND"), std::string::npos)
      << v_out.str();
}

namespace {

/// Concatenated contents of every regular file under dir, in sorted
/// name order — a cheap byte-identity fingerprint for trace dirs.
std::string dir_bytes(const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) paths.push_back(e.path());
  std::sort(paths.begin(), paths.end());
  std::string all;
  for (const auto& p : paths) {
    all += p.filename().string();
    all += '\n';
    std::ifstream in(p, std::ios::binary);
    all.append(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  return all;
}

/// Analyzer output minus '#'-prefixed stats lines (bytes_read and
/// files_binary legitimately differ across formats).
std::string strip_comments(const std::string& text) {
  std::istringstream in(text);
  std::string line, kept;
  while (std::getline(in, line))
    if (!line.starts_with("#")) kept += line + "\n";
  return kept;
}

}  // namespace

TEST_F(CliPipeline, BinaryFormatConvertsToIdenticalCsv) {
  const std::string csv_dir = dir_ + "_csv";
  const std::string bin_dir = dir_ + "_bin";
  const std::string conv_dir = dir_ + "_conv";
  std::filesystem::remove_all(csv_dir);
  std::filesystem::remove_all(bin_dir);
  std::filesystem::remove_all(conv_dir);

  const std::vector<std::string> common = {"--users", "80", "--days", "1",
                                           "--seed", "11", "--no-ddos",
                                           "--fault-plan", "standard"};
  std::ostringstream out, err;
  auto gen = [&](const std::string& target, const char* format) {
    std::vector<std::string> argv = {"generate", "--out", target,
                                     "--format", format};
    argv.insert(argv.end(), common.begin(), common.end());
    ASSERT_EQ(run(argv, out, err), 0) << err.str();
  };
  gen(csv_dir, "csv");
  gen(bin_dir, "bin");

  // The binary trace re-encoded as CSV is byte-identical to the trace
  // generated as CSV directly — for every record type, kFault included.
  std::ostringstream c_out, c_err;
  ASSERT_EQ(run({"convert", bin_dir, "--out", conv_dir, "--to", "csv"},
                c_out, c_err),
            0)
      << c_err.str();
  EXPECT_EQ(dir_bytes(conv_dir), dir_bytes(csv_dir));

  // Analyzers see the identical stream whichever format they read, and
  // validate's malformed share counts data rows the same way in both.
  for (const std::string& cmd :
       {std::string("summarize"), std::string("validate")}) {
    std::ostringstream csv_a, bin_a, e1, e2;
    ASSERT_EQ(run({cmd, csv_dir}, csv_a, e1), 0) << e1.str();
    ASSERT_EQ(run({cmd, bin_dir}, bin_a, e2), 0) << e2.str();
    EXPECT_EQ(strip_comments(csv_a.str()), strip_comments(bin_a.str()))
        << cmd;
  }
  for (const char* figure : {"traffic", "sessions", "ops"}) {
    std::ostringstream csv_a, bin_a, e1, e2;
    ASSERT_EQ(run({"analyze", csv_dir, "--figure", figure}, csv_a, e1), 0);
    ASSERT_EQ(run({"analyze", bin_dir, "--figure", figure}, bin_a, e2), 0);
    EXPECT_EQ(strip_comments(csv_a.str()), strip_comments(bin_a.str()))
        << figure;
  }

  // CSV -> bin reproduces the binary trace generated directly, and back
  // to CSV the CSV one: every row, pre-trace bootstrap rows (t < 0)
  // included, survives the text parse.
  const std::string fix_bin = dir_ + "_fixbin";
  const std::string fix_csv = dir_ + "_fixcsv";
  for (const auto& d : {fix_bin, fix_csv}) std::filesystem::remove_all(d);
  std::ostringstream f_out, f_err;
  ASSERT_EQ(run({"convert", csv_dir, "--out", fix_bin, "--to", "bin"},
                f_out, f_err),
            0)
      << f_err.str();
  EXPECT_EQ(dir_bytes(fix_bin), dir_bytes(bin_dir));
  ASSERT_EQ(run({"convert", fix_bin, "--out", fix_csv, "--to", "csv"},
                f_out, f_err),
            0)
      << f_err.str();
  EXPECT_EQ(dir_bytes(fix_csv), dir_bytes(csv_dir));

  for (const auto& d : {csv_dir, bin_dir, conv_dir, fix_bin, fix_csv})
    std::filesystem::remove_all(d);
}

TEST_F(CliPipeline, ConvertRejectsBadArguments) {
  std::ostringstream out, err;
  EXPECT_NE(run({"convert"}, out, err), 0);
  EXPECT_NE(run({"convert", dir_ + "_missing", "--out", dir_}, out, err), 0);
  std::ostringstream g_out, g_err;
  ASSERT_EQ(run({"generate", "--out", dir_, "--users", "20", "--days", "1",
                 "--no-ddos"},
                g_out, g_err),
            0);
  EXPECT_NE(run({"convert", dir_, "--out", dir_ + "_x", "--to", "xml"}, out,
                err),
            0);
}

TEST_F(CliPipeline, GenerateRejectsUnknownFormat) {
  std::ostringstream out, err;
  EXPECT_NE(run({"generate", "--out", dir_, "--users", "10", "--format",
                 "parquet"},
                out, err),
            0);
}

TEST_F(CliPipeline, GenerateRejectsOutOfRangeCounts) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"users", "0"}, {"users", "-1"}, {"users", "many"},
      {"days", "0"},  {"days", "-2"},  {"threads", "-1"}};
  for (const auto& [flag, value] : bad) {
    std::ostringstream out, err;
    EXPECT_EQ(run({"generate", "--out", dir_, "--" + flag, value}, out, err),
              2)
        << flag << "=" << value;
    EXPECT_NE(err.str().find("--" + flag), std::string::npos) << err.str();
    EXPECT_FALSE(std::filesystem::exists(dir_)) << flag << "=" << value;
  }
}

TEST_F(CliPipeline, GenerateRejectsBadSeeds) {
  // 2^64 and a negative seed do not fit a u64; neither may fall back to
  // the default seed.
  for (const std::string flag : {"seed", "fault-seed"}) {
    for (const std::string value :
         {"many", "-1", "18446744073709551616", ""}) {
      std::ostringstream out, err;
      EXPECT_EQ(run({"generate", "--out", dir_, "--" + flag, value}, out,
                    err),
                2)
          << flag << "=" << value;
      EXPECT_NE(err.str().find("--" + flag +
                               " must be an unsigned 64-bit integer"),
                std::string::npos)
          << err.str();
      EXPECT_FALSE(std::filesystem::exists(dir_)) << flag << "=" << value;
    }
  }
}

TEST_F(CliPipeline, GenerateRunsSeedsAboveInt64Max) {
  std::ostringstream out, err;
  ASSERT_EQ(run({"generate", "--out", dir_, "--users", "20", "--days", "1",
                 "--seed", "14755780954196306249", "--fault-seed",
                 "18446744073709551615"},
                out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("seed=14755780954196306249 "), std::string::npos)
      << out.str();
}

TEST_F(CliPipeline, GenerateTraceIdenticalAcrossThreadCounts) {
  const std::string one = dir_ + "_t1";
  const std::string three = dir_ + "_t3";
  for (const auto& [target, threads] : {std::pair{one, "1"},
                                        std::pair{three, "3"}}) {
    std::filesystem::remove_all(target);
    std::ostringstream out, err;
    ASSERT_EQ(run({"generate", "--out", target, "--users", "120", "--days",
                   "2", "--seed", "7", "--threads", threads},
                  out, err),
              0)
        << err.str();
  }
  EXPECT_EQ(dir_bytes(one), dir_bytes(three));
  std::filesystem::remove_all(one);
  std::filesystem::remove_all(three);
}

TEST_F(CliPipeline, AnalyzeUnknownFigureFails) {
  std::ostringstream out, err;
  ASSERT_EQ(run({"generate", "--out", dir_, "--users", "50", "--days", "1",
                 "--no-ddos"},
                out, err),
            0);
  std::ostringstream a_out, a_err;
  EXPECT_NE(run({"analyze", dir_, "--figure", "nope"}, a_out, a_err), 0);
}

TEST_F(CliPipeline, GenerateRequiresOut) {
  std::ostringstream out, err;
  EXPECT_NE(run({"generate", "--users", "10"}, out, err), 0);
}

TEST_F(CliPipeline, GenerateIntoRegularFileExitsOneNamingThePath) {
  // The u1trace binary itself: a failure past argument parsing throws out
  // of run(), and main must report it instead of aborting.
  { std::ofstream(dir_) << "not a directory"; }
  const std::string err_path = dir_ + ".err";
  const std::string cmd = std::string(U1TRACE_BIN) + " generate --out " +
                          dir_ + " --users 10 --days 1 2> " + err_path;
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 1);
  std::ifstream in(err_path);
  const std::string err{std::istreambuf_iterator<char>(in), {}};
  EXPECT_EQ(err.rfind("u1trace: ", 0), 0u) << err;
  EXPECT_NE(err.find(dir_), std::string::npos) << err;
  std::filesystem::remove(err_path);
}

TEST_F(CliPipeline, SummarizeRequiresDir) {
  std::ostringstream out, err;
  EXPECT_NE(run({"summarize"}, out, err), 0);
}

}  // namespace
}  // namespace u1::cli
