// The paper from one run: Table 1, Table 3, Figs 2-16 and the §9
// improvement proposals.
//
// Runs the standard month once (standard_config(env_users(), env_days()),
// 8000 users x 30 days by default) with one instance of every analyzer
// behind a MultiSink, then prints each table and figure in paper order
// as "paper vs measured" rows. Fig 4(a)'s registry row, Fig 10 and
// Fig 11 read the back-end state the run leaves behind. §9 reads the same
// month, plus a write storm driven straight at one back-end and, for the
// automatic DDoS response, a second month with the guard on.
//
// Every row also lands in BENCH_paper.json (repo root; --out PATH writes
// it elsewhere) as {figure, metric, paper, measured, band, holds}. A band
// is null (reported, not gated; holds is null), [lo, hi] (a threshold or
// range the paper states, cited next to the row; null = unbounded side)
// or "shape_holds" (a Table 1 finding's shape rule); paper is null where
// the paper states no number for the row. The JSON also records
// wall_s, peak_rss_mb, hardware_concurrency, users, days, seed and
// threads. The trace is bit-identical at every thread count, so every
// `measured` is a function of code, seed and scale alone. The exit code
// reports errors only (a bad flag, an unwritable JSON), so a small-scale
// run whose rows miss their bands still exits 0.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/file_dependencies.hpp"
#include "analysis/findings.hpp"
#include "analysis/node_lifetime.hpp"
#include "analysis/op_mix.hpp"
#include "analysis/trace_summary.hpp"
#include "analysis/transition_graph.hpp"
#include "analysis/volumes.hpp"
#include "bench/bench_util.hpp"
#include "improve/content_cache.hpp"
#include "server/backend.hpp"
#include "stats/ecdf.hpp"
#include "stats/summary.hpp"
#include "trace/sink.hpp"
#include "util/strings.hpp"
#include "workload/ddos.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace {

using namespace u1;
using namespace u1::bench;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// The paper column of a row the paper gives no number for.
constexpr double kUnstated = std::numeric_limits<double>::quiet_NaN();

/// Labelled x values at which a CDF is printed.
using Grid = std::vector<std::pair<const char*, double>>;

/// A range the paper states for a row: it holds when lo <= measured <= hi.
struct Band {
  double lo = -kInf;
  double hi = kInf;
};

/// The printed rows, kept for BENCH_paper.json.
class Report {
 public:
  void section(const char* figure, const char* title) {
    header(figure, title);
    figure_ = figure;
  }

  void row(const char* metric, double paper, double measured) {
    u1::bench::row(metric, paper, measured);
    rows_.push_back({figure_, metric, paper, measured, Gate::kNone, {},
                     false});
  }

  void row(const char* metric, double paper, double measured, Band band) {
    u1::bench::row(metric, paper, measured);
    rows_.push_back({figure_, metric, paper, measured, Gate::kBand, band,
                     band.lo <= measured && measured <= band.hi});
  }

  /// A Table 1 finding; printed by the caller in its own format.
  void finding(const Finding& f) {
    rows_.push_back({figure_, f.id, f.paper_value, f.measured, Gate::kShape,
                     {}, f.shape_holds});
  }

  /// Rows with a band or shape rule, and how many of them hold.
  std::pair<int, int> gated_and_held() const {
    std::pair<int, int> n{0, 0};
    for (const Row& r : rows_) {
      n.first += r.gate != Gate::kNone;
      n.second += r.gate != Gate::kNone && r.holds;
    }
    return n;
  }

  /// Writes the rows as a JSON array, one object per line.
  void write_rows(std::FILE* f) const {
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f, "    {\"figure\": \"%s\", \"metric\": \"%s\", ",
                   escaped(r.figure).c_str(), escaped(r.metric).c_str());
      std::fprintf(f, "\"paper\": %s, \"measured\": %s, \"band\": ",
                   number(r.paper).c_str(), number(r.measured).c_str());
      switch (r.gate) {
        case Gate::kNone:
          std::fprintf(f, "null, \"holds\": null");
          break;
        case Gate::kBand:
          std::fprintf(f, "[%s, %s], \"holds\": %s",
                       number(r.band.lo).c_str(), number(r.band.hi).c_str(),
                       r.holds ? "true" : "false");
          break;
        case Gate::kShape:
          std::fprintf(f, "\"shape_holds\", \"holds\": %s",
                       r.holds ? "true" : "false");
          break;
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
  }

 private:
  enum class Gate { kNone, kBand, kShape };
  struct Row {
    std::string figure;
    std::string metric;
    double paper;
    double measured;
    Gate gate;
    Band band;
    bool holds;
  };

  /// Shortest text that reads back to the same double; JSON has no
  /// infinities or NaN, so those are null.
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    return {buf, std::to_chars(buf, buf + sizeof(buf), v).ptr};
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string figure_;
  std::vector<Row> rows_;
};

/// Bytes that the DDoS bots' successful downloads from the attacks' shared
/// accounts took (§5.4's leeching).
class LeechMeter final : public TraceSink {
 public:
  void append(const TraceRecord& r) override {
    if (r.type == RecordType::kStorageDone && !r.failed &&
        r.api_op == ApiOp::kGetContent && r.user.value >= kFirstAttackAccount)
      bytes_ += r.transferred_bytes;
  }
  std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  std::uint64_t bytes_ = 0;
};

/// Server-side LRU content caches of several sizes, each fed the month's
/// successful downloads.
class CacheSweep final : public TraceSink {
 public:
  static constexpr std::uint64_t kGB = 1ull << 30;
  static constexpr std::uint64_t kSizesGB[] = {1, 4, 16, 64, 256};

  CacheSweep() {
    for (const std::uint64_t gb : kSizesGB) caches_.emplace_back(gb * kGB);
  }
  void append(const TraceRecord& r) override {
    if (r.type != RecordType::kStorageDone || r.failed || r.t < 0 ||
        r.api_op != ApiOp::kGetContent || r.content == ContentId{})
      return;
    for (ContentCache& c : caches_) c.access(r.content, r.size_bytes);
  }
  const std::vector<ContentCache>& caches() const noexcept { return caches_; }

 private:
  std::vector<ContentCache> caches_;
};

/// One instance of every analyzer the paper's figures need, fed by one
/// MultiSink.
struct Analyzers {
  Analyzers(const SimulationConfig& cfg, SimTime horizon)
      : traffic(0, horizon),
        ddos(0, horizon),
        users(0, horizon),
        load(0, horizon, cfg.backend.fleet.machines, cfg.backend.shards),
        sessions(0, horizon),
        summary(horizon) {
    for (TraceSink* sink : std::initializer_list<TraceSink*>{
             &traffic, &types, &dedup, &ddos, &users, &bursts, &rpcs, &load,
             &sessions, &deps, &life, &mix, &summary, &graph, &leech, &cache})
      fanout.add(sink);
  }
  Analyzers(const Analyzers&) = delete;  // the MultiSink points at members

  TrafficAnalyzer traffic;
  FileTypeAnalyzer types;
  DedupAnalyzer dedup;
  DdosAnalyzer ddos;
  UserActivityAnalyzer users;
  BurstinessAnalyzer bursts;
  RpcPerfAnalyzer rpcs;
  LoadBalanceAnalyzer load;
  SessionAnalyzer sessions;
  FileDependencyAnalyzer deps;
  NodeLifetimeAnalyzer life;
  OpMixAnalyzer mix;
  TraceSummaryAnalyzer summary;
  TransitionGraphAnalyzer graph;
  LeechMeter leech;
  CacheSweep cache;
  MultiSink fanout;
};

// --- Table 1 and Table 3 -----------------------------------------------------

void table1_findings(Report& rep, const Analyzers& a) {
  rep.section("Table 1", "Summary of findings (paper vs this reproduction)");
  const auto findings =
      extract_findings(a.types, a.traffic, a.dedup, a.ddos, a.users,
                       a.bursts, a.rpcs, a.load, a.sessions);
  int holds = 0;
  for (const auto& f : findings) {
    std::printf("  [%s] %-24s paper=%9.4g  measured=%9.4g\n",
                f.shape_holds ? "OK " : "MISS", f.id.c_str(), f.paper_value,
                f.measured);
    std::printf("        %s\n", f.statement.c_str());
    if (f.shape_holds) ++holds;
    rep.finding(f);
  }
  std::printf("\n  %d of %zu qualitative findings reproduce at this "
              "scale.\n", holds, findings.size());
}

void table3_trace_summary(Report& rep, const Analyzers& a) {
  // Paper values are for 1.29M users; the per-user normalization is the
  // comparable quantity.
  const auto s = a.summary.summary();
  rep.section("Table 3", "Summary of the trace");
  const double users = static_cast<double>(s.unique_users);
  const double paper_users = 1294794.0;
  std::printf("  %-28s %15s %18s\n", "metric", "paper (1.29M users)",
              "measured");
  std::printf("  %-28s %15s %18d\n", "trace duration (days)", "30", s.days);
  std::printf("  %-28s %15s %18llu\n", "unique user IDs", "1294794",
              static_cast<unsigned long long>(s.unique_users));
  std::printf("  %-28s %15s %18llu\n", "unique files", "137.63M",
              static_cast<unsigned long long>(s.unique_files));
  std::printf("  %-28s %15s %18llu\n", "user sessions", "42.5M",
              static_cast<unsigned long long>(s.sessions));
  std::printf("  %-28s %15s %18llu\n", "transfer operations", "194.3M",
              static_cast<unsigned long long>(s.transfer_ops));
  std::printf("  %-28s %15s %18s\n", "upload traffic", "105TB",
              format_bytes(static_cast<double>(s.upload_bytes)).c_str());
  std::printf("  %-28s %15s %18s\n", "download traffic", "120TB",
              format_bytes(static_cast<double>(s.download_bytes)).c_str());

  std::printf("\n  per-user-per-month normalization (shape comparison):\n");
  rep.row("files per user", 137.63e6 / paper_users,
          static_cast<double>(s.unique_files) / users);
  rep.row("sessions per user", 42.5e6 / paper_users,
          static_cast<double>(s.sessions) / users);
  rep.row("transfer ops per user", 194.3e6 / paper_users,
          static_cast<double>(s.transfer_ops) / users);
  rep.row("upload MB per user", 105e12 / paper_users / 1e6,
          static_cast<double>(s.upload_bytes) / users / 1e6);
  rep.row("download MB per user", 120e12 / paper_users / 1e6,
          static_cast<double>(s.download_bytes) / users / 1e6);
  rep.row("download/upload byte ratio", 120.0 / 105.0,
          static_cast<double>(s.download_bytes) /
              static_cast<double>(s.upload_bytes));
}

// --- §5 storage workload -----------------------------------------------------

void fig02a_traffic_timeseries(Report& rep, const Analyzers& a) {
  rep.section("Fig 2(a)", "Transferred traffic time-series (GBytes/hour)");
  // The paper plots the week of Jan 20-27 (days 9..16 of the window) —
  // deliberately a quiet week with no attacks.
  std::printf("  hour-of-week series for days 9..16 (Jan 20 .. Jan 27):\n");
  std::printf("  %-22s %14s %14s\n", "time", "upload GB/h", "download GB/h");
  const auto& up = a.traffic.upload_bytes_hourly();
  const auto& down = a.traffic.download_bytes_hourly();
  for (std::size_t i = 0; i < up.bins(); ++i) {
    const SimTime t = up.bin_start(i);
    if (day_index(t) < 9 || day_index(t) > 16) continue;
    if (hour_of_day(t) % 4 != 0) continue;  // print every 4h for brevity
    std::printf("  %-22s %14.3f %14.3f\n", format_timestamp(t).c_str(),
                up.value(i) / 1e9, down.value(i) / 1e9);
  }
  rep.row("mid-day vs night upload swing (x)", 10.0,
          a.traffic.diurnal_swing());
  note("paper: volume of uploaded GBytes/hour up to 10x higher in central "
       "day hours than at night");
}

void fig02b_size_categories(Report& rep, const Analyzers& a) {
  rep.section("Fig 2(b)", "Traffic vs file size category");
  std::printf("  %-12s %10s %10s %10s %10s\n", "category", "up ops",
              "down ops", "up bytes", "down bytes");
  const auto& uo = a.traffic.upload_ops_by_size();
  const auto& dn = a.traffic.download_ops_by_size();
  const auto& ub = a.traffic.upload_bytes_by_size();
  const auto& db = a.traffic.download_bytes_by_size();
  for (std::size_t b = 0; b < uo.bins(); ++b) {
    std::printf("  %-12s %10.3f %10.3f %10.3f %10.3f\n",
                uo.label(b).c_str(), uo.fraction(b), dn.fraction(b),
                ub.fraction(b), db.fraction(b));
  }
  std::printf("\n  headline comparisons:\n");
  rep.row("upload ops on files < 0.5MB", 0.843, uo.fraction(0));
  rep.row("download ops on files < 0.5MB", 0.890, dn.fraction(0));
  rep.row("upload bytes from files > 25MB", 0.793, ub.fraction(4));
  rep.row("download bytes from files > 25MB", 0.882, db.fraction(4));
  note("paper: small files dominate operations; a few large files carry "
       "most traffic");
}

void fig02c_rw_ratio(Report& rep, const Analyzers& a) {
  rep.section("Fig 2(c)", "R/W ratio analysis (1-hour bins)");
  const auto box = a.traffic.rw_boxplot();
  rep.row("R/W ratio median", 1.14, box.median);
  rep.row("R/W ratio mean", 1.17, box.mean);
  std::printf("  boxplot: min=%.2f q1=%.2f med=%.2f q3=%.2f max=%.2f\n",
              box.min, box.q1, box.median, box.q3, box.max);
  // Within-day spread: median over days of the day's p90/p10 hourly ratio
  // (robust version of the paper's "differences of 8x within the same
  // day").
  {
    const auto ratios = a.traffic.rw_ratios_hourly();
    std::vector<double> day_swings;
    for (std::size_t d = 0; d * 24 + 23 < ratios.size(); ++d) {
      std::vector<double> day(ratios.begin() + static_cast<long>(d * 24),
                              ratios.begin() + static_cast<long>(d * 24 + 24));
      std::sort(day.begin(), day.end());
      const double lo = day[2];   // ~p10
      const double hi = day[21];  // ~p90
      if (lo > 0) day_swings.push_back(hi / lo);
    }
    rep.row("within-day p90/p10 ratio swing (x)", 8.0,
            day_swings.empty() ? 0.0 : median_of(day_swings));
  }

  const auto acf = a.traffic.rw_acf(200);
  std::printf("\n  ACF (95%% confidence band = +/-%.3f):\n",
              acf.confidence_bound);
  for (const std::size_t lag : {1u, 6u, 12u, 24u, 48u, 72u, 168u}) {
    if (lag < acf.acf.size())
      std::printf("    lag %3zu: %+.3f%s\n", static_cast<std::size_t>(lag),
                  acf.acf[lag],
                  std::abs(acf.acf[lag]) > acf.confidence_bound
                      ? "  (significant)"
                      : "");
  }
  // Paper: "most" of the 200 lags fall outside the 95% band — a majority.
  rep.row("lags outside the 95% band (of 200)", 150,
          static_cast<double>(acf.significant_lags), Band{101, 200});
  note("paper: most lags outside the band -> R/W ratios follow a daily "
       "pattern, they are not random");
}

void fig03a_after_write(Report& rep, const Analyzers& a) {
  const auto& deps = a.deps;
  rep.section("Fig 3(a)", "X-after-Write inter-operation times");
  rep.row("WAW share of after-write transitions", 0.44,
          deps.family_share(FileDependency::kWAW));
  rep.row("RAW share", 0.30, deps.family_share(FileDependency::kRAW));
  rep.row("DAW share", 0.26, deps.family_share(FileDependency::kDAW));

  std::printf("\n  CDF of inter-operation times (seconds):\n");
  std::printf("  %-8s %10s %10s %10s\n", "x", "WAW", "RAW", "DAW");
  const Grid grid = {{"0.1s", 0.1}, {"1s", 1},     {"60s", 60},
                     {"1h", 3600},  {"8h", 28800}, {"1d", 86400},
                     {"1w", 604800}};
  for (const auto dep : {FileDependency::kWAW, FileDependency::kRAW,
                         FileDependency::kDAW}) {
    if (deps.times(dep).empty()) {
      std::printf("  (no %s samples)\n", std::string(to_string(dep)).c_str());
      return;
    }
  }
  Ecdf waw{std::vector<double>(deps.times(FileDependency::kWAW))};
  Ecdf raw{std::vector<double>(deps.times(FileDependency::kRAW))};
  Ecdf daw{std::vector<double>(deps.times(FileDependency::kDAW))};
  for (const auto& [label, x] : grid) {
    std::printf("  %-8s %10.3f %10.3f %10.3f\n", label, waw.at(x), raw.at(x),
                daw.at(x));
  }
  rep.row("WAW gaps shorter than 1 hour", 0.80, waw.at(3600.0));
  note("paper: users update text-like files repeatedly within short time "
       "lapses; 80% of WAW times < 1h");
}

void fig03b_after_read(Report& rep, const Analyzers& a) {
  const auto& deps = a.deps;
  rep.section("Fig 3(b)", "X-after-Read inter-operation times");
  rep.row("RAR share of after-read transitions", 0.66,
          deps.family_share(FileDependency::kRAR));
  rep.row("DAR share", 0.24, deps.family_share(FileDependency::kDAR));
  rep.row("WAR share", 0.10, deps.family_share(FileDependency::kWAR));

  if (!deps.times(FileDependency::kRAR).empty()) {
    Ecdf rar{std::vector<double>(deps.times(FileDependency::kRAR))};
    rep.row("RAR gaps within 1 day", 0.40, rar.at(86400.0));
  }

  auto downloads = deps.downloads_per_file();
  if (!downloads.empty()) {
    Ecdf dl{std::move(downloads)};
    std::printf("\n  downloads-per-file CDF (inner plot):\n");
    for (const double x : {1.0, 2.0, 5.0, 10.0, 100.0}) {
      std::printf("    <= %-6.0f : %.3f\n", x, dl.at(x));
    }
    std::printf("    max downloads for one file: %.0f\n", dl.max());
  }
  rep.row("files unused > 1 day before deletion (share)", 0.091,
          deps.deleted_files() > 0
              ? static_cast<double>(deps.dying_files(kDay)) /
                    static_cast<double>(deps.deleted_files())
              : 0.0);
  note("paper: a small fraction of files is very popular (long read "
       "tail) and dying/cold files exist -> caching + warm storage");
}

void fig03c_lifetime(Report& rep, const Analyzers& a) {
  const auto& life = a.life;
  rep.section("Fig 3(c)", "File/directory lifetime");
  rep.row("files deleted within the month", 0.289,
          life.file_deleted_fraction(30 * kDay));
  rep.row("dirs deleted within the month", 0.315,
          life.dir_deleted_fraction(30 * kDay));
  rep.row("files deleted within 8 hours", 0.171,
          life.file_deleted_fraction(8 * kHour));
  rep.row("dirs deleted within 8 hours", 0.129,
          life.dir_deleted_fraction(8 * kHour));

  if (!life.file_lifetimes().empty() && !life.dir_lifetimes().empty()) {
    Ecdf files{std::vector<double>(life.file_lifetimes())};
    Ecdf dirs{std::vector<double>(life.dir_lifetimes())};
    std::printf("\n  lifetime CDF over deleted nodes (seconds):\n");
    std::printf("  %-8s %10s %10s\n", "x", "files", "dirs");
    for (const auto& [label, x] :
         Grid{{"1s", 1}, {"1m", 60}, {"10m", 600}, {"1h", 3600},
              {"8h", 28800}, {"1d", 86400}, {"1w", 604800}}) {
      std::printf("  %-8s %10.3f %10.3f\n", label, files.at(x), dirs.at(x));
    }
  }
  note("paper: file and directory lifetime distributions are similar "
       "because deleting a directory deletes its contents");
}

void fig04a_dedup(Report& rep, const Analyzers& a,
                  const ParallelSimulation& sim) {
  const auto& dedup = a.dedup;
  rep.section("Fig 4(a)", "File-based deduplication");
  rep.row("dedup ratio dr = 1 - Dunique/Dtotal", 0.171, dedup.dedup_ratio());
  rep.row("hashes with no duplicates (share)", 0.80, dedup.unique_fraction());
  rep.row("dedup hits / upload ops", 0.171,
          dedup.upload_ops_seen() > 0
              ? static_cast<double>(dedup.dedup_hits_seen()) /
                    static_cast<double>(dedup.upload_ops_seen())
              : 0.0);

  auto copies = dedup.copies_per_hash();
  if (!copies.empty()) {
    Ecdf c{std::move(copies)};
    std::printf("\n  copies-per-hash CDF:\n");
    for (const double x : {1.0, 2.0, 5.0, 10.0, 100.0, 1000.0}) {
      std::printf("    <= %-6.0f : %.4f\n", x, c.at(x));
    }
    std::printf("    most-duplicated content: %.0f logical copies\n",
                c.max());
  }
  // Whole-service view (registry state includes pre-trace history).
  rep.row("back-end registry dedup ratio", 0.171,
          sim.contents().dedup_ratio());
  note("paper: a small number of contents accounts for very many "
       "duplicates (popular songs) — a dedup hot spot");
}

void fig04b_sizes_by_ext(Report& rep, const Analyzers& a) {
  const auto& types = a.types;
  rep.section("Fig 4(b)", "Size of files per extension");
  rep.row("files smaller than 1MB (all files)", 0.90,
          types.fraction_below(1024.0 * 1024.0));

  const double kMB = 1024.0 * 1024.0;
  std::printf("\n  per-extension size CDF (fraction of files <= x):\n");
  std::printf("  %-6s %9s %9s %9s %9s %9s %12s\n", "ext", "10KB", "100KB",
              "1MB", "10MB", "100MB", "median");
  for (const char* ext : {"jpg", "mp3", "pdf", "doc", "java", "zip", "py"}) {
    auto sizes = types.sizes_of(ext);
    if (sizes.size() < 10) continue;
    Ecdf e{std::move(sizes)};
    std::printf("  %-6s %9.3f %9.3f %9.3f %9.3f %9.3f %12.0f\n", ext,
                e.at(10 * 1024.0), e.at(100 * 1024.0), e.at(kMB),
                e.at(10 * kMB), e.at(100 * kMB), e.quantile(0.5));
  }
  note("paper: per-extension distributions are very disparate; "
       "incompressible media/archives are much larger than code/docs");
}

void fig04c_type_shares(Report& rep, const Analyzers& a) {
  rep.section("Fig 4(c)", "Number vs storage share of file categories");
  std::printf("  %-14s %14s %16s\n", "category", "file share",
              "storage share");
  for (const auto& s : a.types.category_shares()) {
    std::printf("  %-14s %14.3f %16.3f\n",
                std::string(to_string(s.category)).c_str(), s.file_share,
                s.storage_share);
  }
  std::printf("\n  paper anchors: Docs hold 10.1%% of files / 6.9%% of "
              "storage; Code has the highest\n  file share with minimal "
              "storage; Audio/Video dominates storage share.\n");
  std::printf("  top extensions by file count:");
  for (const auto& ext : a.types.popular_extensions(8))
    std::printf(" %s", ext.c_str());
  std::printf("\n");
}

void fig05_ddos(Report& rep, const Analyzers& a) {
  const auto& ddos = a.ddos;
  rep.section("Fig 5", "DDoS attacks detected in the trace");
  const auto attacks = ddos.detect();
  // Paper: three attacks in the month (Jan 15, Jan 16 and Feb 6).
  rep.row("attacks detected (days)", 3,
          static_cast<double>(ddos.attack_days()), Band{3, 3});
  std::printf("\n  detected attack windows:\n");
  for (const auto& w : attacks) {
    const SimTime start = ddos.session_per_hour().bin_start(w.first_hour);
    std::printf("    %s .. +%zuh  session/auth spike %.1fx, API activity "
                "%.1fx\n",
                format_timestamp(start).c_str(),
                w.last_hour - w.first_hour + 1, w.peak_multiplier,
                w.api_multiplier);
  }
  std::printf("\n  paper: attacks on Jan 15, Jan 16 and Feb 6; auth "
              "activity 5-15x usual;\n  API activity 4.6x / 245x / 6.7x; "
              "manual response decays the attack\n  within ~1 hour.\n");

  std::printf("\n  request-per-hour series around the Jan 16 attack "
              "(day 5):\n");
  std::printf("  %-22s %9s %9s %9s %9s\n", "time", "rpc", "session", "auth",
              "storage");
  const auto& rpc = ddos.rpc_per_hour();
  for (std::size_t i = 0; i < rpc.bins(); ++i) {
    const SimTime t = rpc.bin_start(i);
    if (day_index(t) < 4 || day_index(t) > 6) continue;
    if (hour_of_day(t) % 2 != 0) continue;
    std::printf("  %-22s %9.0f %9.0f %9.0f %9.0f\n",
                format_timestamp(t).c_str(), rpc.value(i),
                ddos.session_per_hour().value(i),
                ddos.auth_per_hour().value(i),
                ddos.storage_per_hour().value(i));
  }
}

// --- §6 user behavior --------------------------------------------------------

void fig06_online_active(Report& rep, const Analyzers& a) {
  rep.section("Fig 6", "Online vs active users per hour");
  const auto online = a.users.online_users_hourly();
  const auto active = a.users.active_users_hourly();
  std::printf("  %-22s %10s %10s %8s\n", "time", "online", "active",
              "share");
  for (std::size_t i = 0; i < online.size(); i += 6) {
    if (day_index(static_cast<SimTime>(i) * kHour) > 6) break;  // one week
    const double share = online[i] > 0 ? active[i] / online[i] : 0;
    std::printf("  %-22s %10.0f %10.0f %7.1f%%\n",
                format_timestamp(static_cast<SimTime>(i) * kHour).c_str(),
                online[i], active[i], share * 100);
  }
  const auto [lo, hi] = a.users.active_share_range();
  rep.row("min active share of online users", 0.0349, lo);
  rep.row("max active share of online users", 0.1625, hi);
  note("paper: the storage workload is light compared to the potential of "
       "the online population");
}

void fig07a_op_mix(Report& rep, const Analyzers& a) {
  const auto& mix = a.mix;
  rep.section("Fig 7(a)", "Number of user operations per type");
  std::printf("  %-20s %14s %12s\n", "operation", "count", "share");
  const double total = static_cast<double>(mix.total_api_ops()) +
                       static_cast<double>(mix.open_sessions()) +
                       static_cast<double>(mix.close_sessions());
  for (const auto& [op, count] : mix.ranked()) {
    std::printf("  %-20s %14llu %11.2f%%\n",
                std::string(to_string(op)).c_str(),
                static_cast<unsigned long long>(count),
                100.0 * static_cast<double>(count) / total);
  }
  std::printf("  %-20s %14llu %11.2f%%\n", "OpenSession",
              static_cast<unsigned long long>(mix.open_sessions()),
              100.0 * static_cast<double>(mix.open_sessions()) / total);
  std::printf("  %-20s %14llu %11.2f%%\n", "CloseSession",
              static_cast<unsigned long long>(mix.close_sessions()),
              100.0 * static_cast<double>(mix.close_sessions()) / total);
  // Paper: download, upload and deletion are the most frequent operations.
  rep.row("data-management ops dominate (bool)", 1.0,
          mix.data_ops_dominate() ? 1.0 : 0.0, Band{1, 1});
  note("paper: download, upload and deletion of files are the most "
       "frequent operations; the protocol imposes little session "
       "overhead because idle clients do not poll");
}

void fig07b_user_traffic(Report& rep, const Analyzers& a) {
  rep.section("Fig 7(b)", "Distribution of data transferred per user");
  rep.row("users with any download in the month", 0.14,
          a.users.downloaders_fraction());
  rep.row("users with any upload in the month", 0.25,
          a.users.uploaders_fraction());

  Ecdf up{a.users.upload_bytes_per_user()};
  Ecdf down{a.users.download_bytes_per_user()};
  std::printf("\n  CDF of transferred bytes per user:\n");
  std::printf("  %-10s %10s %10s\n", "x", "upload", "download");
  for (const auto& [label, x] :
       Grid{{"1B", 1}, {"1KB", 1e3}, {"1MB", 1e6}, {"100MB", 1e8},
            {"1GB", 1e9}, {"10GB", 1e10}}) {
    std::printf("  %-10s %10.3f %10.3f\n", label, up.at(x), down.at(x));
  }
  note("paper: a minority of users is responsible for the storage "
       "workload of U1");
}

void fig07c_lorenz_gini(Report& rep, const Analyzers& a) {
  rep.section("Fig 7(c)", "Lorenz curves of traffic across users");
  const auto up = a.users.upload_lorenz();
  const auto down = a.users.download_lorenz();
  rep.row("Gini coefficient (upload)", 0.8943, up.gini);
  rep.row("Gini coefficient (download)", 0.8966, down.gini);
  rep.row("traffic share of the top 1% of users", 0.656,
          a.users.top_traffic_share(0.01));

  std::printf("\n  Lorenz curve (population share -> traffic share):\n");
  std::printf("  %-12s %10s %10s\n", "population", "upload", "download");
  for (const double p : {0.5, 0.8, 0.9, 0.95, 0.99, 0.999}) {
    std::printf("  bottom %4.1f%% %9.3f %10.3f\n", p * 100,
                1.0 - up.top_share(1.0 - p), 1.0 - down.top_share(1.0 - p));
  }
  const auto classes = a.users.classify_users();
  std::printf("\n  user classes (Drago et al. criteria):\n");
  rep.row("occasional share", 0.8582, classes.occasional);
  rep.row("upload-only share", 0.0722, classes.upload_only);
  rep.row("download-only share", 0.0234, classes.download_only);
  rep.row("heavy share", 0.0462, classes.heavy);
}

void fig08_transitions(Report& rep, const Analyzers& a) {
  rep.section("Fig 8", "Client transition graph through API operations");
  std::printf("  heaviest edges (global transition probability):\n");
  std::printf("  %-20s -> %-20s %10s %10s\n", "from", "to", "P(global)",
              "P(to|from)");
  const auto edges = a.graph.edges();
  for (std::size_t i = 0; i < std::min<std::size_t>(14, edges.size()); ++i) {
    const auto& e = edges[i];
    std::printf("  %-20s -> %-20s %10.3f %10.3f\n",
                std::string(to_string(e.from)).c_str(),
                std::string(to_string(e.to)).c_str(), e.global_probability,
                a.graph.conditional(e.from, e.to));
  }
  auto global = [&](ApiOp from, ApiOp to) {
    for (const auto& e : edges)
      if (e.from == from && e.to == to) return e.global_probability;
    return 0.0;
  };
  std::printf("\n  key self-transitions, GLOBAL probabilities (the edge "
              "labels of Fig. 8):\n");
  rep.row("P(Download -> Download)", 0.167,
          global(ApiOp::kGetContent, ApiOp::kGetContent));
  rep.row("P(Upload -> Upload)", 0.135,
          global(ApiOp::kPutContent, ApiOp::kPutContent));
  rep.row("P(GetDelta -> GetDelta)", 0.158,
          global(ApiOp::kGetDelta, ApiOp::kGetDelta));
  note("paper: after a transfer the next operation is very likely "
       "another transfer (directory-granularity sync, file editing)");
}

void fig09_burstiness(Report& rep, const Analyzers& a) {
  // Power-law approximation in the paper: Upload alpha=1.54, theta=41.37;
  // Unlink alpha=1.44, theta=19.51.
  rep.section("Fig 9", "Burstiness of user inter-operation times");
  const auto up_fit = a.bursts.upload_fit();
  const auto un_fit = a.bursts.unlink_fit();
  // Paper (Table 1): user inter-op times follow a power law with
  // 1 < alpha < 2.
  rep.row("Upload power-law alpha", 1.54, up_fit.alpha, Band{1, 2});
  rep.row("Upload power-law theta (s)", 41.37, up_fit.x_min);
  rep.row("Unlink power-law alpha", 1.44, un_fit.alpha, Band{1, 2});
  rep.row("Unlink power-law theta (s)", 19.51, un_fit.x_min);
  // Paper: interactions are bursty, not Poisson (CV^2 = 1).
  rep.row("Upload CV^2 (Poisson would be 1)", 1.0, a.bursts.upload_cv2(),
          Band{1, kInf});
  rep.row("Unlink CV^2 (Poisson would be 1)", 1.0, a.bursts.unlink_cv2(),
          Band{1, kInf});

  // CCDF series of the Fig. 9(b) log-log plot.
  Ecdf gaps{std::vector<double>(a.bursts.upload_gaps())};
  std::printf("\n  Upload inter-op CCDF P(X >= x):\n");
  for (const double x : {0.1, 1.0, 10.0, 100.0, 1000.0, 1e4, 1e5}) {
    std::printf("    x=%-8.4g : %.5f\n", x, 1.0 - gaps.at(x));
  }
  note("paper: operations arrive in bursts over six orders of magnitude "
       "of time scales; interactions are not Poisson");
}

void fig10_volume_contents(Report& rep, const ParallelSimulation& sim) {
  rep.section("Fig 10",
              "Files and directories per volume (end-of-trace state)");
  const auto stats = analyze_volume_contents(sim.stores());
  rep.row("Pearson correlation files vs dirs", 0.998,
          stats.pearson_files_dirs);
  rep.row("volumes with at least one file", 0.60,
          stats.volumes_with_file_share);
  rep.row("volumes with at least one dir", 0.32,
          stats.volumes_with_dir_share);
  rep.row("volumes with > 1000 files", 0.05, stats.volumes_over_1000_files);

  std::vector<double> files, dirs;
  for (const auto& [f, d] : stats.files_dirs) {
    files.push_back(f);
    dirs.push_back(d);
  }
  Ecdf fe{std::move(files)};
  Ecdf de{std::move(dirs)};
  std::printf("\n  files/dirs per volume CDF:\n");
  std::printf("  %-8s %10s %10s\n", "x", "files", "dirs");
  for (const double x : {0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0}) {
    std::printf("  %-8.0f %10.3f %10.3f\n", x, fe.at(x), de.at(x));
  }
}

void fig11_udf_shared(Report& rep, const ParallelSimulation& sim,
                      std::size_t users) {
  rep.section("Fig 11", "Shared / user-defined volumes across users");
  const auto stats = analyze_volume_ownership(sim.stores(), users);
  rep.row("users with at least one UDF volume", 0.58, stats.users_with_udf);
  rep.row("users with at least one shared volume", 0.018,
          stats.users_with_share);

  Ecdf udfs{std::vector<double>(stats.udfs_per_user)};
  Ecdf shares{std::vector<double>(stats.shares_per_user)};
  std::printf("\n  volumes-per-user CDF:\n");
  std::printf("  %-8s %10s %10s\n", "x", "UDF", "shared");
  for (const double x : {0.0, 1.0, 2.0, 5.0, 10.0, 50.0}) {
    std::printf("  %-8.0f %10.4f %10.4f\n", x, udfs.at(x), shares.at(x));
  }
  note("paper: U1 was used more as a storage service than for "
       "collaborative work; sharing was rare");
}

// --- §7 back-end performance -------------------------------------------------

void print_rpc_panel(const char* title, std::initializer_list<RpcOp> ops,
                     const RpcPerfAnalyzer& rpcs) {
  std::printf("\n  %s:\n", title);
  std::printf("  %-34s %9s %9s %9s %9s %8s\n", "rpc", "p50(ms)", "p90(ms)",
              "p99(ms)", "max(s)", "tail%");
  for (const RpcOp op : ops) {
    auto times = rpcs.service_times(op);
    if (times.size() < 10) continue;
    Ecdf e{std::move(times)};
    std::printf("  %-34s %9.2f %9.2f %9.2f %9.2f %7.1f%%\n",
                std::string(to_string(op)).c_str(),
                e.quantile(0.5) * 1e3, e.quantile(0.9) * 1e3,
                e.quantile(0.99) * 1e3, e.max(),
                rpcs.tail_fraction(op) * 100);
  }
}

void fig12_rpc_cdfs(Report& rep, const Analyzers& a) {
  // Metadata-store service times in the paper's three panels.
  rep.section("Fig 12", "RPC service time distributions (metadata store)");
  print_rpc_panel("(a) file system management",
                  {RpcOp::kCreateUDF, RpcOp::kDeleteVolume,
                   RpcOp::kGetVolumeId, RpcOp::kListShares,
                   RpcOp::kListVolumes, RpcOp::kMakeDir, RpcOp::kMakeFile,
                   RpcOp::kMove, RpcOp::kUnlinkNode, RpcOp::kGetDelta},
                  a.rpcs);
  print_rpc_panel("(b) upload management",
                  {RpcOp::kAddPartToUploadJob, RpcOp::kDeleteUploadJob,
                   RpcOp::kGetReusableContent, RpcOp::kGetUploadJob,
                   RpcOp::kMakeContent, RpcOp::kMakeUploadJob,
                   RpcOp::kSetUploadJobMultipartId,
                   RpcOp::kTouchUploadJob},
                  a.rpcs);
  print_rpc_panel("(c) other read-only RPCs",
                  {RpcOp::kGetUserIdFromToken, RpcOp::kGetFromScratch,
                   RpcOp::kGetNode, RpcOp::kGetRoot, RpcOp::kGetUserData},
                  a.rpcs);
  std::printf("\n");
  // Paper: 7-22% of service times lie far from the median.
  rep.row("tail share far from median (paper range 7-22%)", 0.145,
          a.rpcs.tail_fraction(RpcOp::kMakeFile), Band{0.07, 0.22});
  note("paper: all RPCs exhibit long service-time tails, caused by "
       "hardware/OS/application-level interference (Li et al., SoCC'14)");
}

void fig13_rpc_scatter(Report& rep, const Analyzers& a) {
  rep.section("Fig 13", "Median service time vs frequency per RPC");
  std::printf("  %-34s %-8s %12s %12s\n", "rpc", "class", "count",
              "median(ms)");
  double fastest_read = 1e9, slowest_cascade = 0;
  for (const auto& p : a.rpcs.scatter()) {
    std::printf("  %-34s %-8s %12llu %12.2f\n",
                std::string(to_string(p.op)).c_str(),
                std::string(to_string(p.rpc_class)).c_str(),
                static_cast<unsigned long long>(p.count),
                p.median_s * 1e3);
    if (p.rpc_class == RpcClass::kRead)
      fastest_read = std::min(fastest_read, p.median_s);
    if (p.rpc_class == RpcClass::kCascade)
      slowest_cascade = std::max(slowest_cascade, p.median_s);
  }
  std::printf("\n");
  // Paper: cascade RPCs are more than an order of magnitude slower than
  // the fastest reads.
  rep.row("slowest cascade / fastest read (x)", 10.0,
          fastest_read > 0 ? slowest_cascade / fastest_read : 0.0,
          Band{10, kInf});
  note("paper: cascade RPCs are more than an order of magnitude slower "
       "than the fastest reads, but relatively infrequent; writes are "
       "slower than reads at comparable frequency");
}

void fig14_load_balance(Report& rep, const Analyzers& a) {
  const auto& load = a.load;
  rep.section("Fig 14", "Load balancing of API servers and shards");
  std::printf("  API machines, requests/hour (first 48h):\n");
  std::printf("  %-8s %12s %12s %8s\n", "hour", "mean", "stddev", "cv");
  const auto api = load.api_load_hourly();
  for (std::size_t h = 0; h < std::min<std::size_t>(48, api.size()); h += 4) {
    std::printf("  %-8zu %12.1f %12.1f %8.2f\n", h, api[h].mean,
                api[h].stddev,
                api[h].mean > 0 ? api[h].stddev / api[h].mean : 0.0);
  }
  std::printf("\n  metadata shards, requests/minute (first hour):\n");
  std::printf("  %-8s %12s %12s %8s\n", "minute", "mean", "stddev", "cv");
  const auto shards = load.shard_load_minutely();
  for (std::size_t m = 600; m < std::min<std::size_t>(660, shards.size());
       m += 10) {
    std::printf("  %-8zu %12.2f %12.2f %8.2f\n", m, shards[m].mean,
                shards[m].stddev,
                shards[m].mean > 0 ? shards[m].stddev / shards[m].mean
                                   : 0.0);
  }
  std::printf("\n");
  rep.row("short-window API cv (stddev/mean)", 0.35, load.api_short_term_cv());
  rep.row("short-window shard cv", 0.8, load.shard_short_term_cv());
  rep.row("long-term shard cv (paper: 4.9%)", 0.049,
          load.shard_long_term_cv());
  rep.row("long-term API cv", 0.1, load.api_long_term_cv());
  note("paper: load variance across servers is high in short windows "
       "(uneven users, asymmetric op costs, bursty arrivals) but the "
       "balance is adequate in the long term; absolute long-term cv "
       "shrinks with population size");
}

void fig15_auth_sessions(Report& rep, const Analyzers& a) {
  const auto& sessions = a.sessions;
  rep.section("Fig 15", "Authentication activity and session requests");
  std::printf("  requests per hour (first week, every 6h):\n");
  std::printf("  %-22s %12s %12s\n", "time", "auth req", "session req");
  const auto& auth = sessions.auth_requests_hourly();
  const auto& sess = sessions.session_requests_hourly();
  for (std::size_t i = 0; i < auth.bins() && i < 7 * 24; i += 6) {
    std::printf("  %-22s %12.0f %12.0f\n",
                format_timestamp(auth.bin_start(i)).c_str(), auth.value(i),
                sess.value(i));
  }
  std::printf("\n");
  rep.row("auth requests failing", 0.0276, sessions.auth_failure_fraction());
  rep.row("Monday peak / weekend peak", 1.15,
          sessions.monday_weekend_peak_ratio());
  note("paper: authentication activity is 50-60% higher in central day "
       "hours and ~15% higher on Mondays than weekends; the inner plot "
       "shows session requests spiking under DDoS (see Fig 5)");
}

void fig16_session_lengths(Report& rep, const Analyzers& a) {
  const auto& sessions = a.sessions;
  rep.section("Fig 16", "Session lengths and storage operations per session");
  rep.row("sessions shorter than 1 second", 0.32,
          sessions.fraction_shorter_than(kSecond));
  rep.row("sessions shorter than 8 hours", 0.97,
          sessions.fraction_shorter_than(8 * kHour));
  rep.row("active sessions (>=1 storage op)", 0.0557,
          sessions.active_session_fraction());

  Ecdf all{std::vector<double>(sessions.session_lengths())};
  std::printf("\n  session length CDF (seconds):\n");
  std::printf("  %-8s %10s", "x", "all");
  const bool have_active = sessions.active_session_lengths().size() > 10;
  if (have_active) std::printf(" %10s", "active");
  std::printf("\n");
  Ecdf active = have_active
                    ? Ecdf{std::vector<double>(
                          sessions.active_session_lengths())}
                    : all;
  for (const auto& [label, x] :
       Grid{{"0.01s", 0.01}, {"1s", 1}, {"60s", 60}, {"1h", 3600},
            {"8h", 28800}, {"1d", 86400}, {"1w", 604800}}) {
    std::printf("  %-8s %10.3f", label, all.at(x));
    if (have_active) std::printf(" %10.3f", active.at(x));
    std::printf("\n");
  }

  if (!sessions.ops_per_active_session().empty()) {
    Ecdf ops{std::vector<double>(sessions.ops_per_active_session())};
    std::printf("\n  storage ops per active session:\n");
    // Paper: 80% of active sessions perform at most 92 storage operations.
    rep.row("80th percentile (paper: <= 92 ops)", 92.0, ops.quantile(0.8),
            Band{0, 92});
    rep.row("ops carried by busiest 20% of sessions", 0.967,
            sessions.top_sessions_op_share(0.2));
  }
  note("paper: domestic working habits dominate; NAT/firewalls force many "
       "sub-second reconnects; cold sessions waste server connections");
}

// --- §9 improvement proposals ------------------------------------------------

void sec9_cold_sessions(Report& rep, const Analyzers& a) {
  rep.section("§9 cold sessions", "Connection-time held by cold sessions");
  double all_hours = 0, active_hours = 0;
  for (const double s : a.sessions.session_lengths()) all_hours += s / 3600.0;
  for (const double s : a.sessions.active_session_lengths())
    active_hours += s / 3600.0;
  std::printf("  connection-time held:  all=%.0f h   active=%.0f h   "
              "cold=%.0f h\n",
              all_hours, active_hours, all_hours - active_hours);
  rep.row("connection-time held by cold sessions", kUnstated,
          all_hours > 0 ? (all_hours - active_hours) / all_hours : 0.0);
  note("paper (§7.3): only 5.57% of sessions are active (Fig 16), so a "
       "provider may decide push vs pull per session to limit open TCP "
       "connections");
}

void sec9_dedup(Report& rep, const Analyzers& a) {
  rep.section("§9 dedup", "Upload transfers saved by file-based dedup");
  const double logical = static_cast<double>(a.traffic.upload_bytes());
  const double wire = static_cast<double>(a.traffic.upload_wire_bytes());
  std::printf("  upload traffic:  logical=%s   on the wire=%s\n",
              format_bytes(logical).c_str(), format_bytes(wire).c_str());
  rep.row("upload wire bytes saved by dedup", kUnstated,
          logical > 0 ? 1.0 - wire / logical : 0.0);
  note("paper: file-based dedup could readily save 17% of the storage "
       "costs (dr, Fig 4(a)); a duplicate is not transferred either (§3.3)");
}

// Share of an updated file's bytes that a delta-capable client would
// still ship. The paper gives no figure; 0.15 assumes an edit rewrites
// a small part of the file (e.g. an mp3 tag).
constexpr double kDeltaWireShare = 0.15;

void sec9_delta_updates(Report& rep, const Analyzers& a) {
  rep.section("§9 delta updates", "Upload traffic a delta-update client saves");
  const double update_share = a.traffic.update_traffic_fraction();
  std::printf("  updates carry %.1f%% of upload wire bytes; a delta client "
              "ships %.0f%% of each\n",
              100.0 * update_share, 100.0 * kDeltaWireShare);
  // Paper (§5.1): updates are 18.5% of upload traffic; the same model on
  // that share.
  rep.row("upload wire bytes saved by delta updates",
          0.185 * (1.0 - kDeltaWireShare),
          update_share * (1.0 - kDeltaWireShare));
  note("paper: the U1 client lacked delta updates, so metadata-only edits "
       "re-upload whole files");
}

void sec9_cache(Report& rep, const Analyzers& a) {
  rep.section("§9 cache", "Server-side LRU cache over the downloads");
  const auto& caches = a.cache.caches();
  std::printf("  downloads: %llu\n",
              static_cast<unsigned long long>(caches.front().hits() +
                                              caches.front().misses()));
  std::printf("  %-12s %12s %14s\n", "cache size", "hit ratio",
              "bytes served");
  for (const ContentCache& c : caches) {
    std::printf("  %-12s %11.1f%% %14s\n",
                format_bytes(static_cast<double>(c.capacity_bytes())).c_str(),
                100.0 * c.hit_rate(),
                format_bytes(static_cast<double>(c.hit_bytes())).c_str());
  }
  for (std::size_t i = 0; i < caches.size(); ++i) {
    const std::string metric = "hit ratio, " +
                               std::to_string(CacheSweep::kSizesGB[i]) +
                               " GB cache";
    rep.row(metric.c_str(), kUnstated, caches[i].hit_rate());
  }
  note("paper (§5.2): RAR times are short and reads-per-file long-tailed, "
       "so a cache (e.g. Memcached) would cut S3 reads");
}

void sec9_shard_sweep(Report& rep) {
  rep.section("§9 shard sweep", "Metadata shard count under a write storm");
  std::printf("  64 users, Poisson arrivals at ~80%% of one master's write "
              "capacity.\n");
  std::printf("  %-8s %14s %14s %14s\n", "shards", "mean op (ms)",
              "p99 (ms)", "shard cv");
  const std::size_t sweep[] = {1, 2, 5, 10, 20, 40};
  std::vector<double> mean_ms;
  for (const std::size_t shards : sweep) {
    BackendConfig cfg;
    cfg.shards = shards;
    cfg.auth_failure_rate = 0.0;
    cfg.seed = 99;
    NullSink sink;
    U1Backend backend(cfg, sink);

    constexpr unsigned kUsers = 64;
    std::vector<SessionId> sessions;
    std::vector<UserAccount> accounts;
    for (unsigned u = 1; u <= kUsers; ++u) {
      accounts.push_back(backend.register_user(UserId{u}, 0));
      sessions.push_back(backend.connect(UserId{u}, 0).session);
    }

    // One shard master serves ~1/6ms writes => ~170/s. Drive the cluster
    // at 140 make_file()/s for 2 simulated minutes.
    Rng rng(7);
    ExponentialDist gap(140.0);  // arrivals per second
    RunningStats latency;
    std::vector<double> latencies;
    std::vector<std::uint64_t> per_shard(shards, 0);
    SimTime t = kMinute;
    for (int i = 0; i < 140 * 120; ++i) {
      t += from_seconds(gap.sample(rng));
      const std::size_t u = rng.below(kUsers);
      const auto mk = backend.make_file(
          sessions[u], accounts[u].root_volume, accounts[u].root_dir,
          "f" + std::to_string(i), "txt", t);
      const double ms = to_seconds(mk.end - t) * 1e3;
      latency.add(ms);
      latencies.push_back(ms);
      per_shard[backend.store().shard_of(UserId{u + 1}).value - 1]++;
    }
    RunningStats balance;
    for (const auto n : per_shard) balance.add(static_cast<double>(n));
    std::sort(latencies.begin(), latencies.end());
    std::printf("  %-8zu %14.2f %14.2f %14.3f\n", shards, latency.mean(),
                latencies[latencies.size() * 99 / 100], balance.cv());
    mean_ms.push_back(latency.mean());
  }
  for (std::size_t i = 0; i < mean_ms.size(); ++i) {
    const std::string metric =
        "mean MakeFile time at " + std::to_string(sweep[i]) + " shards (ms)";
    rep.row(metric.c_str(), kUnstated, mean_ms[i]);
  }
  note("paper (§7.2): the 10-shard cluster served 1.29M users without "
       "congestion; a single master saturates under the same load");
}

/// The same month with the AnomalyGuard purging abusive accounts as it
/// detects them, against U1's manual response (the main run), whose
/// leech traffic is `manual_leech_bytes`.
void sec9_auto_guard(Report& rep, const SimulationConfig& cfg,
                     std::size_t threads, double manual_leech_bytes) {
  SimulationConfig guarded = cfg;
  guarded.auto_countermeasures = true;
  LeechMeter leech;
  ParallelSimulation sim(guarded, leech, threads);
  const SimulationReport report = sim.run();
  const double auto_leech_bytes = static_cast<double>(leech.bytes());

  rep.section("§9 auto-guard", "Manual DDoS response vs automatic purging");
  std::printf("  leech traffic:  manual (U1)=%s   auto-guard=%s\n",
              format_bytes(manual_leech_bytes).c_str(),
              format_bytes(auto_leech_bytes).c_str());
  rep.row("leech traffic eliminated by the auto-guard", kUnstated,
          manual_leech_bytes > 0
              ? 1.0 - auto_leech_bytes / manual_leech_bytes
              : 0.0);
  rep.row("first auto response after attack start (min)", kUnstated,
          to_seconds(report.first_auto_response_delay) / 60.0);
  note("paper (§5.4): 'the reaction to these attacks was not automatic ... "
       "further research is needed to build automatic countermeasures'");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  if (out_path.empty())
    out_path = std::string(U1SIM_REPO_ROOT) + "/BENCH_paper.json";

  const auto start = std::chrono::steady_clock::now();
  const auto cfg = standard_config(env_users(), env_days());
  const std::size_t threads = env_threads();
  Report rep;
  double manual_leech_bytes = 0;
  {
    // Scoped so that freeing the analyzers' and the run's state, which
    // takes seconds at the default scale, counts toward wall_s.
    Analyzers a(cfg, cfg.days * kDay);
    const auto sim = run_into(a.fanout, cfg, threads);
    a.users.finalize();

    table1_findings(rep, a);
    table3_trace_summary(rep, a);
    fig02a_traffic_timeseries(rep, a);
    fig02b_size_categories(rep, a);
    fig02c_rw_ratio(rep, a);
    fig03a_after_write(rep, a);
    fig03b_after_read(rep, a);
    fig03c_lifetime(rep, a);
    fig04a_dedup(rep, a, *sim);
    fig04b_sizes_by_ext(rep, a);
    fig04c_type_shares(rep, a);
    fig05_ddos(rep, a);
    fig06_online_active(rep, a);
    fig07a_op_mix(rep, a);
    fig07b_user_traffic(rep, a);
    fig07c_lorenz_gini(rep, a);
    fig08_transitions(rep, a);
    fig09_burstiness(rep, a);
    fig10_volume_contents(rep, *sim);
    fig11_udf_shared(rep, *sim, cfg.users);
    fig12_rpc_cdfs(rep, a);
    fig13_rpc_scatter(rep, a);
    fig14_load_balance(rep, a);
    fig15_auth_sessions(rep, a);
    fig16_session_lengths(rep, a);
    sec9_cold_sessions(rep, a);
    sec9_dedup(rep, a);
    sec9_delta_updates(rep, a);
    sec9_cache(rep, a);
    manual_leech_bytes = static_cast<double>(a.leech.bytes());
  }
  // After the main run's state is freed, so the second month's peak does
  // not stack on the first's: glibc keeps freed heap pages resident until
  // trimmed (about 80 MB at 8000 x 30).
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  sec9_shard_sweep(rep);
  sec9_auto_guard(rep, cfg, threads, manual_leech_bytes);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  const double peak_rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;

  const auto [gated, held] = rep.gated_and_held();
  std::printf("\n# %d of %d banded rows hold; wall %.2f s, peak RSS %.0f MB\n",
              held, gated, wall_s, peak_rss_mb);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_paper: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"paper\",\n");
  std::fprintf(f, "  \"users\": %zu,\n  \"days\": %d,\n  \"seed\": %llu,\n",
               cfg.users, cfg.days,
               static_cast<unsigned long long>(cfg.seed));
  std::fprintf(f, "  \"threads\": %zu,\n  \"hardware_concurrency\": %u,\n",
               threads, std::thread::hardware_concurrency());
  std::fprintf(f, "  \"wall_s\": %.3f,\n  \"peak_rss_mb\": %.1f,\n", wall_s,
               peak_rss_mb);
  rep.write_rows(f);
  std::fprintf(f, "\n}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "bench_paper: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}
