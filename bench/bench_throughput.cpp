// Shard-parallel engine throughput + determinism oracle.
//
// Runs the same (users, days, seed) simulation under the parallel engine
// at 1, 2, 4 and 8 worker threads, hashing every emitted trace record in
// stream order. The 1-thread run executes the identical epoch/merge
// machinery inline and is the correctness oracle: all four SHA-1s must
// match, byte for byte, or the engine is broken. In CSV mode the bench
// first runs the multi-process engine at procs x threads cells of
// {2x1, 2x2, 4x1, 1x1} (sim/distributed.hpp): every cell must hash to
// the SAME SHA as the in-process runs, and each cell records its
// per-worker peak RSS — the 4-proc max-worker figure over the 1x1 peak
// is the engine's 1/P memory claim, written to the JSON. Wall-clock, records/sec,
// the per-epoch phase breakdown (compute / merge / flush / flush-stall)
// and the trace-buffer memory counters (the flush ring's ring_bytes,
// ring_bytes_max and ring_releases, the bootstrap history's
// bootstrap_bytes_max; in bin mode also the writer's
// buffered_bytes_max) are written to BENCH_throughput.json at the repo root
// (honest numbers: the file records the machine's hardware concurrency —
// speedups are bounded by the cores actually present, and a single-core
// host is flagged loudly because every thread count then shares one
// core and flat scaling is the *expected* result).
//
// Flags:
//   --repeat N   run each thread count N times; report min and median
//                wall time (min is the steady-state number, median the
//                honest one)
//   --out PATH   write the JSON somewhere else (the perf ctest smoke
//                uses this to avoid clobbering the repo-root artifact)
//
// Environment:
//   U1SIM_TRACE_FORMAT=csv|bin   what the write path serializes. csv
//       (default) hashes the historical CSV row stream — the SHA every
//       engine version must reproduce. bin writes real .u1b files to a
//       scratch directory and hashes the output bytes (sorted by name),
//       the determinism oracle for the binary format; write_s then
//       measures binary serialization.
//
// The run also fails (exit 1) if the calendar queue's scanned-per-find
// exceeds kCalScanBand on any run with enough finds to be meaningful.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "sim/distributed.hpp"
#include "sim/parallel.hpp"
#include "trace/binlog.hpp"
#include "trace/sink.hpp"
#include "util/sha1.hpp"

namespace {

/// Ceiling on the calendar queue's mean buckets scanned per find.
constexpr double kCalScanBand = 24.0;

/// One multi-process cell: procs worker processes × threads per worker.
struct DistResult {
  std::size_t procs = 0;
  std::size_t threads = 0;
  double wall = 0.0;
  std::uint64_t records = 0;
  std::string trace_sha1;
  std::vector<std::uint64_t> worker_rss_kb;

  std::uint64_t max_worker_rss_kb() const {
    std::uint64_t m = 0;
    for (const std::uint64_t kb : worker_rss_kb) m = std::max(m, kb);
    return m;
  }
};

/// Runs one (procs, threads) cell of the distributed engine, hashing the
/// coordinator-merged CSV row stream. The forked cells MUST run before
/// the parent builds any engine state: a child's ru_maxrss inherits the
/// parent's high-water mark at fork, so a fat parent would hide the 1/P
/// memory drop this bench exists to record.
DistResult run_distributed(const u1::SimulationConfig& cfg, std::size_t procs,
                           std::size_t threads) {
  DistResult out;
  out.procs = procs;
  out.threads = threads;
  u1::Sha1 hasher;
  std::string row;
  u1::CallbackSink sink([&](const u1::TraceRecord& r) {
    ++out.records;
    row.clear();
    r.append_csv_row(row);
    hasher.update(row);
  });
  const auto t0 = std::chrono::steady_clock::now();
  u1::DistributedSimulation sim(cfg, sink, procs, threads);
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall = std::chrono::duration<double>(t1 - t0).count();
  out.trace_sha1 = hasher.finish().hex();
  out.worker_rss_kb = sim.worker_peak_rss_kb();
  return out;
}

struct RunResult {
  std::size_t threads = 0;
  std::vector<double> walls;  // one per repeat, run order
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;  // serialized trace bytes (rows or .u1b files)
  std::string trace_sha1;
  std::size_t flush_depth = 0;  // ring depth K the engine resolved
  u1::ParallelSimulation::EpochPhases phases;  // first repeat
  /// bin only: BinaryLogfileWriter::buffered_bytes_max(), first repeat.
  std::uint64_t writer_buffered_max = 0;
  u1::SimulationReport report;

  double wall_min() const {
    return *std::min_element(walls.begin(), walls.end());
  }
  double wall_median() const {
    std::vector<double> sorted = walls;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }
};

/// SHA-1 over every regular file in `dir`, visited in name order: each
/// file's name bytes, then its content bytes. Byte-identical output
/// directories — the binary-format determinism oracle — hash equal.
std::string hash_directory(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  u1::Sha1 hasher;
  std::vector<char> buf(1 << 20);
  for (const auto& path : paths) {
    hasher.update(std::string_view(path.filename().string()));
    std::ifstream in(path, std::ios::binary);
    while (in) {
      in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
      const auto got = static_cast<std::size_t>(in.gcount());
      if (got == 0) break;
      hasher.update(std::string_view(buf.data(), got));
    }
  }
  return hasher.finish().hex();
}

RunResult run_once(const u1::SimulationConfig& cfg, std::size_t threads,
                   int repeats, u1::TraceFormat format,
                   const std::filesystem::path& scratch_base) {
  RunResult out;
  out.threads = threads;
  for (int rep = 0; rep < repeats; ++rep) {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::string sha;
    if (format == u1::TraceFormat::kCsv) {
      u1::Sha1 hasher;
      // One reused row buffer: append_csv_row produces the same byte
      // stream the old per-field to_csv() loop hashed (every field
      // followed by ',', then '\n') without materializing 24 strings per
      // record — the sink IS the flush hot path being measured.
      std::string row;
      u1::CallbackSink sink([&](const u1::TraceRecord& r) {
        ++records;
        row.clear();
        r.append_csv_row(row);
        bytes += row.size();
        hasher.update(row);
      });
      const auto t0 = std::chrono::steady_clock::now();
      u1::ParallelSimulation sim(cfg, sink, threads);
      const u1::SimulationReport report = sim.run();
      const auto t1 = std::chrono::steady_clock::now();
      out.walls.push_back(std::chrono::duration<double>(t1 - t0).count());
      sha = hasher.finish().hex();
      if (rep == 0) {
        out.flush_depth = sim.flush_depth();
        out.phases = sim.phases();
        out.report = report;
      }
    } else {
      const std::filesystem::path dir =
          scratch_base / ("t" + std::to_string(threads) + "_r" +
                          std::to_string(rep));
      std::filesystem::remove_all(dir);
      u1::BinaryLogfileWriter writer(dir);
      const auto t0 = std::chrono::steady_clock::now();
      u1::ParallelSimulation sim(cfg, writer, threads);
      const u1::SimulationReport report = sim.run();
      writer.close();  // trailing stripes + sidecars belong to the run
      const auto t1 = std::chrono::steady_clock::now();
      out.walls.push_back(std::chrono::duration<double>(t1 - t0).count());
      records = writer.records_written();
      bytes = writer.bytes_written();
      sha = hash_directory(dir);
      std::filesystem::remove_all(dir);
      if (rep == 0) {
        out.flush_depth = sim.flush_depth();
        out.phases = sim.phases();
        out.writer_buffered_max = writer.buffered_bytes_max();
        out.report = report;
      }
    }
    if (rep == 0) {
      out.records = records;
      out.bytes = bytes;
      out.trace_sha1 = sha;
    } else if (sha != out.trace_sha1 || records != out.records) {
      // Repeats of the same configuration must be bit-identical runs;
      // mark the result broken so the oracle check below fails loudly.
      out.trace_sha1 = "REPEAT-DIVERGED:" + sha;
    }
  }
  return out;
}

void print_phases(const RunResult& r, u1::TraceFormat format) {
  const auto& p = r.phases;
  std::printf("    phases: epochs=%llu compute=%.2fs merge=%.2fs "
              "flush=%.2fs write=%.2fs flush_stall=%.2fs ring_stall=%.2fs "
              "plan_rebuilds=%llu bootstrap=%.2fs bootstrap_flush=%.2fs\n",
              static_cast<unsigned long long>(p.epochs), p.compute_s,
              p.merge_s, p.flush_s, p.write_s, p.flush_stall_s,
              p.ring_stall_s,
              static_cast<unsigned long long>(p.plan_rebuilds),
              p.bootstrap_s, p.bootstrap_flush_s);
  const double per_find = p.cal_finds > 0
                              ? static_cast<double>(p.cal_scanned) /
                                    static_cast<double>(p.cal_finds)
                              : 0.0;
  std::printf("    calendar: rebuilds=%llu finds=%llu scanned_per_find=%.2f\n",
              static_cast<unsigned long long>(p.cal_rebuilds),
              static_cast<unsigned long long>(p.cal_finds), per_find);
  std::printf("    memory: ring_bytes=%.1fMB ring_bytes_max=%.1fMB "
              "ring_releases=%llu bootstrap_bytes_max=%.1fMB",
              static_cast<double>(p.ring_bytes) / 1e6,
              static_cast<double>(p.ring_bytes_max) / 1e6,
              static_cast<unsigned long long>(p.ring_releases),
              static_cast<double>(p.bootstrap_bytes_max) / 1e6);
  if (format == u1::TraceFormat::kBinary)
    std::printf(" writer_buffered_max=%.1fMB",
                static_cast<double>(r.writer_buffered_max) / 1e6);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace u1;
  using namespace u1::bench;

  int repeats = 1;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--repeat N] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  if (out_path.empty()) {
#ifdef U1SIM_REPO_ROOT
    out_path = std::string(U1SIM_REPO_ROOT) + "/BENCH_throughput.json";
#else
    out_path = "BENCH_throughput.json";
#endif
  }

  const auto cfg = standard_config(env_users(), env_days());
  const unsigned hw = std::thread::hardware_concurrency();
  const bool single_core = hw <= 1;
  const TraceFormat format = trace_format_from_env();
  const std::filesystem::path scratch_base =
      std::filesystem::temp_directory_path() /
      ("u1bench_bin_" +
       std::to_string(static_cast<unsigned long long>(
           std::chrono::steady_clock::now().time_since_epoch().count())));

  header("Throughput", "Deterministic shard-parallel engine scaling");
  std::printf("  users=%zu days=%d seed=%llu hardware_concurrency=%u "
              "repeats=%d format=%s\n",
              cfg.users, cfg.days,
              static_cast<unsigned long long>(cfg.seed), hw, repeats,
              std::string(to_string(format)).c_str());
  if (single_core) {
    std::printf(
        "\n  *** WARNING: hardware_concurrency=%u — SINGLE-CORE HOST ***\n"
        "  *** All thread counts time-slice one core; flat (~1.0x)    ***\n"
        "  *** scaling is the EXPECTED result here. Only the trace    ***\n"
        "  *** determinism check is meaningful on this machine.       ***\n\n",
        hw);
  }

  // Multi-process cells (CSV only: the cells hash the same row stream
  // the in-process runs hash, so one SHA spans both sections). Forked
  // cells first — see run_distributed — then the inline 1x1 cell, whose
  // worker_rss is this process's peak and the denominator of the 1/P
  // memory claim.
  std::vector<DistResult> dist;
  if (format == u1::TraceFormat::kCsv) {
    const std::pair<std::size_t, std::size_t> cells[] = {
        {2, 1}, {2, 2}, {4, 1}, {1, 1}};
    for (const auto& [procs, threads] : cells) {
      dist.push_back(run_distributed(cfg, procs, threads));
      const DistResult& d = dist.back();
      std::printf("  procs=%zu threads=%zu  wall=%8.2fs  records=%llu  "
                  "max_worker_rss_kb=%llu  sha1=%s\n",
                  d.procs, d.threads, d.wall,
                  static_cast<unsigned long long>(d.records),
                  static_cast<unsigned long long>(d.max_worker_rss_kb()),
                  d.trace_sha1.c_str());
    }
  }
  bool dist_identical = true;
  for (const DistResult& d : dist) {
    if (d.trace_sha1 != dist.front().trace_sha1 ||
        d.records != dist.front().records)
      dist_identical = false;
  }
  double rss_ratio_4p = 0.0;
  if (!dist.empty()) {
    std::printf("  trace byte-identical across process splits: %s\n",
                dist_identical ? "yes" : "NO — DETERMINISM BROKEN");
    // dist.back() is the inline 1x1 cell; the 4-proc cell is the widest.
    const std::uint64_t single = dist.back().max_worker_rss_kb();
    for (const DistResult& d : dist) {
      if (d.procs == 4 && single > 0)
        rss_ratio_4p = static_cast<double>(d.max_worker_rss_kb()) /
                       static_cast<double>(single);
    }
    std::printf("  4-proc max worker RSS / single-process peak: %.3f\n",
                rss_ratio_4p);
  }

  std::vector<RunResult> runs;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    runs.push_back(run_once(cfg, threads, repeats, format, scratch_base));
    const RunResult& r = runs.back();
    std::printf("  threads=%zu  wall_min=%8.2fs  wall_median=%8.2fs  "
                "records=%llu  rec/s=%10.0f  sha1=%s\n",
                r.threads, r.wall_min(), r.wall_median(),
                static_cast<unsigned long long>(r.records),
                static_cast<double>(r.records) / r.wall_min(),
                r.trace_sha1.c_str());
    print_phases(r, format);
  }

  bool identical = true;
  for (const RunResult& r : runs) {
    if (r.trace_sha1 != runs.front().trace_sha1 ||
        r.records != runs.front().records)
      identical = false;
  }
  // One SHA across BOTH sections: the distributed cells merged the same
  // byte stream the in-process engine emits.
  if (!dist.empty() && (dist.front().trace_sha1 != runs.front().trace_sha1 ||
                        dist.front().records != runs.front().records)) {
    identical = false;
  }
  std::printf("  trace byte-identical across thread counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");

  // Calendar-queue regression band: scanned-per-find creeping up means
  // the bucket-width heuristic degraded to linear scans. Only runs with
  // enough finds to average out warm-up are held to the band.
  constexpr std::uint64_t kCalMinFinds = 5000;
  bool cal_ok = true;
  for (const RunResult& r : runs) {
    const auto& p = r.phases;
    if (p.cal_finds < kCalMinFinds) continue;
    const double per_find = static_cast<double>(p.cal_scanned) /
                            static_cast<double>(p.cal_finds);
    if (per_find > kCalScanBand) {
      cal_ok = false;
      std::printf("  *** calendar-queue REGRESSION: threads=%zu "
                  "scanned_per_find=%.2f exceeds band %.2f ***\n",
                  r.threads, per_find, kCalScanBand);
    }
  }
  std::printf("  calendar scanned-per-find within band %.2f: %s\n",
              kCalScanBand, cal_ok ? "yes" : "NO — REGRESSION");

  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"shard_parallel_throughput\",\n");
    std::fprintf(f, "  \"users\": %zu,\n", cfg.users);
    std::fprintf(f, "  \"days\": %d,\n", cfg.days);
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(cfg.seed));
    std::fprintf(f, "  \"repeats\": %d,\n", repeats);
    std::fprintf(f, "  \"format\": \"%s\",\n",
                 std::string(to_string(format)).c_str());
    std::fprintf(f, "  \"cal_scan_band\": %.2f,\n", kCalScanBand);
    std::fprintf(f, "  \"cal_band_ok\": %s,\n", cal_ok ? "true" : "false");
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
    std::fprintf(f, "  \"flush_depth\": %zu,\n",
                 runs.empty() ? std::size_t{0} : runs.front().flush_depth);
    std::fprintf(f, "  \"single_core_host\": %s,\n",
                 single_core ? "true" : "false");
    std::fprintf(f, "  \"flat_scaling_expected\": %s,\n",
                 single_core ? "true" : "false");
    std::fprintf(f, "  \"trace_byte_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(f, "  \"peak_rss_kb\": %llu,\n",
                 static_cast<unsigned long long>(u1::bench::peak_rss_kb()));
    std::fprintf(f, "  \"heap_in_use_kb\": %llu,\n",
                 static_cast<unsigned long long>(u1::bench::heap_in_use_kb()));
    std::fprintf(f, "  \"distributed_trace_identical\": %s,\n",
                 dist_identical ? "true" : "false");
    std::fprintf(f, "  \"rss_ratio_4p_vs_1p\": %.3f,\n", rss_ratio_4p);
    std::fprintf(f, "  \"distributed\": [\n");
    for (std::size_t i = 0; i < dist.size(); ++i) {
      const DistResult& d = dist[i];
      std::fprintf(f,
                   "    {\"procs\": %zu, \"threads\": %zu, "
                   "\"wall_seconds\": %.3f, \"records\": %llu, "
                   "\"trace_sha1\": \"%s\", \"worker_peak_rss_kb\": [",
                   d.procs, d.threads, d.wall,
                   static_cast<unsigned long long>(d.records),
                   d.trace_sha1.c_str());
      for (std::size_t w = 0; w < d.worker_rss_kb.size(); ++w)
        std::fprintf(f, "%s%llu", w > 0 ? ", " : "",
                     static_cast<unsigned long long>(d.worker_rss_kb[w]));
      std::fprintf(f, "]}%s\n", i + 1 < dist.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = runs[i];
      const auto& p = r.phases;
      std::fprintf(
          f,
          "    {\"threads\": %zu, \"wall_seconds_min\": %.3f, "
          "\"wall_seconds_median\": %.3f, \"records\": %llu, "
          "\"bytes\": %llu, "
          "\"records_per_sec\": %.0f, \"speedup_vs_1t\": %.3f, "
          "\"trace_sha1\": \"%s\",\n"
          "     \"phases\": {\"epochs\": %llu, \"compute_s\": %.3f, "
          "\"merge_s\": %.3f, \"flush_s\": %.3f, \"write_s\": %.3f, "
          "\"flush_stall_s\": %.3f, \"ring_stall_s\": %.3f, "
          "\"plan_rebuilds\": %llu, \"cal_rebuilds\": %llu, "
          "\"cal_finds\": %llu, \"cal_scanned\": %llu, "
          "\"cal_scanned_per_find\": %.2f, \"ring_bytes\": %llu, "
          "\"ring_bytes_max\": %llu, \"bootstrap_bytes_max\": %llu, "
          "\"ring_releases\": %llu, "
          "\"bootstrap_s\": %.3f, \"bootstrap_flush_s\": %.3f}",
          r.threads, r.wall_min(), r.wall_median(),
          static_cast<unsigned long long>(r.records),
          static_cast<unsigned long long>(r.bytes),
          static_cast<double>(r.records) / r.wall_min(),
          runs.front().wall_min() / r.wall_min(), r.trace_sha1.c_str(),
          static_cast<unsigned long long>(p.epochs), p.compute_s, p.merge_s,
          p.flush_s, p.write_s, p.flush_stall_s, p.ring_stall_s,
          static_cast<unsigned long long>(p.plan_rebuilds),
          static_cast<unsigned long long>(p.cal_rebuilds),
          static_cast<unsigned long long>(p.cal_finds),
          static_cast<unsigned long long>(p.cal_scanned),
          p.cal_finds > 0 ? static_cast<double>(p.cal_scanned) /
                                static_cast<double>(p.cal_finds)
                          : 0.0,
          static_cast<unsigned long long>(p.ring_bytes),
          static_cast<unsigned long long>(p.ring_bytes_max),
          static_cast<unsigned long long>(p.bootstrap_bytes_max),
          static_cast<unsigned long long>(p.ring_releases), p.bootstrap_s,
          p.bootstrap_flush_s);
      if (format == TraceFormat::kBinary)
        std::fprintf(f, ",\n     \"writer_buffered_bytes_max\": %llu",
                     static_cast<unsigned long long>(r.writer_buffered_max));
      std::fprintf(f, "}%s\n", i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", out_path.c_str());
  } else {
    std::printf("  could not open %s for writing\n", out_path.c_str());
  }
  return identical && dist_identical && cal_ok ? 0 : 1;
}
