// month_generate / month_generate_2p: the month-scale trace written in the
// binary format, by the in-process engine (2 worker threads) or the
// multi-process engine (2 worker processes x 1 thread). Every pass runs
// in its own child process.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "sim/distributed.hpp"
#include "sim/parallel.hpp"
#include "trace/binlog.hpp"
#include "workloads.hpp"

namespace u1b {

namespace {

namespace fs = std::filesystem;

/// Output-directory SHA-1 of the 1-thread ParallelSimulation oracle at
/// the default cell, measured once. Every run also recomputes the oracle
/// (or reads it from the per-binary cache) for its own seed and scale.
struct PinnedSha {
  std::size_t users;
  int days;
  std::uint64_t seed;
  const char* sha;
};
constexpr PinnedSha kPinned[] = {
    {4000, 14, 20140111, "6436e29093819bd79e4ae795f287e9060b44a08c"},
};

constexpr std::size_t kThreads = 2;  // month_generate
constexpr std::size_t kProcs = 2;    // month_generate_2p
constexpr std::size_t kProcThreads = 1;
/// Set-up is timed in kSetupSamplesPerPass child processes before every
/// pass, each building the writer and engine kSetupBatches x kSetupBatch
/// times.
constexpr int kSetupSamplesPerPass = 5;
constexpr int kSetupBatches = 5;
constexpr int kSetupBatch = 200;

/// The 1-thread ParallelSimulation run every other split must reproduce
/// byte for byte. Cached per (scale, seed) under `cache` when given; the
/// cache directory is keyed by the benchmark binary, so a rebuilt
/// program never reads a stale oracle.
std::string oracle_sha(const Options& opt, const u1::SimulationConfig& cfg) {
  const fs::path cached =
      opt.cache.empty()
          ? fs::path()
          : opt.cache / (std::to_string(cfg.users) + "x" +
                         std::to_string(cfg.days) + "-seed" +
                         std::to_string(cfg.seed) + ".sha1");
  if (!cached.empty()) {
    std::ifstream in(cached);
    std::string sha;
    if (in >> sha && sha.size() == 40) {
      std::printf("# oracle sha1 read from cache\n");
      return sha;
    }
  }
  const fs::path dir = opt.scratch / "oracle";
  const PassRecord r = run_in_child([&] {
    fs::create_directories(dir);
    auto writer = u1::make_logfile_writer(dir, u1::TraceFormat::kBinary);
    {
      u1::ParallelSimulation sim(cfg, *writer, 1);
      sim.run();
    }
    writer->close();
    PassRecord out;
    out.texts["sha"] = hash_directory(dir);
    return out;
  });
  fs::remove_all(dir);
  const std::string sha = r.text("sha");
  if (!cached.empty()) {
    fs::create_directories(cached.parent_path());
    const fs::path tmp = cached.string() + ".tmp";
    std::ofstream(tmp) << sha << "\n";
    fs::rename(tmp, cached);
  }
  return sha;
}

/// The writer and the engine of one pass, over an empty output directory.
/// Traced passes put the write probe between the two.
struct Rig {
  std::unique_ptr<u1::LogfileSink> writer;
  std::unique_ptr<WriteProbe> probe;
  std::unique_ptr<u1::ParallelSimulation> par;
  std::unique_ptr<u1::DistributedSimulation> dist;

  Rig(const u1::SimulationConfig& cfg, bool distributed, const fs::path& dir,
      Tracer& tracer)
      : writer(u1::make_logfile_writer(dir, u1::TraceFormat::kBinary)),
        probe(std::make_unique<WriteProbe>(*writer, tracer)) {
    u1::TraceSink& sink = tracer.enabled()
                              ? static_cast<u1::TraceSink&>(*probe)
                              : static_cast<u1::TraceSink&>(*writer);
    if (distributed)
      dist = std::make_unique<u1::DistributedSimulation>(cfg, sink, kProcs,
                                                         kProcThreads);
    else
      par = std::make_unique<u1::ParallelSimulation>(cfg, sink, kThreads);
  }
};

/// One set-up sample, in a child process: the mean time to build (and
/// drop) the writer and engine, median over kSetupBatches batches. Both
/// constructors only take the config, so one construction takes
/// microseconds; the engine's own set-up runs inside run() and is part
/// of wall_s. On the reference host the figure moves between about 1.3
/// and 2.3 us over minutes with the host's load, so the run reports the
/// median over samples taken all through the run.
double setup_sample(const u1::SimulationConfig& cfg, bool distributed,
                    const fs::path& dir) {
  const PassRecord r = run_in_child([&] {
    fs::create_directories(dir);
    Tracer off(false);
    std::vector<double> batches;
    for (int b = 0; b < kSetupBatches; ++b) {
      const auto s0 = Clock::now();
      for (int i = 0; i < kSetupBatch; ++i) {
        const Rig rig(cfg, distributed, dir, off);
      }
      batches.push_back(seconds_between(s0, Clock::now()) / kSetupBatch);
    }
    PassRecord out;
    out.values["setup_s"] = median(batches);
    return out;
  });
  fs::remove_all(dir);
  return r.value("setup_s");
}

/// One generation pass (runs in a child process). Values: wall_s,
/// cpu_s, records, bytes, peak_rss_mb; text: sha; plus the per-layer
/// metrics and spans when traced.
PassRecord run_pass(const u1::SimulationConfig& cfg, bool distributed,
                    const fs::path& dir, bool traced) {
  PassRecord p;
  Tracer tracer(traced);
  fs::create_directories(dir);
  const Rig rig(cfg, distributed, dir, tracer);

  // Timed phase: run the engine, then close the writer (trailing stripes,
  // header patches and sidecars belong to the run).
  const int root = tracer.open("generate");
  const auto t0 = Clock::now();
  const double run_at = now_s();
  const double cpu0 = cpu_with_children_s();
  const int run_span = tracer.open("sim.run", root);
  rig.probe->set_parent(run_span);
  if (distributed)
    rig.dist->run();
  else
    rig.par->run();
  tracer.close(run_span);
  const double run_s = now_s() - run_at;
  const double cpu_s = cpu_with_children_s() - cpu0;
  rig.probe->finish();
  const double close_at = now_s();
  {
    ScopedSpan close_span(tracer, "trace.close", root);
    rig.writer->close();
  }
  const double close_s = now_s() - close_at;
  p.values["wall_s"] = seconds_between(t0, Clock::now());
  p.values["cpu_s"] = cpu_with_children_s() - cpu0;
  tracer.close(root);

  double peak = peak_rss_mb();
  const std::uint64_t records =
      distributed ? rig.dist->records_flushed() : rig.par->records_flushed();
  std::uint64_t files = 0;
  const std::uint64_t bytes = directory_bytes(dir, &files);
  p.values["records"] = static_cast<double>(records);
  p.values["bytes"] = static_cast<double>(bytes);
  p.texts["sha"] = hash_directory(dir);
  if (distributed) {
    const auto& kb = rig.dist->worker_peak_rss_kb();
    if (!kb.empty()) {
      const auto [lo, hi] = std::minmax_element(kb.begin(), kb.end());
      const double worker_max = static_cast<double>(*hi) / 1024.0;
      peak = std::max(peak, worker_max);
      p.values["dist.worker_peak_rss_mb_max"] = worker_max;
      p.values["dist.worker_rss_imbalance"] =
          *lo > 0 ? static_cast<double>(*hi) / static_cast<double>(*lo) : 0.0;
    }
  }
  p.values["peak_rss_mb"] = peak;
  if (!traced) return p;

  auto& L = p.values;
  L["sim.run_s"] = run_s;
  L["sim.cpu_s"] = cpu_s;
  L["sim.records"] = static_cast<double>(records);
  // Set-up plus the first epoch, in-process only. DistributedSimulation
  // calls the sink only when it merges the worker segments, after every
  // worker has exited, so there the first call marks the end of the
  // simulation, not of set-up; that figure reads 0.
  if (rig.par && rig.probe->first_call_at() >= 0)
    L["sim.first_append_s"] = rig.probe->first_call_at() - run_at;
  if (rig.par) {
    const auto& ph = rig.par->phases();
    L["sim.compute_s"] = ph.compute_s;
    L["sim.merge_s"] = ph.merge_s;
    L["sim.flush_s"] = ph.flush_s;
    L["sim.write_s"] = ph.write_s;
    L["sim.flush_stall_s"] = ph.flush_stall_s;
    L["sim.ring_stall_s"] = ph.ring_stall_s;
    L["sim.plan_rebuilds"] = static_cast<double>(ph.plan_rebuilds);
    L["sim.cal_scanned_per_find"] =
        ph.cal_finds > 0 ? static_cast<double>(ph.cal_scanned) /
                               static_cast<double>(ph.cal_finds)
                         : 0.0;
  }
  L["trace.write_calls"] = static_cast<double>(rig.probe->calls());
  L["trace.write_busy_s"] = rig.probe->busy_s();
  L["trace.write_cpu_s"] = rig.probe->cpu_s();
  L["trace.close_s"] = close_s;
  L["trace.bytes"] = static_cast<double>(bytes);
  L["trace.files"] = static_cast<double>(files);
  p.spans = tracer.spans();
  return p;
}

}  // namespace

Outcome run_month_generate(const Options& opt, bool distributed) {
  const u1::SimulationConfig cfg = month_config(opt);
  const fs::path dir = opt.scratch / "trace";
  fs::create_directories(opt.scratch);
  std::printf("# workload %s | users=%zu days=%d seed=%llu ddos=on "
              "faults=off format=bin\n",
              distributed ? "month_generate_2p" : "month_generate",
              cfg.users, cfg.days, static_cast<unsigned long long>(cfg.seed));
  if (distributed)
    std::printf("# engine DistributedSimulation procs=%zu threads=%zu\n",
                kProcs, kProcThreads);
  else
    std::printf("# engine ParallelSimulation procs=1 threads=%zu\n",
                kThreads);
  std::printf("# scratch filesystem: %s\n",
              filesystem_type(opt.scratch).c_str());
  if (distributed)
    std::printf("# worker segment filesystem (/tmp): %s\n",
                filesystem_type("/tmp").c_str());

  Outcome out;
  std::vector<double> setups;
  std::vector<PassRecord> passes;
  std::vector<bool> traced;
  PassSchedule schedule(opt, 2);
  while (schedule.more()) {
    // Set-up samples before every pass, so they span the same stretch of
    // time as the passes do.
    for (int i = 0; i < kSetupSamplesPerPass; ++i)
      setups.push_back(setup_sample(cfg, distributed, dir));
    traced.push_back(schedule.traced());
    passes.push_back(run_in_child(
        [&] { return run_pass(cfg, distributed, dir, traced.back()); }));
    clear_scratch(dir);
    const PassRecord& p = passes.back();
    schedule.done(p.value("wall_s"));
    std::printf("# pass %zu%s: wall %.4f s, cpu %.4f s, "
                "%.0f records, peak rss %.1f MB, sha1 %s\n",
                passes.size(), traced.back() ? " (traced)" : "",
                p.value("wall_s"), p.value("cpu_s"),
                p.value("records"),
                p.value("peak_rss_mb"), p.text("sha").c_str());
  }

  std::printf("# set-up: writer + engine construction, median over %zu "
              "processes: %.4g s\n",
              setups.size(), median(setups));
  std::printf("# oracle: ParallelSimulation procs=1 threads=1\n");
  const std::string oracle = oracle_sha(opt, cfg);
  std::printf("# oracle sha1 %s\n", oracle.c_str());
  std::string pinned = opt.expect_sha;
  if (pinned.empty())
    for (const PinnedSha& pin : kPinned)
      if (pin.users == cfg.users && pin.days == cfg.days &&
          pin.seed == cfg.seed)
        pinned = pin.sha;
  if (!pinned.empty()) {
    ++out.attempted;
    if (oracle != pinned)
      out.fail("oracle sha1 " + oracle + " != pinned " + pinned);
  }
  for (std::size_t i = 0; i < passes.size(); ++i) {
    ++out.attempted;
    if (passes[i].text("sha") != oracle)
      out.fail("pass " + std::to_string(i + 1) + " sha1 " +
               passes[i].text("sha") + " != oracle " + oracle);
  }

  std::vector<double> walls, traced_walls, peaks;
  std::vector<const PassRecord*> untraced_passes, traced_passes;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassRecord& p = passes[i];
    if (traced[i]) {
      traced_walls.push_back(p.value("wall_s"));
      traced_passes.push_back(&p);
      continue;
    }
    walls.push_back(p.value("wall_s"));
    peaks.push_back(p.value("peak_rss_mb"));
    untraced_passes.push_back(&p);
  }
  out.set("setup_s", median(setups));
  out.set("wall_s", median(walls));
  out.set("peak_rss_mb", median(peaks));
  const PassRecord& first = *untraced_passes.front();
  out.set("trace_bytes_per_record",
          first.value("records") > 0
              ? first.value("bytes") / first.value("records")
              : 0.0);
  // Multi-process memory balance is known on untraced passes too.
  for (const char* name :
       {"dist.worker_peak_rss_mb_max", "dist.worker_rss_imbalance"}) {
    std::vector<double> v;
    for (const PassRecord* p : untraced_passes) v.push_back(p->value(name));
    out.set(name, median(v));
  }
  if (opt.trace) {
    fold_traced(out, traced_passes, walls, traced_walls, "generate");
    print_span_report(out, median(traced_walls), median(walls));
  }
  return out;
}

}  // namespace u1b
