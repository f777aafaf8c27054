// paper_replay: read the month trace back with read_logfiles into the nine
// Table 1 analyzers in one pass, then users.finalize() + extract_findings.
// Set-up generates the trace (the month_generate configuration).
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <memory>

#include "analysis/findings.hpp"
#include "sim/distributed.hpp"
#include "trace/binlog.hpp"
#include "trace/logfile.hpp"
#include "workloads.hpp"

namespace u1b {

namespace {

namespace fs = std::filesystem;

/// Set-up engine: DistributedSimulation, procs x threads. Its output is
/// bit-identical to every other engine split; it is used here because
/// the in-process engine at >= 2 threads occasionally writes a wrong
/// trace (see README.md, "Known defects"), which month_generate reports.
constexpr std::size_t kProcs = 2;
constexpr std::size_t kProcThreads = 1;
/// Traces per run, each generated from its own seed derived from
/// --seed. Peak RSS of a replay depends on the trace: read_logfiles
/// gathers every record in one growing vector, so the peak sits anywhere
/// between about 1.5 and 2 times the records' size, by where the record
/// count falls between two capacity doublings. One trace per run made
/// that the widest spread between runs; the median over three narrows it.
constexpr std::size_t kTraces = 3;
/// Records per analyzer call: one analyzer walks a chunk, then the next.
constexpr std::size_t kChunk = 1 << 16;

/// The nine Table 1 analyzers, fresh per pass.
struct Analyzers {
  static constexpr std::size_t kCount = 9;
  static constexpr std::array<const char*, kCount> kNames = {
      "traffic", "file_types", "dedup",   "ddos",    "users",
      "burstiness", "rpc_perf", "load_balance", "sessions"};

  explicit Analyzers(const u1::SimulationConfig& cfg)
      : horizon(static_cast<u1::SimTime>(cfg.days) * u1::kDay),
        traffic(0, horizon),
        ddos(0, horizon),
        users(0, horizon),
        load(0, horizon, cfg.backend.fleet.machines, cfg.backend.shards),
        sessions(0, horizon) {}

  std::array<u1::TraceSink*, kCount> sinks() {
    return {&traffic, &types, &dedup, &ddos, &users,
            &bursts,  &rpcs,  &load,  &sessions};
  }
  /// users.finalize() + extract_findings; returns how many hold.
  int findings_held() {
    users.finalize();
    int held = 0;
    for (const auto& f : u1::extract_findings(types, traffic, dedup, ddos,
                                              users, bursts, rpcs, load,
                                              sessions))
      held += f.shape_holds ? 1 : 0;
    return held;
  }

  u1::SimTime horizon;
  u1::TrafficAnalyzer traffic;
  u1::FileTypeAnalyzer types;
  u1::DedupAnalyzer dedup;
  u1::DdosAnalyzer ddos;
  u1::UserActivityAnalyzer users;
  u1::BurstinessAnalyzer bursts;
  u1::RpcPerfAnalyzer rpcs;
  u1::LoadBalanceAnalyzer load;
  u1::SessionAnalyzer sessions;
};

/// Hands each chunk of records to every analyzer in turn; on traced
/// passes times each call (wall + thread CPU) as an `analysis.<name>`
/// span under `parent`.
class AnalyzerFanout final : public u1::TraceSink {
 public:
  AnalyzerFanout(Analyzers& a, Tracer& tracer, int parent)
      : sinks_(a.sinks()), tracer_(tracer), parent_(parent) {}

  void append(const u1::TraceRecord& record) override {
    append_batch(&record, 1);
  }
  void append_batch(const u1::TraceRecord* records,
                    std::size_t count) override {
    for (std::size_t off = 0; off < count; off += kChunk) {
      const std::size_t n = std::min(kChunk, count - off);
      for (std::size_t i = 0; i < Analyzers::kCount; ++i) {
        if (!tracer_.enabled()) {
          sinks_[i]->append_batch(records + off, n);
          continue;
        }
        const double t0 = now_s();
        const double c0 = thread_cpu_s();
        sinks_[i]->append_batch(records + off, n);
        const double c1 = thread_cpu_s();
        const double t1 = now_s();
        busy_s[i] += t1 - t0;
        cpu_s += c1 - c0;
        tracer_.add(std::string("analysis.") + Analyzers::kNames[i], t0, t1,
                    parent_, static_cast<std::int64_t>(chunks_));
      }
      ++chunks_;
    }
  }

  std::array<double, Analyzers::kCount> busy_s{};
  double cpu_s = 0;

 private:
  std::array<u1::TraceSink*, Analyzers::kCount> sinks_;
  Tracer& tracer_;
  int parent_;
  std::int64_t chunks_ = 0;
};

/// Writer plus in-sim reference analyzers: every record goes to the
/// writer; records inside the trace window (t >= 0, the set
/// read_logfiles delivers) also go to the analyzers.
class ReferenceTee final : public u1::TraceSink {
 public:
  ReferenceTee(u1::TraceSink& writer, Analyzers& a)
      : writer_(writer), sinks_(a.sinks()) {}
  void append(const u1::TraceRecord& record) override {
    append_batch(&record, 1);
  }
  void append_batch(const u1::TraceRecord* records,
                    std::size_t count) override {
    writer_.append_batch(records, count);
    for (std::size_t i = 0; i < count; ++i)
      if (records[i].t >= 0)
        for (u1::TraceSink* s : sinks_) s->append(records[i]);
  }

 private:
  u1::TraceSink& writer_;
  std::array<u1::TraceSink*, Analyzers::kCount> sinks_;
};

/// Set-up of one trace, in a child process: generates it into `dir`
/// while the in-sim reference analyzers see the same records. Values:
/// setup_s (wall of generation and in-sim analysis), records, prewindow,
/// and the in-sim Table 1 count `held` the replay must reproduce.
PassRecord generate(const u1::SimulationConfig& cfg, const fs::path& dir) {
  return run_in_child([&] {
    PassRecord g;
    Tracer off(false);
    const auto t0 = Clock::now();
    fs::create_directories(dir);
    auto writer = u1::make_logfile_writer(dir, u1::TraceFormat::kBinary);
    Analyzers ref(cfg);
    ReferenceTee tee(*writer, ref);
    WriteProbe probe(tee, off);
    {
      u1::DistributedSimulation sim(cfg, probe, kProcs, kProcThreads);
      sim.run();
    }
    writer->close();
    g.values["held"] = ref.findings_held();
    g.values["setup_s"] = seconds_between(t0, Clock::now());
    g.values["records"] = static_cast<double>(probe.records());
    g.values["prewindow"] = static_cast<double>(probe.prewindow());
    return g;
  });
}

/// Seed of trace `k` of a run: --seed itself for the first, so the
/// default cell is always among them; mixed (splitmix64) for the rest,
/// so runs with nearby seeds share no trace.
std::uint64_t trace_seed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * k;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Flips one byte in the middle of the largest .u1b file.
void corrupt_one_file(const fs::path& dir) {
  fs::path victim;
  std::uintmax_t best = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != u1::kBinaryLogfileExt) continue;
    if (e.file_size() > best || (e.file_size() == best && e.path() < victim)) {
      best = e.file_size();
      victim = e.path();
    }
  }
  if (victim.empty()) throw std::runtime_error("no .u1b file to corrupt");
  std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(best / 2));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(best / 2));
  f.write(&c, 1);
  std::printf("# corrupted one byte of %s\n",
              victim.filename().string().c_str());
}

/// One replay pass (runs in a child process). Values: wall_s, rows,
/// malformed, checksum_failures, bytes_read, files, held, peak_rss_mb;
/// plus the per-layer metrics and spans when traced.
PassRecord replay(const u1::SimulationConfig& cfg, const fs::path& dir,
                  bool traced) {
  PassRecord p;
  Tracer tracer(traced);
  Analyzers a(cfg);

  const int root = tracer.open("replay");
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  const double read_at = now_s();
  const double read_cpu0 = process_cpu_s();
  const int read_span = tracer.open("trace.read", root);
  AnalyzerFanout fanout(a, tracer, read_span);
  const u1::ReadStats stats = u1::read_logfiles(dir, fanout);
  tracer.close(read_span);
  const double read_wall = now_s() - read_at;
  const double read_cpu = process_cpu_s() - read_cpu0;
  const double findings_at = now_s();
  int held = 0;
  {
    ScopedSpan s(tracer, "analysis.findings", root);
    held = a.findings_held();
  }
  const double findings_s = now_s() - findings_at;
  p.values["wall_s"] = seconds_between(t0, Clock::now());
  p.values["cpu_s"] = process_cpu_s() - cpu0;
  tracer.close(root);

  p.values["peak_rss_mb"] = peak_rss_mb();
  p.values["rows"] = static_cast<double>(stats.rows);
  p.values["malformed"] = static_cast<double>(stats.malformed);
  p.values["checksum_failures"] = static_cast<double>(stats.checksum_failures);
  p.values["bytes_read"] = static_cast<double>(stats.bytes_read);
  p.values["files"] = static_cast<double>(stats.files);
  p.values["held"] = held;
  if (!traced) return p;

  double busy = 0;
  for (std::size_t i = 0; i < Analyzers::kCount; ++i) {
    p.values[std::string("analysis.") + Analyzers::kNames[i] + "_s"] =
        fanout.busy_s[i];
    busy += fanout.busy_s[i];
  }
  p.values["trace.read_s"] = read_wall - busy;
  p.values["trace.read_cpu_s"] = read_cpu - fanout.cpu_s;
  p.values["analysis.findings_s"] = findings_s;
  p.spans = tracer.spans();
  return p;
}

}  // namespace

Outcome run_paper_replay(const Options& opt) {
  const u1::SimulationConfig cfg = month_config(opt);
  fs::create_directories(opt.scratch);
  std::printf("# workload paper_replay | users=%zu days=%d seed=%llu "
              "ddos=on faults=off format=bin\n",
              cfg.users, cfg.days, static_cast<unsigned long long>(cfg.seed));
  std::printf("# set-up engine DistributedSimulation procs=%zu threads=%zu; "
              "timed phase: read_logfiles -> 9 analyzers, extract_findings\n",
              kProcs, kProcThreads);
  std::printf("# scratch filesystem: %s\n",
              filesystem_type(opt.scratch).c_str());
  std::printf("# set-up worker segment filesystem (/tmp): %s\n",
              filesystem_type("/tmp").c_str());

  Outcome out;
  // Set-up: every trace of the run, each with its in-sim reference.
  struct Trace {
    u1::SimulationConfig cfg;
    fs::path dir;
    PassRecord ref;
  };
  std::vector<Trace> traces;
  std::vector<double> setups;
  for (std::size_t k = 0; k < kTraces; ++k) {
    Trace t{cfg, opt.scratch / ("trace" + std::to_string(k)), {}};
    t.cfg.seed = trace_seed(opt.seed, k);
    t.ref = generate(t.cfg, t.dir);
    setups.push_back(t.ref.value("setup_s"));
    std::printf("# set-up %zu: seed %llu, %.4f s, %.0f records (%.0f "
                "pre-window), in-sim findings held %.0f\n",
                k + 1, static_cast<unsigned long long>(t.cfg.seed),
                t.ref.value("setup_s"), t.ref.value("records"),
                t.ref.value("prewindow"), t.ref.value("held"));
    traces.push_back(std::move(t));
  }
  if (opt.corrupt) corrupt_one_file(traces.front().dir);

  // Passes go round the traces; a traced run reads each trace untraced,
  // then traced, so the overhead compares passes over the same trace.
  std::vector<PassRecord> passes;
  std::vector<bool> traced;
  std::vector<const Trace*> read;
  const std::size_t min_passes = (opt.trace ? 2 : 1) * kTraces;
  PassSchedule schedule(opt, static_cast<int>(min_passes));
  while (schedule.more() || passes.size() < min_passes) {
    const std::size_t i = passes.size();
    const Trace& t = traces[(opt.trace ? i / 2 : i) % kTraces];
    traced.push_back(schedule.traced());
    read.push_back(&t);
    passes.push_back(run_in_child(
        [&] { return replay(t.cfg, t.dir, traced.back()); }));
    const PassRecord& p = passes.back();
    schedule.done(p.value("wall_s"));
    std::printf("# pass %zu%s: trace %zu, wall %.4f s, cpu %.4f s, %.0f "
                "rows, %.0f malformed, %.0f checksum failures, findings "
                "held %.0f, peak rss %.1f MB\n",
                passes.size(), traced.back() ? " (traced)" : "",
                static_cast<std::size_t>(&t - traces.data()) + 1,
                p.value("wall_s"), p.value("cpu_s"), p.value("rows"),
                p.value("malformed"), p.value("checksum_failures"),
                p.value("held"), p.value("peak_rss_mb"));
    const std::string tag = "pass " + std::to_string(passes.size()) + ": ";
    out.attempted += 4;
    const auto n = [](double v) {
      return std::to_string(static_cast<long long>(v));
    };
    const double records = t.ref.value("records");
    const double prewindow = t.ref.value("prewindow");
    if (p.value("rows") != records)
      out.fail(tag + "read_rows " + n(p.value("rows")) +
               " != records generated " + n(records));
    if (p.value("malformed") != prewindow)
      out.fail(tag + "read_malformed " + n(p.value("malformed") - prewindow) +
               " (malformed " + n(p.value("malformed")) + " minus " +
               n(prewindow) + " pre-window)");
    if (p.value("checksum_failures") != 0)
      out.fail(tag + n(p.value("checksum_failures")) + " checksum failures");
    if (p.value("held") != t.ref.value("held"))
      out.fail(tag + "findings held " + n(p.value("held")) + " != in-sim " +
               n(t.ref.value("held")));
    if (!out.correct) break;  // a broken trace stays broken
  }
  for (const Trace& t : traces) fs::remove_all(t.dir);

  std::vector<double> walls, traced_walls, peaks;
  std::vector<const PassRecord*> traced_passes;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (traced[i]) {
      traced_walls.push_back(passes[i].value("wall_s"));
      traced_passes.push_back(&passes[i]);
    } else {
      walls.push_back(passes[i].value("wall_s"));
      peaks.push_back(passes[i].value("peak_rss_mb"));
    }
  }
  out.set("setup_s", median(setups));
  out.set("wall_s", median(walls));
  out.set("peak_rss_mb", median(peaks));
  const PassRecord& last = passes.back();
  const double prewindow = read.back()->ref.value("prewindow");
  out.set("trace_bytes_per_record",
          last.value("rows") > 0
              ? last.value("bytes_read") / last.value("rows")
              : 0.0);
  if (opt.trace) {
    fold_traced(out, traced_passes, walls, traced_walls, "replay");
    out.set("trace.read_rows", last.value("rows"));
    out.set("trace.read_prewindow", prewindow);
    out.set("trace.read_malformed", last.value("malformed") - prewindow);
    out.set("trace.checksum_failures", last.value("checksum_failures"));
    out.set("trace.bytes", last.value("bytes_read"));
    out.set("trace.files", last.value("files"));
    out.set("analysis.findings_held", last.value("held"));
    print_span_report(out, median(traced_walls), median(walls));
  }
  return out;
}

}  // namespace u1b
