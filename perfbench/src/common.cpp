#include "common.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/sha1.hpp"

namespace u1b {

namespace {

const Clock::time_point kOrigin = Clock::now();

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double now_s() { return seconds_between(kOrigin, Clock::now()); }

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double cpu_with_children_s() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return process_cpu_s() +
         static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- tracing ---------------------------------------------------------------

int Tracer::add(std::string name, double start, double end, int parent,
                std::int64_t id) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start, end, parent, id});
  return static_cast<int>(spans_.size() - 1);
}

int Tracer::open(std::string name, int parent, std::int64_t id) {
  if (!enabled_) return -1;
  const double t = now_s();
  return add(std::move(name), t, t, parent, id);
}

void Tracer::close(int index) {
  if (index < 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double covered_seconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double cur_start = 0;
  double cur_end = -1e300;
  for (const auto& [s, e] : intervals) {
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

std::vector<SpanSummary> summarize_spans(const std::vector<Span>& spans) {
  // Children clipped to their parent's interval, per parent.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) children[static_cast<std::size_t>(s.parent)].push_back({a, b});
  }
  std::map<std::string, SpanSummary> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& sum = by_name[spans[i].name];
    sum.name = spans[i].name;
    const double dur = spans[i].end - spans[i].start;
    ++sum.count;
    sum.total_s += dur;
    sum.self_s += dur - covered_seconds(std::move(children[i]));
  }
  std::vector<SpanSummary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  std::sort(out.begin(), out.end(),
            [](const SpanSummary& a, const SpanSummary& b) {
              return a.self_s > b.self_s;
            });
  return out;
}

double PassRecord::value(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

std::string PassRecord::text(const std::string& name) const {
  const auto it = texts.find(name);
  return it == texts.end() ? std::string() : it->second;
}

// Line format: "v <name> <value>", "t <name> <text>", "s <name> <start>
// <end> <parent> <id>". Names and texts never contain whitespace.
std::string PassRecord::encode() const {
  std::string out;
  char buf[512];
  for (const auto& [name, v] : values) {
    std::snprintf(buf, sizeof buf, "v %s %.17g\n", name.c_str(), v);
    out += buf;
  }
  for (const auto& [name, t] : texts) out += "t " + name + " " + t + "\n";
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof buf, "s %s %.17g %.17g %d %lld\n",
                  s.name.c_str(), s.start, s.end, s.parent,
                  static_cast<long long>(s.id));
    out += buf;
  }
  return out;
}

PassRecord PassRecord::decode(const std::string& payload) {
  PassRecord r;
  std::istringstream in(payload);
  std::string kind, name;
  while (in >> kind >> name) {
    if (kind == "v") {
      in >> r.values[name];
    } else if (kind == "t") {
      in >> r.texts[name];
    } else if (kind == "s") {
      Span s;
      s.name = name;
      long long id = 0;
      in >> s.start >> s.end >> s.parent >> id;
      s.id = id;
      r.spans.push_back(std::move(s));
    } else {
      throw std::runtime_error("bad pass record line: " + kind);
    }
  }
  return r;
}

PassRecord run_in_child(const std::function<PassRecord()>& fn) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string payload;
    try {
      payload = fn().encode();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "u1bench pass: %s\n", e.what());
      code = 3;
    }
    for (std::size_t off = 0; off < payload.size();) {
      const ssize_t n = write(fds[1], payload.data() + off,
                              payload.size() - off);
      if (n <= 0) {
        code = 4;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::fflush(stderr);
    _exit(code);
  }
  close(fds[1]);
  std::string payload;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    payload.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("pass process failed (status " +
                             std::to_string(status) + ")");
  return PassRecord::decode(payload);
}

void fold_traced(Outcome& out, const std::vector<const PassRecord*>& traced,
                 const std::vector<double>& walls,
                 const std::vector<double>& traced_walls,
                 const std::string& root) {
  for (const auto& [name, unit] : per_layer_catalog()) {
    std::vector<double> values;
    for (const PassRecord* r : traced) {
      const auto it = r->values.find(name);
      if (it != r->values.end()) values.push_back(it->second);
    }
    if (!values.empty()) out.set(name, median(values));
  }
  const double untraced = median(walls);
  out.set("tracing_overhead_frac",
          untraced > 0 ? median(traced_walls) / untraced - 1.0 : 0.0);

  // One span list; each pass's parent indices shift by its offset.
  std::vector<Span> spans;
  for (const PassRecord* r : traced) {
    const int base = static_cast<int>(spans.size());
    for (Span s : r->spans) {
      if (s.parent >= 0) s.parent += base;
      spans.push_back(std::move(s));
    }
  }
  // Descendant intervals per root span, clipped to the root.
  std::vector<std::vector<std::pair<double, double>>> under(spans.size());
  for (const Span& s : spans) {
    int p = s.parent;
    while (p >= 0 && spans[static_cast<std::size_t>(p)].name != root)
      p = spans[static_cast<std::size_t>(p)].parent;
    if (p < 0) continue;
    const Span& r = spans[static_cast<std::size_t>(p)];
    const double a = std::max(s.start, r.start);
    const double b = std::min(s.end, r.end);
    if (b > a) under[static_cast<std::size_t>(p)].push_back({a, b});
  }
  std::vector<double> coverage;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != root) continue;
    const double dur = spans[i].end - spans[i].start;
    if (dur > 0) coverage.push_back(covered_seconds(std::move(under[i])) / dur);
  }
  out.set("span_coverage", median(coverage));
  out.spans = std::move(spans);
}

void print_span_report(const Outcome& out, double traced_wall,
                       double untraced_wall) {
  std::printf("# span report (traced run): self time = duration minus the "
              "part covered by child spans\n");
  std::printf("#   %-28s %8s %12s %12s\n", "span", "count", "total_s",
              "self_s");
  for (const SpanSummary& s : summarize_spans(out.spans))
    std::printf("#   %-28s %8zu %12.6f %12.6f\n", s.name.c_str(), s.count,
                s.total_s, s.self_s);
  std::printf("# span coverage of wall_s: %.4f\n", out.get("span_coverage"));
  std::printf("# tracing overhead: traced wall %.6f s vs untraced %.6f s "
              "(%+.2f%%)\n",
              traced_wall, untraced_wall,
              100.0 * out.get("tracing_overhead_frac"));
}

void write_spans(const std::vector<Span>& spans,
                 const std::filesystem::path& file) {
  std::filesystem::create_directories(file.parent_path());
  FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + file.string());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"i\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"id\":%lld}\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<long long>(s.id));
  }
  std::fclose(f);
}

// ---- metrics ---------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kCatalog;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      // Whole-workload figures that only some workloads have (measured
      // with tracing off) plus the traced run's own bookkeeping.
      {"rpc_rps", "1/s"},
      {"rpc_p50_us", "us"},
      {"rpc_p99_us", "us"},
      {"rpc_samples", "count"},
      {"rpc_beyond_p99", "count"},
      {"trace_bytes_per_record", "B"},
      {"fail_frac", "ratio"},
      {"tracing_overhead_frac", "ratio"},
      {"span_coverage", "ratio"},
      // sim: engine run and its phase breakdown.
      {"sim.run_s", "s"},
      {"sim.first_append_s", "s"},
      {"sim.cpu_s", "s"},
      {"sim.compute_s", "s"},
      {"sim.merge_s", "s"},
      {"sim.flush_s", "s"},
      {"sim.write_s", "s"},
      {"sim.flush_stall_s", "s"},
      {"sim.ring_stall_s", "s"},
      {"sim.plan_rebuilds", "count"},
      {"sim.cal_scanned_per_find", "ratio"},
      {"sim.records", "count"},
      // trace, write side.
      {"trace.write_calls", "count"},
      {"trace.write_busy_s", "s"},
      {"trace.write_cpu_s", "s"},
      {"trace.close_s", "s"},
      {"trace.bytes", "B"},
      {"trace.files", "count"},
      // trace, read side.
      {"trace.read_s", "s"},
      {"trace.read_cpu_s", "s"},
      {"trace.read_rows", "count"},
      {"trace.read_prewindow", "count"},
      {"trace.read_malformed", "count"},
      {"trace.checksum_failures", "count"},
      // analysis: busy seconds per Table 1 analyzer.
      {"analysis.traffic_s", "s"},
      {"analysis.file_types_s", "s"},
      {"analysis.dedup_s", "s"},
      {"analysis.ddos_s", "s"},
      {"analysis.users_s", "s"},
      {"analysis.burstiness_s", "s"},
      {"analysis.rpc_perf_s", "s"},
      {"analysis.load_balance_s", "s"},
      {"analysis.sessions_s", "s"},
      {"analysis.findings_s", "s"},
      {"analysis.findings_held", "count"},
      // dist: multi-process memory balance.
      {"dist.worker_peak_rss_mb_max", "MB"},
      {"dist.worker_rss_imbalance", "ratio"},
      // net: the live server loop.
      {"net.server_cpu_s", "s"},
      {"net.server_busy_frac", "ratio"},
      {"net.bytes_in_per_req", "B"},
      {"net.bytes_out_per_req", "B"},
      {"net.protocol_errors", "count"},
      {"rpc.GetDelta_p50_us", "us"},
      {"rpc.GetDelta_p99_us", "us"},
      {"rpc.MakeFile_p50_us", "us"},
      {"rpc.MakeFile_p99_us", "us"},
      {"rpc.Upload_p50_us", "us"},
      {"rpc.Upload_p99_us", "us"},
      {"rpc.Download_p50_us", "us"},
      {"rpc.Download_p99_us", "us"},
      // server / proto: the recorded request stream replayed in-process.
      {"server.call_p50_us", "us"},
      {"server.call_p99_us", "us"},
      {"server.get_delta_call_p99_us", "us"},
      {"proto.encode_ns_per_frame", "ns"},
      {"proto.decode_ns_per_frame", "ns"},
  };
  return kCatalog;
}

void Outcome::set(std::string_view name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics.push_back({std::string(name), value});
}

double Outcome::get(std::string_view name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  return 0;
}

void Outcome::fail(const std::string& why) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  correct = false;
  ++failed;
}

// ---- workload config / statistics -----------------------------------------

u1::SimulationConfig month_config(const Options& opt) {
  u1::SimulationConfig cfg;
  cfg.users = opt.users;
  cfg.days = opt.days;
  cfg.seed = opt.seed;
  cfg.enable_ddos = true;
  cfg.faults = {};
  return cfg;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : std::min(rank, v.size()) - 1];
}

// ---- filesystem ------------------------------------------------------------

namespace {

std::vector<std::filesystem::path> sorted_files(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

std::string hash_directory(const std::filesystem::path& dir) {
  u1::Sha1 hasher;
  std::vector<char> buf(1 << 20);
  for (const auto& path : sorted_files(dir)) {
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

std::uint64_t directory_bytes(const std::filesystem::path& dir,
                              std::uint64_t* files) {
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
  for (const auto& path : sorted_files(dir)) {
    bytes += std::filesystem::file_size(path);
    ++count;
  }
  if (files != nullptr) *files = count;
  return bytes;
}

void clear_scratch(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  const int fd = open(dir.parent_path().c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

std::string filesystem_type(const std::filesystem::path& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

}  // namespace u1b
