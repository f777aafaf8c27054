// Shared pieces of the u1sim benchmark program: clocks, the span recorder
// used by traced runs, the metric catalog every workload reports into,
// and small filesystem/statistics helpers.
//
// Every measurement here is taken from outside the library: spans wrap
// calls into public u1sim functions, never code inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace u1b {

using Clock = std::chrono::steady_clock;

/// Seconds since the process-wide origin (first call).
double now_s();
double seconds_between(Clock::time_point a, Clock::time_point b);
/// CPU time of the calling thread / the whole process, in seconds.
double thread_cpu_s();
double process_cpu_s();
/// Process CPU plus that of waited-for child processes, in seconds.
double cpu_with_children_s();
/// Peak resident set size of this process (getrusage), in MiB.
double peak_rss_mb();

/// One traced interval. `parent` indexes the tracer's span vector (-1 for
/// a root); `id` is the request or epoch the span belongs to (-1: none).
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::int64_t id = -1;
};

/// In-memory span store. Disabled tracers record nothing and cost one
/// branch per call site; spans are written out once, at the end.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  /// Appends a finished span; returns its index (-1 when disabled).
  int add(std::string name, double start, double end, int parent = -1,
          std::int64_t id = -1);
  /// Opens a span now; close() stamps its end.
  int open(std::string name, int parent = -1, std::int64_t id = -1);
  void close(int index);

  std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent = -1,
             std::int64_t id = -1)
      : tracer_(tracer), index_(tracer.open(std::move(name), parent, id)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Per-name summary of a traced run: total duration, self time (duration
/// minus the part of it covered by child spans) and span count.
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::vector<SpanSummary> summarize_spans(const std::vector<Span>& spans);
/// Length of the union of the given [start, end) intervals.
double covered_seconds(std::vector<std::pair<double, double>> intervals);

/// A named measurement; its unit comes from the catalogs below.
struct Metric {
  std::string name;
  double value = 0;
};

/// Metric names and units, in BENCHMARK.json order. Every workload prints
/// all end-to-end metrics in an untraced run and all per-layer metrics in
/// a traced run; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog();
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// What one workload run produced.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // any subset of the two catalogs
  std::vector<Span> spans;  // traced runs only

  void set(std::string_view name, double value);
  double get(std::string_view name) const;
  /// Records a failed correctness check (and prints why on stderr).
  void fail(const std::string& why);
};

/// Options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 20140111;
  double seconds = 10;
  bool trace = false;
  std::size_t users = 4000;  // trace workloads
  int days = 14;
  std::size_t ops = 5000;    // u1d: storage ops per connection per round
  std::filesystem::path scratch;  // per-run scratch directory
  std::filesystem::path cache;    // oracle SHA-1 cache (optional)
  std::string expect_sha;    // overrides the pinned oracle SHA-1
  bool corrupt = false;      // flip one byte of one .u1b (test hook)
};

/// The month-generation config every trace workload uses: DDoS on,
/// faults off, everything else at the library defaults.
u1::SimulationConfig month_config(const Options& opt);

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double p);

/// SHA-1 over every regular file in `dir`, in name order: each file's
/// name bytes, then its content bytes.
std::string hash_directory(const std::filesystem::path& dir);
/// Total size and count of the regular files in `dir`.
std::uint64_t directory_bytes(const std::filesystem::path& dir,
                              std::uint64_t* files = nullptr);
/// Removes `dir` and flushes its filesystem (syncfs), so the next pass
/// starts without the previous pass's pending deletes and writeback.
void clear_scratch(const std::filesystem::path& dir);
/// Filesystem type name of `path` (statfs magic), e.g. "ext4".
std::string filesystem_type(const std::filesystem::path& path);

/// How many passes a run makes. Untraced runs time every pass with
/// tracing off, at least `min_passes` of them; traced runs alternate off
/// and on (off first), at least one of each, so the two halves see the
/// same machine state and their difference is the tracing overhead.
/// Passes continue until the timed phases add up to `--seconds`.
class PassSchedule {
 public:
  PassSchedule(const Options& opt, int min_passes)
      : opt_(opt), min_passes_(min_passes) {}
  bool more() const noexcept {
    const int need = opt_.trace ? 2 : min_passes_;
    return timed_ < opt_.seconds || passes_ < need;
  }
  bool traced() const noexcept { return opt_.trace && passes_ % 2 == 1; }
  void done(double wall_s) noexcept {
    timed_ += wall_s;
    ++passes_;
  }

 private:
  const Options& opt_;
  int min_passes_;
  double timed_ = 0;
  int passes_ = 0;
};

/// What one pass measured, as numbers and strings by name plus its spans.
/// Passes that run in a child process send it back line-encoded.
struct PassRecord {
  std::map<std::string, double> values;
  std::map<std::string, std::string> texts;
  std::vector<Span> spans;

  double value(const std::string& name) const;
  std::string text(const std::string& name) const;
  std::string encode() const;
  static PassRecord decode(const std::string& payload);
};

/// Runs `fn` in a forked child and returns its record. Each pass so gets
/// a fresh heap and its own peak RSS, as a user's generation or replay
/// process would. Throws when the child fails.
PassRecord run_in_child(const std::function<PassRecord()>& fn);

/// Folds the traced passes into `out`: every per-layer metric as its
/// median over `traced`, `tracing_overhead_frac` (median traced wall over
/// median untraced wall, minus one) and `span_coverage` (median over the
/// spans named `root` of the share of each that its descendants cover).
/// Spans from all passes are concatenated into out.spans.
void fold_traced(Outcome& out, const std::vector<const PassRecord*>& traced,
                 const std::vector<double>& walls,
                 const std::vector<double>& traced_walls,
                 const std::string& root);

/// Prints the per-span report of a traced run: self time per span name,
/// the share of `wall_s` the spans cover, and the tracing overhead.
void print_span_report(const Outcome& out, double traced_wall,
                       double untraced_wall);
/// Writes the raw spans as JSON lines.
void write_spans(const std::vector<Span>& spans,
                 const std::filesystem::path& file);

}  // namespace u1b
