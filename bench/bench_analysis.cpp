// Sharded streaming-analytics acceptance bench: runs the full analyzer
// suite (RPC perf, traffic, users, sessions, file types) through the
// in-worker shard fan-out over a NullSink — no trace is materialized —
// and reports wall clock, records/s, peak RSS and the effective flush
// depth. Unless --no-oracle, it then re-runs the exact merged-stream
// path (every analyzer as a TraceSink behind a MultiSink) and measures
// the sketch-vs-exact rank error of every distribution the sharded path
// approximates, at p50/p90/p99. Writes BENCH_analysis.json.
//
// Knobs: U1SIM_USERS / U1SIM_DAYS / U1SIM_THREADS as everywhere. Flags:
//   --out PATH          JSON destination (default repo root)
//   --no-oracle         skip the merged pass (big runs: the merged
//                       path's O(records) state is the thing this bench
//                       exists to avoid)
//   --max-rss-kb N      exit 1 if the measured pass peaks above N KB
//   --max-rank-error F  exit 1 if any p50/p90/p99 rank error exceeds F
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/file_types.hpp"
#include "analysis/rpc_perf.hpp"
#include "analysis/sessions.hpp"
#include "analysis/sharded.hpp"
#include "analysis/traffic.hpp"
#include "analysis/users.hpp"
#include "bench/bench_util.hpp"
#include "stats/ecdf.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace u1;
using namespace u1::bench;

/// The full ported-analyzer suite over the run window [0, days).
struct Suite {
  Suite(SimTime end)
      : traffic(0, end), users(0, end), sessions(0, end) {}

  RpcPerfAnalyzer rpcs;
  TrafficAnalyzer traffic;
  UserActivityAnalyzer users;
  SessionAnalyzer sessions;
  FileTypeAnalyzer types;
};

struct RankErr {
  double p50 = 0, p90 = 0, p99 = 0;
  double max() const { return std::max({p50, p90, p99}); }
  void fold(double q, double err) {
    if (q == 0.5) p50 = std::max(p50, err);
    if (q == 0.9) p90 = std::max(p90, err);
    if (q == 0.99) p99 = std::max(p99, err);
  }
};

/// Rank error of the sharded path's quantile estimate at q, measured
/// against the exact stream and folded into `acc`. Tie-aware: a value x
/// occupies the whole rank interval [P(X < x), P(X <= x)] in the exact
/// distribution, so the error is the distance from q to that interval
/// (zero when q falls inside it). Without this, heavy-tie streams
/// (session lengths with a mass point near zero, small-integer op
/// counts) would charge the sketch for rank mass no estimator — not
/// even an exact one — can split.
void fold_stream(const std::vector<double>& approx,
                 const std::vector<double>& exact, RankErr& acc) {
  if (approx.empty() || exact.size() < 1000) return;
  const Ecdf approx_cdf = Ecdf::from_sorted(approx);
  std::vector<double> sorted(exact);
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  for (const double q : {0.5, 0.9, 0.99}) {
    const double x = approx_cdf.quantile(q);
    const double lo =
        static_cast<double>(std::lower_bound(sorted.begin(), sorted.end(), x) -
                            sorted.begin()) /
        n;
    const double hi =
        static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(), x) -
                            sorted.begin()) /
        n;
    const double e = q < lo ? lo - q : (q > hi ? q - hi : 0.0);
    acc.fold(q, e);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool run_oracle = true;
  std::uint64_t max_rss_kb = 0;  // 0 = unchecked
  double max_rank_error = 0;     // 0 = unchecked
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-oracle") == 0) {
      run_oracle = false;
    } else if (std::strcmp(argv[i], "--max-rss-kb") == 0 && i + 1 < argc) {
      max_rss_kb = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-rank-error") == 0 &&
               i + 1 < argc) {
      max_rank_error = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out path] [--no-oracle] [--max-rss-kb n] "
                   "[--max-rank-error f]\n",
                   argv[0]);
      return 2;
    }
  }
  if (out_path.empty())
    out_path = std::string(U1SIM_REPO_ROOT) + "/BENCH_analysis.json";

  const auto cfg = standard_config(env_users(), env_days());
  const std::size_t threads = env_threads();
  const SimTime horizon = static_cast<SimTime>(cfg.days) * kDay;

  header("bench_analysis",
         "sharded streaming analytics: throughput + memory + rank error");
  std::printf("  users=%zu days=%d threads=%zu\n", cfg.users, cfg.days,
              threads);

  // Measured pass: analyzers fan out inside the compute workers, the
  // sink is a NullSink, no trace or merge plan exists.
  Suite suite(horizon);
  double wall_s = 0;
  std::uint64_t records = 0;
  std::size_t effective_depth = 0;
  bool analysis_only = false;
  ParallelSimulation::EpochPhases phases;
  {
    NullSink null;
    ParallelSimulation sim(cfg, null, threads);
    sim.attach_analyzer(suite.rpcs);
    sim.attach_analyzer(suite.traffic);
    sim.attach_analyzer(suite.users);
    sim.attach_analyzer(suite.sessions);
    sim.attach_analyzer(suite.types);
    const auto t0 = Clock::now();
    sim.run();
    wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    records = sim.records_flushed();
    effective_depth = sim.flush_depth();
    analysis_only = sim.analysis_only();
    phases = sim.phases();
  }
  // Peak RSS of the measured pass — sampled before the oracle (which
  // deliberately holds O(records) state) can inflate it.
  const std::uint64_t rss_kb = peak_rss_kb();
  const std::uint64_t heap_kb = heap_in_use_kb();

  std::printf("  wall=%.2fs records=%llu (%.0f records/s)\n", wall_s,
              static_cast<unsigned long long>(records),
              wall_s > 0 ? static_cast<double>(records) / wall_s : 0.0);
  std::printf("  peak_rss=%.1f MB heap_in_use=%.1f MB\n",
              static_cast<double>(rss_kb) / 1024.0,
              static_cast<double>(heap_kb) / 1024.0);
  std::printf("  serial prefix: bootstrap=%.2fs bootstrap_flush=%.2fs\n",
              phases.bootstrap_s, phases.bootstrap_flush_s);
  std::printf("  memory: ring_bytes_max=%.1fMB bootstrap_bytes_max=%.1fMB\n",
              static_cast<double>(phases.ring_bytes_max) / 1e6,
              static_cast<double>(phases.bootstrap_bytes_max) / 1e6);
  std::printf("  flush_depth=%zu (analysis_only=%s, auto-shrunk ring)\n",
              effective_depth, analysis_only ? "yes" : "no");
  std::printf("  activity: %zu users seen, %llu sessions closed, "
              "%llu distinct files\n",
              suite.users.users_seen(),
              static_cast<unsigned long long>(suite.sessions.sessions_closed()),
              static_cast<unsigned long long>(suite.types.distinct_files()));

  // Oracle pass: the exact merged path, rank error per distribution.
  RankErr err;
  double oracle_wall_s = 0;
  bool have_oracle = false;
  if (run_oracle) {
    // Same engine, same seed, merged sink: the record stream the exact
    // analyzers see is byte-identical to what the shards consumed, so
    // any disagreement is pure sketch error.
    Suite exact(horizon);
    MultiSink fan;
    fan.add(&exact.rpcs);
    fan.add(&exact.traffic);
    fan.add(&exact.users);
    fan.add(&exact.sessions);
    fan.add(&exact.types);
    ParallelSimulation sim(cfg, fan, threads);
    const auto t0 = Clock::now();
    sim.run();
    oracle_wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    exact.users.finalize();
    have_oracle = true;

    for (const RpcOp op : all_rpc_ops()) {
      // Reservoir-exact only below the cap; above it the "oracle" would
      // itself be sampled.
      if (exact.rpcs.count(op) < 1000 || exact.rpcs.count(op) > 100000)
        continue;
      fold_stream(suite.rpcs.service_times(op), exact.rpcs.service_times(op),
                  err);
    }
    fold_stream(suite.sessions.session_lengths(),
                exact.sessions.session_lengths(), err);
    fold_stream(suite.sessions.active_session_lengths(),
                exact.sessions.active_session_lengths(), err);
    fold_stream(suite.sessions.ops_per_active_session(),
                exact.sessions.ops_per_active_session(), err);
    fold_stream(suite.types.all_sizes(), exact.types.all_sizes(), err);

    std::printf("  oracle: wall=%.2fs (exact merged pass)\n", oracle_wall_s);
    std::printf("  rank error vs exact: p50=%.4f p90=%.4f p99=%.4f "
                "(max %.4f)\n",
                err.p50, err.p90, err.p99, err.max());
    row("traffic update-op fraction (exact both paths)",
        exact.traffic.update_op_fraction(),
        suite.traffic.update_op_fraction());
    row("active session fraction (exact both paths)",
        exact.sessions.active_session_fraction(),
        suite.sessions.active_session_fraction());
  }

  bool pass = true;
  if (max_rss_kb > 0 && rss_kb > max_rss_kb) {
    std::printf("  FAIL: peak RSS %llu KB exceeds budget %llu KB\n",
                static_cast<unsigned long long>(rss_kb),
                static_cast<unsigned long long>(max_rss_kb));
    pass = false;
  }
  if (max_rank_error > 0 && have_oracle && err.max() > max_rank_error) {
    std::printf("  FAIL: rank error %.4f exceeds budget %.4f\n", err.max(),
                max_rank_error);
    pass = false;
  }

  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"sharded_analysis\",\n");
    std::fprintf(f, "  \"users\": %zu,\n", cfg.users);
    std::fprintf(f, "  \"days\": %d,\n", cfg.days);
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(cfg.seed));
    std::fprintf(f, "  \"threads\": %zu,\n", threads);
    std::fprintf(f, "  \"analysis_only\": %s,\n",
                 analysis_only ? "true" : "false");
    std::fprintf(f, "  \"flush_depth\": %zu,\n", effective_depth);
    std::fprintf(f, "  \"wall_s\": %.3f,\n", wall_s);
    std::fprintf(f, "  \"bootstrap_s\": %.3f,\n", phases.bootstrap_s);
    std::fprintf(f, "  \"bootstrap_flush_s\": %.3f,\n",
                 phases.bootstrap_flush_s);
    std::fprintf(f, "  \"ring_bytes_max\": %llu,\n",
                 static_cast<unsigned long long>(phases.ring_bytes_max));
    std::fprintf(f, "  \"bootstrap_bytes_max\": %llu,\n",
                 static_cast<unsigned long long>(phases.bootstrap_bytes_max));
    std::fprintf(f, "  \"records\": %llu,\n",
                 static_cast<unsigned long long>(records));
    std::fprintf(f, "  \"records_per_sec\": %.0f,\n",
                 wall_s > 0 ? static_cast<double>(records) / wall_s : 0.0);
    std::fprintf(f, "  \"peak_rss_kb\": %llu,\n",
                 static_cast<unsigned long long>(rss_kb));
    std::fprintf(f, "  \"heap_in_use_kb\": %llu,\n",
                 static_cast<unsigned long long>(heap_kb));
    std::fprintf(f, "  \"users_seen\": %zu,\n", suite.users.users_seen());
    std::fprintf(f, "  \"sessions_closed\": %llu,\n",
                 static_cast<unsigned long long>(
                     suite.sessions.sessions_closed()));
    std::fprintf(f, "  \"distinct_files\": %llu,\n",
                 static_cast<unsigned long long>(
                     suite.types.distinct_files()));
    std::fprintf(f, "  \"oracle\": %s,\n", have_oracle ? "true" : "false");
    std::fprintf(f, "  \"oracle_wall_s\": %.3f,\n", oracle_wall_s);
    std::fprintf(f,
                 "  \"rank_error\": {\"p50\": %.5f, \"p90\": %.5f, "
                 "\"p99\": %.5f, \"max\": %.5f},\n",
                 err.p50, err.p90, err.p99, err.max());
    std::fprintf(f, "  \"max_rss_kb\": %llu,\n",
                 static_cast<unsigned long long>(max_rss_kb));
    std::fprintf(f, "  \"max_rank_error\": %.5f,\n", max_rank_error);
    std::fprintf(f, "  \"pass\": %s\n", pass ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return pass ? 0 : 1;
}
