// Determinism oracle for the in-worker analyzer fan-out: every figure
// output of every ported analyzer must be bit-identical across worker
// thread counts (shards consume per-group streams whose content and
// order depend only on the config, and merge in group-index order), the
// sharded results must agree with the exact merged-stream pass (exactly
// for counters, within the sketch bounds for distributions), and the
// flush ring must auto-shrink to depth 1 on the analysis-only path.
//
// Runs under TSan via the shared recipe:
//   cmake -B build-tsan -DU1SIM_SANITIZE=thread && ctest -L determinism
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "analysis/file_types.hpp"
#include "analysis/rpc_perf.hpp"
#include "analysis/sessions.hpp"
#include "analysis/sharded.hpp"
#include "analysis/traffic.hpp"
#include "analysis/users.hpp"
#include "sim/parallel.hpp"
#include "stats/ecdf.hpp"
#include "trace/sink.hpp"
#include "util/sim_time.hpp"

namespace u1 {
namespace {

SimulationConfig small_config() {
  SimulationConfig cfg;
  cfg.users = 350;
  cfg.days = 2;
  cfg.seed = 20140111;
  cfg.enable_ddos = true;
  return cfg;
}

/// Every figure quantity the five analyzers expose, flattened into
/// plain vectors so EXPECT_EQ compares bit-for-bit.
struct Snapshot {
  // rpc_perf
  std::vector<std::uint64_t> rpc_counts;
  std::vector<std::vector<double>> rpc_times;
  // traffic
  std::vector<double> up_hourly, down_hourly, rw_ratios;
  double update_ops = 0, update_bytes = 0;
  std::uint64_t up_ops = 0, down_ops = 0, up_bytes = 0;
  // users
  std::vector<double> online_hourly, active_hourly;
  std::vector<double> up_per_user, down_per_user;
  double up_gini = 0, top1_share = 0;
  std::size_t users_seen = 0;
  // sessions
  std::vector<double> lengths, active_lengths, ops_active;
  double active_frac = 0, short_frac = 0, top_ops = 0, auth_fail = 0;
  std::uint64_t closed = 0;
  // file types
  std::vector<double> sizes;
  double below_1mb = 0;
  std::vector<std::string> popular;
  std::uint64_t files = 0;

  bool operator==(const Snapshot&) const = default;
};

struct Analyzers {
  explicit Analyzers(SimTime end)
      : traffic(0, end), users(0, end), sessions(0, end) {}
  RpcPerfAnalyzer rpcs;
  TrafficAnalyzer traffic;
  UserActivityAnalyzer users;
  SessionAnalyzer sessions;
  FileTypeAnalyzer types;
};

Snapshot snapshot_of(const Analyzers& a) {
  Snapshot s;
  for (const RpcOp op : all_rpc_ops()) {
    s.rpc_counts.push_back(a.rpcs.count(op));
    s.rpc_times.push_back(a.rpcs.service_times(op));
  }
  s.up_hourly = a.traffic.upload_bytes_hourly().values();
  s.down_hourly = a.traffic.download_bytes_hourly().values();
  s.rw_ratios = a.traffic.rw_ratios_hourly();
  s.update_ops = a.traffic.update_op_fraction();
  s.update_bytes = a.traffic.update_traffic_fraction();
  s.up_ops = a.traffic.upload_ops();
  s.down_ops = a.traffic.download_ops();
  s.up_bytes = a.traffic.upload_bytes();
  s.online_hourly = a.users.online_users_hourly();
  s.active_hourly = a.users.active_users_hourly();
  s.up_per_user = a.users.upload_bytes_per_user();
  s.down_per_user = a.users.download_bytes_per_user();
  s.up_gini = a.users.upload_lorenz().gini;
  s.top1_share = a.users.top_traffic_share(0.01);
  s.users_seen = a.users.users_seen();
  s.lengths = a.sessions.session_lengths();
  s.active_lengths = a.sessions.active_session_lengths();
  s.ops_active = a.sessions.ops_per_active_session();
  s.active_frac = a.sessions.active_session_fraction();
  s.short_frac = a.sessions.fraction_shorter_than(kMinute);
  s.top_ops = a.sessions.top_sessions_op_share(0.01);
  s.auth_fail = a.sessions.auth_failure_fraction();
  s.closed = a.sessions.sessions_closed();
  s.sizes = a.types.all_sizes();
  s.below_1mb = a.types.fraction_below(1024.0 * 1024.0);
  s.popular = a.types.popular_extensions(10);
  s.files = a.types.distinct_files();
  return s;
}

Snapshot run_sharded(std::size_t threads) {
  const SimulationConfig cfg = small_config();
  Analyzers a(static_cast<SimTime>(cfg.days) * kDay);
  NullSink null;
  ParallelSimulation sim(cfg, null, threads);
  sim.attach_analyzer(a.rpcs);
  sim.attach_analyzer(a.traffic);
  sim.attach_analyzer(a.users);
  sim.attach_analyzer(a.sessions);
  sim.attach_analyzer(a.types);
  sim.run();
  return snapshot_of(a);
}

TEST(ShardedDeterminism, FigureOutputsBitIdenticalAcrossThreadCounts) {
  const Snapshot at1 = run_sharded(1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const Snapshot at_n = run_sharded(threads);
    EXPECT_EQ(at_n, at1) << "diverged at threads=" << threads;
  }
}

// Tie-aware rank distance of estimate x from quantile q of the exact
// sorted stream (see bench_analysis: ties make point-CDF comparisons
// unfairly strict).
double rank_distance(const std::vector<double>& sorted, double x, double q) {
  const double n = static_cast<double>(sorted.size());
  const double lo =
      static_cast<double>(std::lower_bound(sorted.begin(), sorted.end(), x) -
                          sorted.begin()) /
      n;
  const double hi =
      static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(), x) -
                          sorted.begin()) /
      n;
  return q < lo ? lo - q : (q > hi ? q - hi : 0.0);
}

TEST(ShardedDeterminism, MatchesMergedOracleWithinBounds) {
  const SimulationConfig cfg = small_config();
  const SimTime horizon = static_cast<SimTime>(cfg.days) * kDay;

  Analyzers sharded(horizon);
  {
    NullSink null;
    ParallelSimulation sim(cfg, null, 2);
    sim.attach_analyzer(sharded.rpcs);
    sim.attach_analyzer(sharded.traffic);
    sim.attach_analyzer(sharded.users);
    sim.attach_analyzer(sharded.sessions);
    sim.attach_analyzer(sharded.types);
    sim.run();
  }
  Analyzers merged(horizon);
  {
    MultiSink fan;
    fan.add(&merged.rpcs);
    fan.add(&merged.traffic);
    fan.add(&merged.users);
    fan.add(&merged.sessions);
    fan.add(&merged.types);
    ParallelSimulation sim(cfg, fan, 2);
    sim.run();
    merged.users.finalize();
  }

  // Counter-backed quantities are exact on both paths: equal, not close.
  EXPECT_EQ(sharded.traffic.upload_ops(), merged.traffic.upload_ops());
  EXPECT_EQ(sharded.traffic.upload_bytes(), merged.traffic.upload_bytes());
  EXPECT_EQ(sharded.traffic.update_op_fraction(),
            merged.traffic.update_op_fraction());
  EXPECT_EQ(sharded.traffic.upload_bytes_hourly().values(),
            merged.traffic.upload_bytes_hourly().values());
  EXPECT_EQ(sharded.users.users_seen(), merged.users.users_seen());
  EXPECT_EQ(sharded.users.online_users_hourly(),
            merged.users.online_users_hourly());
  EXPECT_EQ(sharded.sessions.sessions_closed(),
            merged.sessions.sessions_closed());
  EXPECT_EQ(sharded.sessions.active_session_fraction(),
            merged.sessions.active_session_fraction());
  EXPECT_EQ(sharded.sessions.auth_failure_fraction(),
            merged.sessions.auth_failure_fraction());
  EXPECT_EQ(sharded.types.distinct_files(), merged.types.distinct_files());
  EXPECT_EQ(sharded.types.popular_extensions(10),
            merged.types.popular_extensions(10));

  // Per-user totals: same multiset, possibly different order (merged
  // inserts in stream order, sharded in group-merge order).
  auto up_s = sharded.users.upload_bytes_per_user();
  auto up_m = merged.users.upload_bytes_per_user();
  std::sort(up_s.begin(), up_s.end());
  std::sort(up_m.begin(), up_m.end());
  EXPECT_EQ(up_s, up_m);

  // Sketch-backed quantities carry the documented bounds.
  for (const RpcOp op : all_rpc_ops()) {
    if (merged.rpcs.count(op) < 500) continue;
    ASSERT_EQ(sharded.rpcs.count(op), merged.rpcs.count(op));
    std::vector<double> exact = merged.rpcs.service_times(op);
    std::sort(exact.begin(), exact.end());
    for (const double q : {0.5, 0.9, 0.99})
      EXPECT_LE(rank_distance(exact, sharded.rpcs.quantile_s(op, q), q),
                0.01);
  }
  std::vector<double> exact_lengths = merged.sessions.session_lengths();
  if (exact_lengths.size() >= 500) {
    std::sort(exact_lengths.begin(), exact_lengths.end());
    const Ecdf grid = Ecdf::from_sorted(sharded.sessions.session_lengths());
    for (const double q : {0.5, 0.9})
      EXPECT_LE(rank_distance(exact_lengths, grid.quantile(q), q), 0.01);
  }
  EXPECT_NEAR(sharded.sessions.top_sessions_op_share(0.01),
              merged.sessions.top_sessions_op_share(0.01), 0.01);
  EXPECT_NEAR(sharded.types.fraction_below(1024.0 * 1024.0),
              merged.types.fraction_below(1024.0 * 1024.0), 0.01);
}

TEST(ShardedDeterminism, AnalysisOnlyPathShrinksFlushRing) {
  const SimulationConfig cfg = small_config();
  {
    NullSink null;
    ParallelSimulation sim(cfg, null, 2);
    EXPECT_TRUE(sim.analysis_only());
    EXPECT_EQ(sim.flush_depth(), 1u);
  }
  {
    CountingSink counting;
    ParallelSimulation sim(cfg, counting, 2);
    EXPECT_FALSE(sim.analysis_only());
    EXPECT_EQ(sim.flush_depth(), ParallelSimulation::kFlushDepth);
  }
}

TEST(ShardedDeterminism, AttachAfterRunThrows) {
  const SimulationConfig cfg = small_config();
  NullSink null;
  RpcPerfAnalyzer rpcs;
  ParallelSimulation sim(cfg, null, 1);
  sim.run();
  EXPECT_THROW(sim.attach_analyzer(rpcs), std::logic_error);
}

}  // namespace
}  // namespace u1
