// Integration: run one mid-size simulation and check that every analyzer
// reproduces the paper's qualitative findings on the synthetic trace.
// The simulation runs once per test binary (SetUpTestSuite) and its
// records are replayed into each analyzer under test.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/burstiness.hpp"
#include "analysis/ddos_detect.hpp"
#include "analysis/dedup.hpp"
#include "analysis/file_dependencies.hpp"
#include "analysis/file_types.hpp"
#include "analysis/findings.hpp"
#include "analysis/load_balance.hpp"
#include "analysis/node_lifetime.hpp"
#include "analysis/op_mix.hpp"
#include "analysis/rpc_perf.hpp"
#include "analysis/sessions.hpp"
#include "analysis/trace_summary.hpp"
#include "analysis/traffic.hpp"
#include "analysis/transition_graph.hpp"
#include "analysis/users.hpp"
#include "analysis/volumes.hpp"
#include "sim/parallel.hpp"
#include "stats/ecdf.hpp"
#include "stats/summary.hpp"

namespace u1 {
namespace {

class AnalysisIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sink_ = new InMemorySink();
    SimulationConfig cfg;
    cfg.users = 4000;
    cfg.days = 14;  // covers both January attacks
    cfg.seed = 1234;
    cfg.bootstrap_files_mean = 8.0;
    cfg.enable_ddos = true;
    cfg.ddos_bot_scale = 1.0;  // auto-scaled by population inside the sim
    sim_ = new ParallelSimulation(cfg, *sink_, 1);
    sim_->run();
    horizon_ = cfg.days * kDay;
  }

  static void TearDownTestSuite() {
    delete sim_;
    delete sink_;
    sim_ = nullptr;
    sink_ = nullptr;
  }

  template <typename Analyzer>
  static void replay(Analyzer& a) {
    for (const TraceRecord& r : sink_->records()) a.append(r);
  }

  static InMemorySink* sink_;
  static ParallelSimulation* sim_;
  static SimTime horizon_;
};

InMemorySink* AnalysisIntegration::sink_ = nullptr;
ParallelSimulation* AnalysisIntegration::sim_ = nullptr;
SimTime AnalysisIntegration::horizon_ = 0;

TEST_F(AnalysisIntegration, Fig2aTrafficDiurnalSwing) {
  TrafficAnalyzer traffic(0, horizon_);
  replay(traffic);
  EXPECT_GT(traffic.upload_ops(), 1000u);
  // Paper: up to 10x day/night swing; accept anything clearly diurnal.
  EXPECT_GT(traffic.diurnal_swing(), 3.0);
}

TEST_F(AnalysisIntegration, Fig2bSizeCategories) {
  TrafficAnalyzer traffic(0, horizon_);
  replay(traffic);
  // Most operations involve small files, most bytes involve large files.
  const auto& ops = traffic.upload_ops_by_size();
  const auto& bytes = traffic.upload_bytes_by_size();
  EXPECT_GT(ops.fraction(0), 0.6);    // <0.5MB ops dominate (paper 84.3%)
  EXPECT_GT(bytes.fraction(4), 0.3);  // >25MB bytes dominate (paper 79.3%)
  EXPECT_LT(bytes.fraction(0), 0.25);
}

TEST_F(AnalysisIntegration, Fig2cRwRatioPattern) {
  TrafficAnalyzer traffic(0, horizon_);
  replay(traffic);
  const auto box = traffic.rw_boxplot();
  // Slightly read-dominated workload around 1 (paper median 1.14).
  EXPECT_GT(box.median, 0.4);
  EXPECT_LT(box.median, 3.0);
  // R/W ratios are NOT independent: the ACF has significant structure
  // with daily periodicity (positive lag-24 correlation).
  const auto acf = traffic.rw_acf(100);
  EXPECT_GT(acf.significant_lags, 5u);
  EXPECT_GT(acf.acf[24], acf.confidence_bound);
}

TEST_F(AnalysisIntegration, Fig2UpdateShares) {
  TrafficAnalyzer traffic(0, horizon_);
  replay(traffic);
  // Paper: 10.05% of uploads are updates carrying 18.47% of traffic.
  EXPECT_GT(traffic.update_op_fraction(), 0.03);
  EXPECT_LT(traffic.update_op_fraction(), 0.30);
  EXPECT_GT(traffic.update_traffic_fraction(), 0.02);
}

TEST_F(AnalysisIntegration, Fig3DependenciesShape) {
  FileDependencyAnalyzer deps;
  replay(deps);
  // WAW dominates the after-write family (paper: 44%).
  EXPECT_GT(deps.family_share(FileDependency::kWAW),
            deps.family_share(FileDependency::kDAW));
  // RAR dominates the after-read family (paper: 66%).
  EXPECT_GT(deps.family_share(FileDependency::kRAR),
            deps.family_share(FileDependency::kWAR));
  // 80% of WAW gaps under an hour would need exact calibration; check
  // the majority are short (bursty editing).
  Ecdf waw{std::vector<double>(deps.times(FileDependency::kWAW))};
  EXPECT_GT(waw.at(3600.0), 0.5);
  // Downloads-per-file has a tail.
  const auto downloads = deps.downloads_per_file();
  ASSERT_FALSE(downloads.empty());
  Ecdf dl{std::vector<double>(downloads)};
  EXPECT_GT(dl.max(), 5.0);
}

TEST_F(AnalysisIntegration, Fig3cLifetimes) {
  NodeLifetimeAnalyzer life;
  replay(life);
  ASSERT_GT(life.files_created(), 500u);
  const double within_month = life.file_deleted_fraction(30 * kDay);
  // Paper: 28.9% of new files deleted within the month. Accept a band.
  EXPECT_GT(within_month, 0.05);
  EXPECT_LT(within_month, 0.6);
  // Deletions shortly after creation exist (paper: 17.1% within 8h).
  EXPECT_GT(life.file_deleted_fraction(8 * kHour), 0.01);
}

TEST_F(AnalysisIntegration, Fig4aDedup) {
  DedupAnalyzer dedup;
  replay(dedup);
  // Paper: dr = 0.171, ~80% of hashes unique.
  EXPECT_GT(dedup.dedup_ratio(), 0.08);
  EXPECT_LT(dedup.dedup_ratio(), 0.30);
  EXPECT_GT(dedup.unique_fraction(), 0.6);
  // Long tail: some hash has many copies.
  const auto copies = dedup.copies_per_hash();
  Ecdf c{std::vector<double>(copies)};
  EXPECT_GT(c.max(), 10.0);
}

TEST_F(AnalysisIntegration, Fig4bSizes) {
  FileTypeAnalyzer types;
  replay(types);
  // Paper: 90% of files < 1MB.
  EXPECT_GT(types.fraction_below(1024.0 * 1024.0), 0.8);
  // mp3 files are much bigger than code files.
  const auto mp3 = types.sizes_of("mp3");
  const auto py = types.sizes_of("py");
  if (mp3.size() > 20 && py.size() > 20) {
    EXPECT_GT(median_of(mp3), 20.0 * median_of(py));
  }
}

TEST_F(AnalysisIntegration, Fig4cCategoryShares) {
  FileTypeAnalyzer types;
  replay(types);
  const auto shares = types.category_shares();
  double code_files = 0, av_files = 0, av_storage = 0, code_storage = 0;
  for (const auto& s : shares) {
    if (s.category == FileCategory::kCode) {
      code_files = s.file_share;
      code_storage = s.storage_share;
    }
    if (s.category == FileCategory::kAudioVideo) {
      av_files = s.file_share;
      av_storage = s.storage_share;
    }
  }
  // Code: many files, little storage. Audio/Video: few files, much storage.
  EXPECT_GT(code_files, av_files);
  EXPECT_GT(av_storage, code_storage);
}

TEST_F(AnalysisIntegration, Fig5DdosDetection) {
  DdosAnalyzer ddos(0, horizon_);
  replay(ddos);
  const auto attacks = ddos.detect();
  // Jan 15 + Jan 16 fall inside the 14-day window.
  EXPECT_GE(ddos.attack_days(), 2u);
  ASSERT_GE(attacks.size(), 1u);
  // The session/auth spike is in the paper's 5-15x ballpark.
  double max_mult = 0;
  for (const auto& a : attacks) max_mult = std::max(max_mult, a.peak_multiplier);
  EXPECT_GT(max_mult, 4.0);
}

TEST_F(AnalysisIntegration, Fig6OnlineVsActive) {
  UserActivityAnalyzer users(0, horizon_);
  replay(users);
  users.finalize();
  const auto online = users.online_users_hourly();
  const auto active = users.active_users_hourly();
  double online_peak = 0, active_peak = 0;
  for (const double v : online) online_peak = std::max(online_peak, v);
  for (const double v : active) active_peak = std::max(active_peak, v);
  EXPECT_GT(online_peak, 0);
  // Online users clearly outnumber active ones (paper: 3.5%-16%).
  EXPECT_GT(online_peak, 3.0 * active_peak);
}

TEST_F(AnalysisIntegration, Fig7TrafficSkew) {
  UserActivityAnalyzer users(0, horizon_);
  replay(users);
  users.finalize();
  // Paper: Gini ~0.89; minority of users transfer anything at all.
  EXPECT_GT(users.upload_lorenz().gini, 0.7);
  EXPECT_GT(users.download_lorenz().gini, 0.7);
  EXPECT_LT(users.downloaders_fraction(), 0.6);
  EXPECT_GT(users.top_traffic_share(0.01), 0.2);
  const auto classes = users.classify_users();
  // Occasional users dominate (paper: 85.8%).
  EXPECT_GT(classes.occasional, 0.5);
  EXPECT_NEAR(classes.occasional + classes.upload_only +
                  classes.download_only + classes.heavy,
              1.0, 1e-9);
}

TEST_F(AnalysisIntegration, Fig7aOpMix) {
  OpMixAnalyzer mix;
  replay(mix);
  EXPECT_TRUE(mix.data_ops_dominate());
  EXPECT_GT(mix.count(ApiOp::kGetContent), 0u);
  EXPECT_GT(mix.count(ApiOp::kPutContent), 0u);
  EXPECT_GT(mix.open_sessions(), 1000u);
}

TEST_F(AnalysisIntegration, Fig8Transitions) {
  TransitionGraphAnalyzer graph;
  replay(graph);
  EXPECT_GT(graph.total_transitions(), 1000u);
  // Transfers repeat: a transfer is most likely followed by a transfer.
  const double down_down = graph.self_loop(ApiOp::kGetContent);
  EXPECT_GT(down_down, 0.25);
  const auto edges = graph.edges();
  ASSERT_FALSE(edges.empty());
  EXPECT_GE(edges.front().global_probability, 0.02);
}

TEST_F(AnalysisIntegration, Fig9Burstiness) {
  BurstinessAnalyzer bursts;
  replay(bursts);
  ASSERT_GT(bursts.upload_gaps().size(), 500u);
  // Far from Poisson.
  EXPECT_GT(bursts.upload_cv2(), 3.0);
  const auto fit = bursts.upload_fit();
  EXPECT_GT(fit.alpha, 1.0);
  EXPECT_LT(fit.alpha, 2.6);
}

TEST_F(AnalysisIntegration, Fig10VolumeContents) {
  const auto stats = analyze_volume_contents(sim_->stores());
  ASSERT_GT(stats.files_dirs.size(), 500u);
  // Strong files/dirs correlation (paper: 0.998).
  EXPECT_GT(stats.pearson_files_dirs, 0.5);
  EXPECT_GT(stats.volumes_with_file_share, 0.3);
}

TEST_F(AnalysisIntegration, Fig11Ownership) {
  const auto stats = analyze_volume_ownership(sim_->stores(), 1200);
  // Paper: 58% of users have UDFs; 1.8% have shares.
  EXPECT_GT(stats.users_with_udf, 0.35);
  EXPECT_LT(stats.users_with_udf, 0.8);
  EXPECT_LT(stats.users_with_share, 0.1);
}

TEST_F(AnalysisIntegration, Fig12RpcTails) {
  RpcPerfAnalyzer rpcs;
  replay(rpcs);
  for (const RpcOp op : {RpcOp::kMakeFile, RpcOp::kGetUserIdFromToken}) {
    ASSERT_GT(rpcs.count(op), 100u) << to_string(op);
    const double tail = rpcs.tail_fraction(op);
    EXPECT_GT(tail, 0.03) << to_string(op);
    EXPECT_LT(tail, 0.3) << to_string(op);
  }
}

TEST_F(AnalysisIntegration, Fig13Scatter) {
  RpcPerfAnalyzer rpcs;
  replay(rpcs);
  const auto scatter = rpcs.scatter();
  ASSERT_GT(scatter.size(), 8u);
  double read_median = 0, cascade_median = 0;
  for (const auto& p : scatter) {
    if (p.op == RpcOp::kListVolumes) read_median = p.median_s;
    if (p.op == RpcOp::kDeleteVolume) cascade_median = p.median_s;
  }
  ASSERT_GT(read_median, 0);
  // Cascades are more than an order of magnitude slower than fast reads.
  EXPECT_GT(cascade_median, 10.0 * read_median);
}

TEST_F(AnalysisIntegration, Fig14LoadBalance) {
  LoadBalanceAnalyzer load(0, horizon_);
  replay(load);
  // Short-window shard imbalance far exceeds the long-term one.
  EXPECT_GT(load.shard_short_term_cv(), load.shard_long_term_cv());
  // Absolute long-term imbalance shrinks with population; at 1200 users
  // the heavy-tailed per-user activity leaves visible imbalance.
  EXPECT_LT(load.shard_long_term_cv(), 0.9);
  EXPECT_GT(load.api_short_term_cv(), 0.0);
}

TEST_F(AnalysisIntegration, Fig15AuthActivity) {
  SessionAnalyzer sessions(0, horizon_);
  replay(sessions);
  // Paper: 2.76% auth failures.
  EXPECT_GT(sessions.auth_failure_fraction(), 0.005);
  EXPECT_LT(sessions.auth_failure_fraction(), 0.15);
}

TEST_F(AnalysisIntegration, Fig16Sessions) {
  SessionAnalyzer sessions(0, horizon_);
  replay(sessions);
  ASSERT_GT(sessions.sessions_closed(), 1000u);
  // Paper: 32% < 1s, 97% < 8h, 5.57% active.
  EXPECT_GT(sessions.fraction_shorter_than(kSecond), 0.15);
  EXPECT_GT(sessions.fraction_shorter_than(8 * kHour), 0.85);
  EXPECT_LT(sessions.active_session_fraction(), 0.3);
  // Ops/session heavy tail: top 20% of active sessions carry the bulk.
  EXPECT_GT(sessions.top_sessions_op_share(0.2), 0.6);
}

TEST_F(AnalysisIntegration, Table3Summary) {
  TraceSummaryAnalyzer summary(horizon_);
  replay(summary);
  const auto s = summary.summary();
  EXPECT_EQ(s.days, 14);
  EXPECT_GT(s.unique_users, 1000u);
  EXPECT_GT(s.unique_files, 1000u);
  EXPECT_GT(s.sessions, 1000u);
  EXPECT_GT(s.transfer_ops, 1000u);
  EXPECT_GT(s.upload_bytes, 0u);
  EXPECT_GT(s.download_bytes, 0u);
}

TEST_F(AnalysisIntegration, Table1Findings) {
  TrafficAnalyzer traffic(0, horizon_);
  FileTypeAnalyzer types;
  DedupAnalyzer dedup;
  DdosAnalyzer ddos(0, horizon_);
  UserActivityAnalyzer users(0, horizon_);
  BurstinessAnalyzer bursts;
  RpcPerfAnalyzer rpcs;
  LoadBalanceAnalyzer load(0, horizon_);
  SessionAnalyzer sessions(0, horizon_);
  for (const TraceRecord& r : sink_->records()) {
    traffic.append(r);
    types.append(r);
    dedup.append(r);
    ddos.append(r);
    users.append(r);
    bursts.append(r);
    rpcs.append(r);
    load.append(r);
    sessions.append(r);
  }
  users.finalize();
  const auto findings = extract_findings(types, traffic, dedup, ddos, users,
                                         bursts, rpcs, load, sessions);
  ASSERT_EQ(findings.size(), 10u);
  int holds = 0;
  for (const auto& f : findings) {
    if (f.shape_holds) ++holds;
  }
  // At this small scale every qualitative finding should reproduce; allow
  // one marginal miss.
  EXPECT_GE(holds, 9) << [&] {
    std::string misses;
    for (const auto& f : findings)
      if (!f.shape_holds) misses += f.id + " ";
    return misses;
  }();
}

}  // namespace
}  // namespace u1
