// Determinism oracle for the shard-parallel engine: the merged trace and
// the aggregated report must be byte-identical for every thread count,
// including the inline 1-thread execution. Any divergence means a
// cross-group dependency leaked out of the epoch/merge protocol.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/sharded.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"
#include "trace/sink.hpp"
#include "trace/symbols.hpp"

namespace u1 {
namespace {

SimulationConfig small_config(bool auto_guard = false) {
  SimulationConfig cfg;
  cfg.users = 200;
  cfg.days = 3;
  cfg.seed = 20140111;
  cfg.enable_ddos = true;
  cfg.auto_countermeasures = auto_guard;
  return cfg;
}

std::vector<std::string> run_trace(const SimulationConfig& cfg,
                                   std::size_t threads,
                                   SimulationReport* report = nullptr) {
  InMemorySink sink;
  ParallelSimulation sim(cfg, sink, threads);
  const SimulationReport r = sim.run();
  if (report != nullptr) *report = r;
  std::vector<std::string> lines;
  lines.reserve(sink.records().size());
  for (const TraceRecord& rec : sink.records()) {
    std::string line;
    for (const std::string& field : rec.to_csv()) {
      line += field;
      line += ',';
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

void expect_reports_equal(const SimulationReport& a,
                          const SimulationReport& b) {
  EXPECT_EQ(a.users, b.users);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.agent_wakeups, b.agent_wakeups);
  EXPECT_EQ(a.bootstrap_files, b.bootstrap_files);
  EXPECT_EQ(a.ddos_attacks, b.ddos_attacks);
  EXPECT_EQ(a.auto_purges, b.auto_purges);
  EXPECT_EQ(a.first_auto_response_delay, b.first_auto_response_delay);
  EXPECT_EQ(a.backend.sessions_opened, b.backend.sessions_opened);
  EXPECT_EQ(a.backend.sessions_closed, b.backend.sessions_closed);
  EXPECT_EQ(a.backend.auth_failures, b.backend.auth_failures);
  EXPECT_EQ(a.backend.uploads, b.backend.uploads);
  EXPECT_EQ(a.backend.downloads, b.backend.downloads);
  EXPECT_EQ(a.backend.dedup_hits, b.backend.dedup_hits);
  EXPECT_EQ(a.backend.upload_bytes_logical, b.backend.upload_bytes_logical);
  EXPECT_EQ(a.backend.upload_bytes_wire, b.backend.upload_bytes_wire);
  EXPECT_EQ(a.backend.download_bytes, b.backend.download_bytes);
  EXPECT_EQ(a.backend.rpcs, b.backend.rpcs);
  EXPECT_EQ(a.backend.notifications, b.backend.notifications);
}

TEST(ParallelSimulation, TraceIdenticalAcrossThreadCounts) {
  const auto cfg = small_config();
  SimulationReport r1, r2, r8;
  const auto t1 = run_trace(cfg, 1, &r1);
  const auto t2 = run_trace(cfg, 2, &r2);
  const auto t8 = run_trace(cfg, 8, &r8);

  ASSERT_FALSE(t1.empty());
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    ASSERT_EQ(t1[i], t2[i]) << "first divergence (2 threads) at row " << i;
    ASSERT_EQ(t1[i], t8[i]) << "first divergence (8 threads) at row " << i;
  }
  expect_reports_equal(r1, r2);
  expect_reports_equal(r1, r8);
}

TEST(ParallelSimulation, AutoGuardIdenticalAcrossThreadCounts) {
  // The AnomalyGuard purge path crosses groups through the inter-epoch
  // mailbox; it must stay deterministic too.
  const auto cfg = small_config(/*auto_guard=*/true);
  SimulationReport r1, r4;
  const auto t1 = run_trace(cfg, 1, &r1);
  const auto t4 = run_trace(cfg, 4, &r4);
  ASSERT_EQ(t1.size(), t4.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    ASSERT_EQ(t1[i], t4[i]) << "first divergence at row " << i;
  }
  expect_reports_equal(r1, r4);
}

TEST(ParallelSimulation, RunAppliesTheSetupDraws) {
  // draw_setup is the only reader of the master stream: the engine's
  // bootstrap is exactly the drawn file counts, and the draws are a pure
  // function of the config (the distributed coordinator weighs its
  // slices with a second call).
  const auto cfg = small_config();
  SetupDraws first = draw_setup(cfg);
  SetupDraws second = draw_setup(cfg);
  ASSERT_EQ(first.groups.size(), cfg.backend.shards);
  ASSERT_EQ(first.users.size(), cfg.users);
  ASSERT_EQ(second.groups.size(), first.groups.size());
  ASSERT_EQ(second.users.size(), first.users.size());
  for (std::size_t g = 0; g < first.groups.size(); ++g)
    EXPECT_EQ(first.groups[g].next(), second.groups[g].next()) << g;
  std::uint64_t drawn_files = 0;
  std::size_t sharers = 0;
  for (std::size_t i = 0; i < first.users.size(); ++i) {
    SetupDraws::User& a = first.users[i];
    SetupDraws::User& b = second.users[i];
    EXPECT_EQ(a.profile.user_class, b.profile.user_class) << i;
    EXPECT_EQ(a.profile.activity, b.profile.activity) << i;
    EXPECT_EQ(a.profile.sessions_per_day, b.profile.sessions_per_day) << i;
    EXPECT_EQ(a.profile.sharer, b.profile.sharer) << i;
    EXPECT_EQ(a.rng.next(), b.rng.next()) << i;
    EXPECT_EQ(a.peer, b.peer) << i;
    EXPECT_EQ(a.bootstrap_files, b.bootstrap_files) << i;
    EXPECT_EQ(a.bootstrap_at, b.bootstrap_at) << i;
    EXPECT_EQ(a.first_arrival, b.first_arrival) << i;
    // A peer is drawn for exactly the sharers, and never the sharer.
    EXPECT_EQ(a.peer.has_value(), a.profile.sharer) << i;
    if (a.peer) {
      EXPECT_NE(*a.peer, i);
    }
    sharers += a.profile.sharer ? 1 : 0;
    EXPECT_GE(a.bootstrap_at, -4 * kDay) << i;
    EXPECT_LT(a.bootstrap_at, -2 * kDay) << i;
    EXPECT_GT(a.first_arrival, 0) << i;
    drawn_files += a.bootstrap_files;
  }
  EXPECT_GT(drawn_files, 0u);
  EXPECT_GT(sharers, 0u);

  SimulationReport report;
  run_trace(cfg, 2, &report);
  EXPECT_EQ(report.bootstrap_files, drawn_files);
}

TEST(ParallelSimulation, RepeatedRunsAreIdentical) {
  // Same config + same thread count twice: the engine must be a pure
  // function of the seed (no wall-clock, address, or scheduling leaks).
  const auto cfg = small_config();
  const auto a = run_trace(cfg, 2);
  const auto b = run_trace(cfg, 2);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b);
}

/// Digest of every field of every record in sink order, label strings
/// included. Hashes the batches stage B hands over, so no per-record
/// virtual call or CSV row sits between the engine and the check.
class DigestSink final : public TraceSink {
 public:
  void append(const TraceRecord& r) override { append_batch(&r, 1); }
  void append_batch(const TraceRecord* records, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      const TraceRecord& r = records[i];
      mix(static_cast<std::uint64_t>(r.t));
      mix(static_cast<std::uint64_t>(r.duration));
      mix(r.size_bytes);
      mix(r.transferred_bytes);
      mix_bytes(r.node.bytes);
      mix_bytes(r.parent.bytes);
      mix_bytes(r.volume.bytes);
      mix_bytes(r.content.bytes);
      mix(r.service_time);
      mix(r.user.value);
      mix(r.session.value);
      for (const char c : global_symbols().resolve(r.label))
        mix(static_cast<unsigned char>(c));
      mix(r.process.value);
      mix(r.shard.value);
      mix(r.machine.value);
      mix(static_cast<std::uint64_t>(r.type) |
          static_cast<std::uint64_t>(r.session_event) << 8 |
          static_cast<std::uint64_t>(r.api_op) << 16 |
          static_cast<std::uint64_t>(r.rpc_op) << 24 |
          std::uint64_t{r.is_update} << 32 | std::uint64_t{r.is_dir} << 33 |
          std::uint64_t{r.deduplicated} << 34 | std::uint64_t{r.failed} << 35);
      ++records_;
    }
  }
  std::pair<std::uint64_t, std::uint64_t> digest() const {
    return {h_, records_};
  }

 private:
  void mix(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x9e3779b97f4a7c15ull;
    h_ ^= h_ >> 29;
  }
  template <std::size_t N>
  void mix_bytes(const std::array<std::uint8_t, N>& bytes) {
    for (std::size_t i = 0; i < N; i += 4) {
      std::uint64_t w = 0;
      for (std::size_t j = i; j < std::min(N, i + 4); ++j)
        w = w << 8 | bytes[j];
      mix(w);
    }
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
  std::uint64_t records_ = 0;
};

std::pair<std::uint64_t, std::uint64_t> trace_digest(
    const SimulationConfig& cfg, std::size_t threads) {
  DigestSink sink;
  ParallelSimulation sim(cfg, sink, threads);
  sim.run();
  return sink.digest();
}

TEST(ParallelSimulation, PerEpochFlushTasksMatchTheInlineTrace) {
  // Determinism stress for the flush pipeline: each epoch's flush task
  // preps the groups of its epoch on several threads while the previous
  // epoch's task may still be writing. A task that reached another
  // epoch's ring slot makes an occasional run's trace differ, so it
  // takes many repeated multi-threaded runs to show; each must digest
  // to the inline 1-thread trace.
  SimulationConfig cfg;
  cfg.users = 1000;
  cfg.days = 14;
  cfg.seed = 20140111;
  cfg.enable_ddos = true;
  const auto want = trace_digest(cfg, 1);
  ASSERT_GT(want.second, 0u);
  for (int run = 0; run < 20; ++run)
    EXPECT_EQ(trace_digest(cfg, 4), want) << "run " << run;
}

TEST(ParallelSimulation, EpochMergeKeepsRecordsSorted) {
  // Within each merged epoch records are sorted by t; across epoch
  // boundaries only bounded service-time lookahead (storage-done records
  // stamped at t + service) may run ahead. Any larger regression means
  // the merge is broken.
  InMemorySink sink;
  ParallelSimulation sim(small_config(), sink, 2);
  sim.run();
  ASSERT_FALSE(sink.records().empty());
  SimTime prev = sink.records().front().t;
  for (const TraceRecord& r : sink.records()) {
    EXPECT_GE(r.t, prev - kHour) << "record older than one epoch";
    prev = std::max(prev, r.t);
  }
}

TEST(ParallelSimulation, GroupCountMatchesShards) {
  const auto cfg = small_config();
  InMemorySink sink;
  ParallelSimulation sim(cfg, sink, 2);
  EXPECT_EQ(sim.threads(), 2u);
  sim.run();
  EXPECT_EQ(sim.group_count(), cfg.backend.shards);
}

TEST(ParallelSimulation, ReportCountersMatchTrace) {
  InMemorySink sink;
  ParallelSimulation sim(small_config(), sink, 2);
  const SimulationReport report = sim.run();
  std::uint64_t opens = 0;
  for (const TraceRecord& r : sink.records()) {
    if (r.type == RecordType::kSession &&
        r.session_event == SessionEvent::kOpen)
      ++opens;
  }
  EXPECT_EQ(report.backend.sessions_opened, opens);
  EXPECT_EQ(report.users, 200u);
}

TEST(ParallelSimulation, StickyPlanRebuildHysteresis) {
  // The sticky scheduler may only repartition when the EMA-smoothed
  // load drift stays past threshold AND at least 12 epochs passed since
  // the last rebuild. On a fixed seed the rebuild count is therefore a
  // pure function of the config: pin it against itself across runs and
  // against the floor-derived ceiling so a future change to the
  // hysteresis shows up here instead of as silent churn.
  const auto cfg = small_config();
  InMemorySink s1, s2;
  ParallelSimulation a(cfg, s1, 4);
  a.run();
  ParallelSimulation b(cfg, s2, 4);
  b.run();

  EXPECT_EQ(a.phases().plan_rebuilds, b.phases().plan_rebuilds);
  EXPECT_GE(a.phases().plan_rebuilds, 1u);  // the initial LPT build
  // Floor of 12 epochs between rebuilds bounds the count from above.
  const std::uint64_t epochs = a.phases().epochs;
  EXPECT_LE(a.phases().plan_rebuilds, 1 + epochs / 12);
}

/// Throws once the n-th record arrives, like a disk filling up mid-run.
class ThrowingSink final : public TraceSink {
 public:
  explicit ThrowingSink(std::uint64_t n) : left_(n) {}
  void append(const TraceRecord&) override {
    if (--left_ == 0) throw std::runtime_error("sink refused record");
  }

 private:
  std::uint64_t left_;
};

/// An analyzer whose shards throw when, between them, they reach the
/// n-th record. Shards consume on several threads at once, hence the
/// shared atomic countdown; exactly one consume call crosses it.
class ThrowingAnalyzer final : public ShardedAnalyzer {
 public:
  explicit ThrowingAnalyzer(std::uint64_t n)
      : left_(static_cast<std::int64_t>(n)) {}
  std::unique_ptr<AnalyzerShard> make_shard() override {
    return std::make_unique<Shard>(left_);
  }
  void merge_shard(AnalyzerShard&) override {}

 private:
  struct Shard final : AnalyzerShard {
    explicit Shard(std::atomic<std::int64_t>& left) : left(left) {}
    void consume(const TraceRecord*, std::size_t count) override {
      const auto n = static_cast<std::int64_t>(count);
      const std::int64_t before = left.fetch_sub(n);
      if (before > 0 && before <= n)
        throw std::runtime_error("shard refused records");
    }
    std::atomic<std::int64_t>& left;
  };
  std::atomic<std::int64_t> left_;
};

/// Runs `sim` and expects run() to rethrow `what`; the engine must then
/// be destroyed by the caller.
void expect_run_rethrows(ParallelSimulation& sim, const char* what) {
  try {
    sim.run();
    FAIL() << "run() returned despite the failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), what);
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(ParallelSimulation, FailuresMidRunRethrowFromRunAndEngineDestructs) {
  const auto cfg = small_config();
  CountingSink counting;
  ParallelSimulation(cfg, counting, 1).run();
  const std::uint64_t half = counting.total() / 2;
  ASSERT_GT(half, 0u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // A full run of this config takes about a second; a flush task or a
    // worker left waiting would hold the run or the destructor until the
    // test timeout. The engines go out of scope before the clock stops.
    const auto t0 = std::chrono::steady_clock::now();
    {
      ThrowingSink sink(half);
      ParallelSimulation sim(cfg, sink, threads);
      expect_run_rethrows(sim, "sink refused record");
    }
    {
      CountingSink sink;
      ThrowingAnalyzer analyzer(half);
      ParallelSimulation sim(cfg, sink, threads);
      sim.attach_analyzer(analyzer);
      expect_run_rethrows(sim, "shard refused records");
    }
    EXPECT_LT(seconds_since(t0), 30.0);
  }
}

TEST(EventQueue, PopMovesPayloadOut) {
  EventQueue<std::string> q;
  q.push(SimTime{1}, std::string(128, 'x'));
  const auto ev = q.pop();
  EXPECT_EQ(ev.t, SimTime{1});
  EXPECT_EQ(ev.payload.size(), 128u);
}

}  // namespace
}  // namespace u1
