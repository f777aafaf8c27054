// Epoch-pipeline invariants: the k-way trace merge must reproduce the
// stable_sort total order exactly; the calendar queue must pop in a
// binary heap's exact order (FIFO ties included); the pipelined flush
// must leave the merged trace byte-identical, and its trace buffers must
// not outlive the bootstrap or a burst; and the bounded MPSC mailbox must
// drain deterministically.
#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/mailbox.hpp"
#include "sim/parallel.hpp"
#include "sim/trace_merge.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

namespace u1 {
namespace {

// --------------------------------------------------------------------------
// K-way merge vs the old concat + stable_sort.

TraceRecord record_at(SimTime t, std::uint64_t tag) {
  TraceRecord r;
  r.t = t;
  r.user = UserId{tag};  // payload marker so order mix-ups are visible
  return r;
}

std::string key(const TraceRecord& r) {
  return std::to_string(r.t) + "/" + std::to_string(r.user.value);
}

TEST(TraceMerge, MatchesStableSortOnTieHeavyChunks) {
  // Heavy ties: timestamps drawn from just 16 values across 7 chunks, so
  // nearly every pop breaks a tie. The old pipeline concatenated chunks
  // in group order and stable_sorted by t; the k-way merge must emit the
  // exact same sequence.
  Rng rng(7u);
  std::vector<std::vector<TraceRecord>> chunks(7);
  std::uint64_t tag = 0;
  for (auto& chunk : chunks) {
    const std::size_t n = rng.below(400);
    for (std::size_t i = 0; i < n; ++i)
      chunk.push_back(record_at(static_cast<SimTime>(rng.below(16)), tag++));
  }

  std::vector<TraceRecord> reference;
  for (const auto& chunk : chunks)
    reference.insert(reference.end(), chunk.begin(), chunk.end());
  std::stable_sort(reference.begin(), reference.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.t < b.t;
                   });

  for (auto& chunk : chunks) sort_trace_chunk(chunk);
  std::vector<TraceRecord> merged;
  merge_trace_chunks(chunks, [&](const TraceRecord& r) {
    merged.push_back(r);
  });

  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i)
    ASSERT_EQ(key(merged[i]), key(reference[i])) << "divergence at " << i;
}

TEST(TraceMerge, HandlesUnsortedChunksAndEmptyChunks) {
  // Per-group chunks are only *nearly* sorted (service-time lookahead
  // stamps records ahead of the event clock); sort_trace_chunk must
  // restore order without disturbing equal-timestamp emission order.
  std::vector<std::vector<TraceRecord>> chunks(4);
  chunks[1] = {record_at(50, 0), record_at(10, 1), record_at(50, 2),
               record_at(10, 3)};
  chunks[3] = {record_at(10, 4), record_at(50, 5)};
  for (auto& chunk : chunks) sort_trace_chunk(chunk);
  std::vector<std::string> got;
  merge_trace_chunks(chunks, [&](const TraceRecord& r) {
    got.push_back(key(r));
  });
  // t=10: chunk 1 keeps (1,3) emission order, then chunk 3's 4;
  // t=50: chunk 1's (0,2), then chunk 3's 5.
  const std::vector<std::string> want = {"10/1", "10/3", "10/4",
                                         "50/0", "50/2", "50/5"};
  EXPECT_EQ(got, want);
}

TEST(TraceMerge, KeySortEqualsStableSort) {
  // sort_trace_chunk sorts (t, index) keys and then moves each record
  // once along the permutation's cycles; the result must be exactly
  // std::stable_sort's. Timestamps come from 8 values, so nearly every
  // record ties; each size also runs on an already sorted chunk.
  Rng rng(11u);
  const auto by_time = [](const TraceRecord& a, const TraceRecord& b) {
    return a.t < b.t;
  };
  for (const std::size_t n : {0, 1, 2, 1023, 1024, 100000}) {
    for (const bool presorted : {false, true}) {
      PageVector<TraceRecord> chunk;
      for (std::size_t i = 0; i < n; ++i)
        chunk.push_back(record_at(static_cast<SimTime>(rng.below(8)), i));
      if (presorted) std::stable_sort(chunk.begin(), chunk.end(), by_time);
      std::vector<TraceRecord> want(chunk.begin(), chunk.end());
      std::stable_sort(want.begin(), want.end(), by_time);
      sort_trace_chunk(chunk);
      ASSERT_EQ(chunk.size(), want.size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(chunk[i].t, want[i].t) << n << " at " << i;
        ASSERT_EQ(chunk[i].user, want[i].user) << n << " at " << i;
      }
    }
  }
}

TEST(TraceMerge, PlanIsIndexPermutationOverChunks) {
  // The plan must reference every record exactly once, in the contract
  // order, without touching the chunks — stage A (guard scan) and stage
  // B (sink writes) both walk it independently.
  Rng rng(21u);
  std::vector<std::vector<TraceRecord>> chunks(5);
  std::uint64_t tag = 0;
  for (auto& chunk : chunks) {
    const std::size_t n = rng.below(200);
    for (std::size_t i = 0; i < n; ++i)
      chunk.push_back(record_at(static_cast<SimTime>(rng.below(32)), tag++));
  }
  for (auto& chunk : chunks) sort_trace_chunk(chunk);
  std::vector<MergeRef> plan;
  build_merge_plan(chunks, plan);
  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  ASSERT_EQ(plan.size(), total);
  std::vector<std::vector<bool>> seen(chunks.size());
  for (std::size_t g = 0; g < chunks.size(); ++g)
    seen[g].assign(chunks[g].size(), false);
  SimTime last = std::numeric_limits<SimTime>::min();
  for (const MergeRef ref : plan) {
    ASSERT_LT(ref.group, chunks.size());
    ASSERT_LT(ref.offset, chunks[ref.group].size());
    EXPECT_FALSE(seen[ref.group][ref.offset]) << "duplicate ref";
    seen[ref.group][ref.offset] = true;
    const SimTime t = chunks[ref.group][ref.offset].t;
    EXPECT_LE(last, t) << "plan not time-ordered";
    last = t;
  }
}

// --------------------------------------------------------------------------
// Calendar queue vs binary heap: identical pop order, FIFO ties included.

/// Reference order: a binary min-heap of (t, push index) — FIFO among
/// equal timestamps.
using HeapRef = std::pair<SimTime, std::uint64_t>;

void expect_same_pop_order(const std::vector<SimTime>& pushes,
                           double pop_prob, std::uint64_t seed) {
  std::priority_queue<HeapRef, std::vector<HeapRef>, std::greater<>> heap;
  EventQueue<std::uint64_t> calendar;
  Rng rng(seed);
  std::uint64_t tag = 0;
  std::size_t checked = 0;
  const auto pop_both = [&] {
    const auto [t_heap, tag_heap] = heap.top();
    heap.pop();
    const SimTime t_cal = calendar.next_time();
    ASSERT_EQ(t_heap, t_cal) << "next_time diverged after " << checked;
    const auto b = calendar.pop();
    ASSERT_EQ(t_heap, b.t) << "timestamp diverged at pop " << checked;
    ASSERT_EQ(tag_heap, b.payload)
        << "FIFO tie-break diverged at pop " << checked << " (t=" << t_heap
        << ")";
    ++checked;
  };
  for (const SimTime t : pushes) {
    heap.emplace(t, tag);
    calendar.push(t, tag);
    ++tag;
    // Interleave pops so the calendar's cursor/resize machinery runs in
    // mid-stream states, not just on a fully built queue.
    if (!heap.empty() && rng.chance(pop_prob)) pop_both();
  }
  while (!heap.empty()) pop_both();
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(checked, pushes.size());
}

TEST(CalendarQueue, MatchesHeapOnDenseTies) {
  // 5k events over 40 distinct timestamps: ties dominate, the FIFO seq
  // tie-break carries the whole order.
  Rng rng(11u);
  std::vector<SimTime> pushes;
  for (int i = 0; i < 5000; ++i)
    pushes.push_back(static_cast<SimTime>(rng.below(40)) * kSecond);
  expect_same_pop_order(pushes, 0.4, 99u);
}

TEST(CalendarQueue, MatchesHeapOnMixedWorkload) {
  // Simulation-shaped: a drifting "now" with exponential-ish forward
  // jumps, occasional far-future events (maintenance, attacks).
  Rng rng(12u);
  std::vector<SimTime> pushes;
  SimTime now = 0;
  for (int i = 0; i < 8000; ++i) {
    now += static_cast<SimTime>(rng.below(30 * kSecond));
    SimTime t = now;
    if (rng.chance(0.05)) t += static_cast<SimTime>(rng.below(2 * kDay));
    pushes.push_back(t);
  }
  expect_same_pop_order(pushes, 0.5, 100u);
}

TEST(CalendarQueue, MatchesHeapOnSparseGaps) {
  // Huge gaps force the calendar's empty-year fallback scan and width
  // re-estimation.
  Rng rng(13u);
  std::vector<SimTime> pushes;
  for (int i = 0; i < 600; ++i)
    pushes.push_back(static_cast<SimTime>(rng.below(400) * 90 * kDay));
  expect_same_pop_order(pushes, 0.2, 101u);
}

TEST(CalendarQueue, MatchesHeapOnNegativeTimestamps) {
  // Bootstrap events run at t < 0; floor division must keep negative
  // buckets ordered.
  Rng rng(14u);
  std::vector<SimTime> pushes;
  for (int i = 0; i < 3000; ++i)
    pushes.push_back(static_cast<SimTime>(rng.below(8 * kDay)) - 4 * kDay);
  expect_same_pop_order(pushes, 0.3, 102u);
}

// --------------------------------------------------------------------------
// Engine-level invariance: the flush ring decides only when sink writes
// happen, never what they write — the merged trace must not move a byte.

SimulationConfig small_config(bool auto_guard = false) {
  SimulationConfig cfg;
  cfg.users = 200;
  cfg.days = 2;
  cfg.seed = 20140111;
  cfg.enable_ddos = true;
  cfg.auto_countermeasures = auto_guard;
  return cfg;
}

std::vector<std::string> run_trace_with(
    const SimulationConfig& cfg, std::size_t threads,
    ParallelSimulation::EpochPhases* phases = nullptr,
    std::size_t* bootstrap_records = nullptr) {
  InMemorySink sink;
  ParallelSimulation sim(cfg, sink, threads);
  sim.run();
  if (phases != nullptr) *phases = sim.phases();
  if (bootstrap_records != nullptr)
    *bootstrap_records = static_cast<std::size_t>(
        std::count_if(sink.records().begin(), sink.records().end(),
                      [](const TraceRecord& r) { return r.t < 0; }));
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

void expect_traces_equal(const std::vector<std::string>& a,
                         const std::vector<std::string>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << ": first divergence at row " << i;
}

TEST(EpochPipeline, FlushDepthDoesNotChangeTrace) {
  // The ring depth K only decides how far sink writes may lag the
  // barrier; the guard purge schedule is pinned to stage A (joined
  // every barrier) so the pipelined run, whose writes lag up to K
  // epochs, must emit the inline run's byte-identical trace. auto_guard
  // on: purge timing is exactly the thing a buggy ring would move.
  const auto cfg = small_config(/*auto_guard=*/true);
  const auto baseline = run_trace_with(cfg, 1);
  ASSERT_FALSE(baseline.empty());
  const auto pooled = run_trace_with(cfg, 4);
  expect_traces_equal(baseline, pooled, "4-thread ring vs inline");
}

TEST(EpochPipeline, RingFreesBootstrapAndBurstBuffers) {
  // Six days reach the Jan 16 DDoS (day 5), whose epochs grow one
  // group's trace buffer far past the others. The buffers the bootstrap
  // flush and that burst grew must not circulate for the rest of the
  // run, and what the ring holds must not depend on the thread count.
  SimulationConfig cfg = small_config();
  cfg.users = 600;
  cfg.days = 6;
  // The bootstrap chunk is the pre-trace (t < 0) records.
  std::size_t bootstrap_records = 0;
  const auto baseline = run_trace_with(cfg, 1, nullptr, &bootstrap_records);
  ASSERT_FALSE(baseline.empty());
  ASSERT_GT(bootstrap_records, 0u);
  const std::uint64_t bootstrap_bytes =
      bootstrap_records * sizeof(TraceRecord);

  ParallelSimulation::EpochPhases inline_run;
  ParallelSimulation::EpochPhases pooled_run;
  const auto inline_k = run_trace_with(cfg, 1, &inline_run);
  const auto pooled = run_trace_with(cfg, 4, &pooled_run);
  expect_traces_equal(baseline, pooled, "4-thread ring vs inline");
  expect_traces_equal(baseline, inline_k, "inline rerun");
  // Capacities are a function of the seed and K only.
  EXPECT_EQ(inline_run.ring_bytes, pooled_run.ring_bytes);
  EXPECT_EQ(inline_run.ring_bytes_max, pooled_run.ring_bytes_max);
  EXPECT_EQ(inline_run.ring_releases, pooled_run.ring_releases);
  // Every group's bootstrap chunk and the plan, then at least one burst
  // buffer.
  EXPECT_GT(pooled_run.ring_releases, cfg.backend.shards + 1);
  // The bootstrap buffers are gone at every barrier, and what is left at
  // the end is less than half of them.
  EXPECT_LT(pooled_run.ring_bytes_max, bootstrap_bytes);
  EXPECT_LT(pooled_run.ring_bytes * 2, bootstrap_bytes);
  EXPECT_LE(pooled_run.ring_bytes, pooled_run.ring_bytes_max);
}

TEST(EpochPipeline, BootstrapHistoryIsHeldPacked) {
  // A population whose bootstrap is many slices: the history is held as
  // packed runs plus at most one open slice, well under half of its
  // 128-byte records, and the figure depends on the config alone.
  SimulationConfig cfg = small_config();
  cfg.users = 3000;
  cfg.days = 1;
  std::uint64_t bootstrap_records = 0;
  const auto run = [&](std::size_t threads) {
    bootstrap_records = 0;
    CallbackSink sink([&](const TraceRecord& r) {
      if (r.t < 0) ++bootstrap_records;
    });
    ParallelSimulation sim(cfg, sink, threads);
    sim.run();
    return sim.phases();
  };
  const auto inline_run = run(1);
  const auto pooled_run = run(4);
  ASSERT_GT(bootstrap_records,
            8 * ParallelSimulation::kBootstrapSliceRecords);
  EXPECT_GT(pooled_run.bootstrap_bytes_max, 0u);
  EXPECT_EQ(inline_run.bootstrap_bytes_max, pooled_run.bootstrap_bytes_max);
  EXPECT_LT(pooled_run.bootstrap_bytes_max * 2,
            bootstrap_records * sizeof(TraceRecord));
}

TEST(EpochPipeline, PhaseBreakdownCoversEveryEpoch) {
  const auto cfg = small_config();
  InMemorySink sink;
  ParallelSimulation sim(cfg, sink, 2);
  sim.run();
  const auto& p = sim.phases();
  // One epoch per simulated hour over the whole horizon.
  EXPECT_EQ(p.epochs, static_cast<std::uint64_t>(cfg.days) * 24u);
  EXPECT_GT(p.compute_s, 0.0);
  EXPECT_GT(p.flush_s, 0.0);
  EXPECT_GT(p.write_s, 0.0);
  EXPECT_GE(p.merge_s, 0.0);
  EXPECT_GE(p.flush_stall_s, 0.0);
  EXPECT_GE(p.ring_stall_s, 0.0);
  EXPECT_GE(p.plan_rebuilds, 1u);  // the first epoch always builds a plan
  // The default engine queue is the calendar; its bucket stats must have
  // accumulated over the run.
  EXPECT_GT(p.cal_finds, 0u);
  EXPECT_GT(p.cal_scanned, 0u);
}

// --------------------------------------------------------------------------
// Bounded MPSC mailbox.

TEST(EpochMailbox, DrainsLanesInIndexOrderAndPostOrder) {
  EpochMailbox<int> mail(3, /*lane_capacity=*/4);
  mail.post(2, 20);
  mail.post(0, 1);
  mail.post(1, 10);
  mail.post(0, 2);
  EXPECT_EQ(mail.pending(), 4u);
  std::vector<std::pair<std::size_t, int>> got;
  mail.drain([&](std::size_t lane, int v) { got.emplace_back(lane, v); });
  const std::vector<std::pair<std::size_t, int>> want = {
      {0, 1}, {0, 2}, {1, 10}, {2, 20}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(mail.pending(), 0u);
}

TEST(EpochMailbox, OverflowSpillsWithoutLoss) {
  EpochMailbox<int> mail(1, /*lane_capacity=*/2);
  for (int i = 0; i < 7; ++i) mail.post(0, i);
  std::vector<int> got;
  mail.drain([&](std::size_t, int v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  // The lane is reusable after a drain that touched the spill path.
  mail.post(0, 42);
  got.clear();
  mail.drain([&](std::size_t, int v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<int>{42}));
}

TEST(EpochMailbox, ConcurrentPostsAllArrive) {
  // Producers race onto every lane; the drain must see every value
  // exactly once (order across producers is unspecified, totals are not).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  EpochMailbox<int> mail(kProducers, /*lane_capacity=*/64);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mail, p] {
      for (int i = 0; i < kPerProducer; ++i)
        mail.post(static_cast<std::size_t>((p + i) % kProducers),
                  p * kPerProducer + i);
    });
  }
  for (auto& t : producers) t.join();
  std::vector<int> got;
  mail.drain([&](std::size_t, int v) { got.push_back(v); });
  ASSERT_EQ(got.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(got.begin(), got.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i)
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i) << "lost or duplicated";
}

}  // namespace
}  // namespace u1
