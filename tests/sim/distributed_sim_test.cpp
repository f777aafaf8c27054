// Determinism oracle for the multi-process shard distribution: the
// merged trace, the report and every sharded-analyzer figure must be
// byte-identical to the in-process engine for ANY (procs, threads)
// split. The coordinator forks real worker processes and relays real
// control frames over socketpairs, so these tests cover the whole wire
// path: epoch-barrier replay, guard-feed merging, purge routing, the
// chunk-stream merge and the symbol-id replay that keeps Symbol-keyed
// sketches (analysis/file_types.cpp) identical across processes. The
// chunk-stream decoder also faces hostile bytes, and a coordinator-side
// failure must surface promptly with every worker reaped.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/file_types.hpp"
#include "analysis/sessions.hpp"
#include "analysis/traffic.hpp"
#include "sim/distributed.hpp"
#include "sim/mailbox.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"
#include "trace/sink.hpp"
#include "util/sim_time.hpp"

namespace u1 {
namespace {

SimulationConfig small_config(bool auto_guard = false) {
  SimulationConfig cfg;
  cfg.users = 200;
  cfg.days = 2;
  cfg.seed = 20140111;
  cfg.enable_ddos = true;
  cfg.auto_countermeasures = auto_guard;
  return cfg;
}

std::vector<std::string> lines_of(const InMemorySink& sink) {
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

std::vector<std::string> oracle_trace(const SimulationConfig& cfg,
                                      SimulationReport* report = nullptr) {
  InMemorySink sink;
  ParallelSimulation sim(cfg, sink, 1);
  const SimulationReport r = sim.run();
  if (report != nullptr) *report = r;
  return lines_of(sink);
}

std::vector<std::string> distributed_trace(const SimulationConfig& cfg,
                                           std::size_t procs,
                                           std::size_t threads,
                                           SimulationReport* report = nullptr) {
  InMemorySink sink;
  DistributedSimulation sim(cfg, sink, procs, threads);
  const SimulationReport r = sim.run();
  if (report != nullptr) *report = r;
  return lines_of(sink);
}

void expect_reports_equal(const SimulationReport& a,
                          const SimulationReport& b) {
  EXPECT_EQ(a.users, b.users);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.agent_wakeups, b.agent_wakeups);
  EXPECT_EQ(a.bootstrap_files, b.bootstrap_files);
  EXPECT_EQ(a.ddos_attacks, b.ddos_attacks);
  EXPECT_EQ(a.fault_events, b.fault_events);
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

TEST(DistributedSim, TraceBitIdenticalAcrossProcessSplits) {
  const SimulationConfig cfg = small_config();
  SimulationReport oracle_rep;
  const std::vector<std::string> oracle = oracle_trace(cfg, &oracle_rep);
  ASSERT_FALSE(oracle.empty());

  const std::pair<std::size_t, std::size_t> splits[] = {
      {2, 1}, {2, 2}, {4, 1}, {3, 2}};
  for (const auto& [procs, threads] : splits) {
    SimulationReport rep;
    const std::vector<std::string> got =
        distributed_trace(cfg, procs, threads, &rep);
    ASSERT_EQ(got.size(), oracle.size())
        << "procs=" << procs << " threads=" << threads;
    EXPECT_EQ(got, oracle) << "procs=" << procs << " threads=" << threads;
    expect_reports_equal(rep, oracle_rep);
  }
}

TEST(DistributedSim, ReportAndCountersMatchOracle) {
  const SimulationConfig cfg = small_config();
  InMemorySink oracle_sink;
  ParallelSimulation oracle(cfg, oracle_sink, 1);
  const SimulationReport oracle_rep = oracle.run();

  InMemorySink sink;
  DistributedSimulation dist(cfg, sink, 4, 1);
  const SimulationReport rep = dist.run();
  expect_reports_equal(rep, oracle_rep);
  EXPECT_EQ(dist.records_flushed(), oracle.records_flushed());
  ASSERT_EQ(dist.worker_peak_rss_kb().size(), 4u);
  for (const std::uint64_t kb : dist.worker_peak_rss_kb()) EXPECT_GT(kb, 0u);
}

TEST(DistributedSim, GuardPurgesMatchOracleAcrossProcesses) {
  // The AnomalyGuard runs on the coordinator over the k-way-merged
  // observation feed; its detections, the purge routing and the purge
  // trace records must land exactly where the in-process scan puts them.
  SimulationConfig cfg = small_config(/*auto_guard=*/true);
  cfg.days = 6;  // covers the day-4 and day-5 paper attacks
  SimulationReport oracle_rep;
  const std::vector<std::string> oracle = oracle_trace(cfg, &oracle_rep);
  for (const std::size_t procs : {2u, 4u}) {
    SimulationReport rep;
    const std::vector<std::string> got =
        distributed_trace(cfg, procs, 1, &rep);
    EXPECT_EQ(got, oracle) << "procs=" << procs;
    expect_reports_equal(rep, oracle_rep);
  }
  EXPECT_GT(oracle_rep.auto_purges, 0u)
      << "guard config detected nothing; the purge path went unexercised";
}

TEST(DistributedSim, AnalyzerFiguresBitIdenticalToInProcessShards) {
  const SimulationConfig cfg = small_config();
  const SimTime horizon = static_cast<SimTime>(cfg.days) * kDay;

  TrafficAnalyzer in_traffic(0, horizon);
  SessionAnalyzer in_sessions(0, horizon);
  FileTypeAnalyzer in_types;
  {
    NullSink null;
    ParallelSimulation sim(cfg, null, 1);
    sim.attach_analyzer(in_traffic);
    sim.attach_analyzer(in_sessions);
    sim.attach_analyzer(in_types);
    sim.run();
  }

  TrafficAnalyzer d_traffic(0, horizon);
  SessionAnalyzer d_sessions(0, horizon);
  FileTypeAnalyzer d_types;
  {
    NullSink null;
    DistributedSimulation sim(cfg, null, 3, 1);
    sim.attach_analyzer(d_traffic);
    sim.attach_analyzer(d_sessions);
    sim.attach_analyzer(d_types);
    sim.run();
  }

  EXPECT_EQ(d_traffic.upload_ops(), in_traffic.upload_ops());
  EXPECT_EQ(d_traffic.upload_bytes(), in_traffic.upload_bytes());
  EXPECT_EQ(d_traffic.upload_bytes_hourly().values(),
            in_traffic.upload_bytes_hourly().values());
  EXPECT_EQ(d_traffic.rw_ratios_hourly(), in_traffic.rw_ratios_hourly());
  EXPECT_EQ(d_sessions.session_lengths(), in_sessions.session_lengths());
  EXPECT_EQ(d_sessions.sessions_closed(), in_sessions.sessions_closed());
  EXPECT_EQ(d_sessions.auth_failure_fraction(),
            in_sessions.auth_failure_fraction());
  // FileTypeAnalyzer keys a count-min sketch by raw Symbol id: equality
  // here proves the coordinator's symbol-interning replay reproduced the
  // oracle's global id assignment exactly.
  EXPECT_EQ(d_types.all_sizes(), in_types.all_sizes());
  EXPECT_EQ(d_types.distinct_files(), in_types.distinct_files());
  EXPECT_EQ(d_types.popular_extensions(10), in_types.popular_extensions(10));
}

TEST(DistributedSim, SingleProcessDelegatesToInProcessEngine) {
  const SimulationConfig cfg = small_config();
  const std::vector<std::string> oracle = oracle_trace(cfg);
  SimulationReport rep;
  const std::vector<std::string> got = distributed_trace(cfg, 1, 1, &rep);
  EXPECT_EQ(got, oracle);

  InMemorySink sink;
  DistributedSimulation sim(cfg, sink, 1, 1);
  sim.run();
  ASSERT_EQ(sim.worker_peak_rss_kb().size(), 1u);
}

TEST(DistributedSim, RejectsZeroProcs) {
  InMemorySink sink;
  try {
    DistributedSimulation sim(small_config(), sink, 0, 1);
    FAIL() << "procs = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("procs"), std::string::npos)
        << e.what();
  }
}

TEST(DistributedSim, RejectsAnEmptyPopulationBeforeForking) {
  // The coordinator weighs its slices with the setup draws before it
  // forks, so a config the engine would refuse must fail here first.
  InMemorySink sink;
  SimulationConfig cfg = small_config();
  cfg.users = 0;
  EXPECT_THROW(DistributedSimulation(cfg, sink, 2, 1), std::invalid_argument);
  cfg = small_config();
  cfg.days = 0;
  EXPECT_THROW(DistributedSimulation(cfg, sink, 2, 1), std::invalid_argument);
}

/// Throws from its Nth append: a coordinator-side failure in the middle
/// of the merge, while the workers are still simulating.
class ThrowingSink final : public TraceSink {
 public:
  explicit ThrowingSink(std::size_t n) : left_(n) {}
  void append(const TraceRecord&) override {
    if (--left_ == 0) throw std::runtime_error("sink refused record");
  }

 private:
  std::size_t left_;
};

TEST(DistributedSim, SinkFailureRethrowsAndReapsEveryWorker) {
  const SimulationConfig cfg = small_config();
  const std::size_t half = oracle_trace(cfg).size() / 2;
  ASSERT_GT(half, 0u);

  ThrowingSink sink(half);
  DistributedSimulation sim(cfg, sink, 2, 1);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    sim.run();
    FAIL() << "run() returned despite the sink failing";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sink refused record");
  }
  // A full 2x1 run of this config takes well under a second; a stalled
  // relay or merge thread would sit here until the test timeout.
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            30.0);
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1) << "a worker was left behind";
  EXPECT_EQ(errno, ECHILD);
}

// ---------------------------------------------------------------------------
// Chunk-stream decoder: a valid stream round-trips; every malformed one
// is refused with an error naming its cause.

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

TraceRecord labelled(SimTime t, Symbol label) {
  TraceRecord r;
  r.t = t;
  r.label = label;
  return r;
}

/// Two local groups (global 3 and 4) defining worker ids 5 and 300 — the
/// latter a two-byte varint — and records that use them.
std::vector<std::uint8_t> encoded_chunk(std::uint64_t seq) {
  std::vector<PageVector<TraceRecord>> chunks(5);
  std::vector<std::vector<std::pair<Symbol, std::string>>> syms(5);
  syms[3] = {{5, ".jpg"}};
  chunks[3] = {labelled(1, 5), labelled(2, kEmptySymbol)};
  syms[4] = {{300, ".mp3"}};
  chunks[4] = {labelled(1, 300), labelled(3, 5)};
  std::vector<std::uint8_t> meta;
  std::vector<std::span<const std::uint8_t>> parts;
  encode_chunk(seq, chunks, syms, 3, 2, meta, parts);
  std::vector<std::uint8_t> bytes;
  for (const auto part : parts)
    bytes.insert(bytes.end(), part.begin(), part.end());
  return bytes;
}

/// What decoding `bytes` as chunk 0 of a two-group stream throws.
std::string decode_error(const std::vector<std::uint8_t>& bytes,
                         std::size_t groups = 2) {
  SymbolTable table;
  ChunkStreamDecoder decoder(groups);
  SpanByteSource src(bytes);
  try {
    WireChunk chunk;
    decoder.read(src, chunk);
    decoder.resolve(chunk, table);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "(no error)";
}

void expect_error(const std::string& got, const std::string& cause) {
  EXPECT_NE(got.find(cause), std::string::npos)
      << "want \"" << cause << "\", got \"" << got << "\"";
}

TEST(ChunkStream, RoundTripRemapsLabelsInStreamOrder) {
  SymbolTable table;
  ChunkStreamDecoder decoder(2);
  std::vector<std::uint8_t> bytes = encoded_chunk(0);
  const std::vector<std::uint8_t> second = encoded_chunk(1);
  bytes.insert(bytes.end(), second.begin(), second.end());
  SpanByteSource src(bytes);
  for (int i = 0; i < 2; ++i) {  // chunks 0 and 1, in stream order
    WireChunk chunk;
    decoder.read(src, chunk);
    ASSERT_EQ(chunk.groups.size(), 2u);
    EXPECT_EQ(decoder.resolve(chunk, table), 4u);
    const auto& g3 = chunk.groups[0].records;
    const auto& g4 = chunk.groups[1].records;
    ASSERT_EQ(g3.size(), 2u);
    ASSERT_EQ(g4.size(), 2u);
    EXPECT_EQ(table.resolve(g3[0].label), ".jpg");
    EXPECT_EQ(g3[1].label, kEmptySymbol);
    EXPECT_EQ(table.resolve(g4[0].label), ".mp3");
    EXPECT_EQ(table.resolve(g4[1].label), ".jpg");
    EXPECT_EQ(g4[1].t, 3);
  }
  EXPECT_EQ(src.remaining(), 0u);
}

TEST(ChunkStream, RefusesTruncationInsideVarintAndRecord) {
  const std::vector<std::uint8_t> bytes = encoded_chunk(0);
  // Group 4's symbol list starts right after group 3's two records:
  // n_syms (1 byte), then worker id 300 as the varint {0xac, 0x02}.
  const std::size_t g4 = bytes.size() - 2 * sizeof(TraceRecord) - 9;
  ASSERT_EQ(bytes[g4], 1u);
  ASSERT_EQ(bytes[g4 + 1], 0xacu);
  expect_error(decode_error({bytes.begin(), bytes.begin() + g4 + 2}),
               "truncated");
  expect_error(decode_error({bytes.begin(), bytes.end() - 7}), "truncated");
  expect_error(decode_error({}), "truncated");
}

TEST(ChunkStream, RefusesOutOfOrderSeq) {
  expect_error(decode_error(encoded_chunk(1)), "out of order");
}

TEST(ChunkStream, RefusesSymbolIdZeroOrAbove32Bits) {
  for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{1} << 32}) {
    std::vector<std::uint8_t> bytes;
    put_varint(bytes, 0);   // seq
    put_varint(bytes, 1);   // n_syms
    put_varint(bytes, id);
    put_varint(bytes, 1);
    bytes.push_back('x');
    put_varint(bytes, 0);   // n_records
    expect_error(decode_error(bytes, 1), "out of range");
  }
}

TEST(ChunkStream, RefusesLabelOverOneMiB) {
  std::vector<std::uint8_t> bytes;
  put_varint(bytes, 0);
  put_varint(bytes, 1);
  put_varint(bytes, 7);
  put_varint(bytes, (std::uint64_t{1} << 20) + 1);
  expect_error(decode_error(bytes, 1), "exceeds 1 MiB");
}

TEST(ChunkStream, RefusesRecordCountAbove2To31) {
  std::vector<std::uint8_t> bytes;
  put_varint(bytes, 0);
  put_varint(bytes, 0);
  put_varint(bytes, (std::uint64_t{1} << 31) + 1);
  expect_error(decode_error(bytes, 1), "exceeds 2^31");
}

TEST(ChunkStream, RefusesUnmappedLabel) {
  std::vector<std::uint8_t> bytes;
  put_varint(bytes, 0);
  put_varint(bytes, 0);  // no symbols defined ...
  put_varint(bytes, 1);  // ... yet one record labelled 9
  const TraceRecord r = labelled(1, 9);
  const auto* raw = reinterpret_cast<const std::uint8_t*>(&r);
  bytes.insert(bytes.end(), raw, raw + sizeof(r));
  expect_error(decode_error(bytes, 1), "never defined");
}

// ---------------------------------------------------------------------------
// EpochMailbox <-> MailboxBatch wire bridge.

TEST(MailboxBridge, RoundTripPreservesDrainOrder) {
  EpochMailbox<UserId> mail(/*lanes=*/3, /*lane_capacity=*/4);
  // Lane 1 overflows its ring (4 slots) into the spill; drain order must
  // stay lane-ascending, ring before spill, production order within.
  std::vector<std::pair<std::size_t, std::uint64_t>> posted;
  for (std::uint64_t i = 0; i < 7; ++i) {
    mail.post(1, UserId{100 + i});
    posted.emplace_back(1, 100 + i);
  }
  mail.post(0, UserId{11});
  mail.post(2, UserId{33});
  mail.post(0, UserId{12});

  const MailboxBatchMsg batch = drain_to_batch(mail, /*seq=*/42);
  EXPECT_EQ(batch.seq, 42u);
  EXPECT_EQ(mail.pending(), 0u);
  ASSERT_EQ(batch.entries.size(), 10u);
  // Lane 0 first, its two posts in order; then lane 1's seven (ring
  // then spill keeps 100..106 contiguous); then lane 2.
  EXPECT_EQ(batch.entries[0], (MailboxEntry{0, 11}));
  EXPECT_EQ(batch.entries[1], (MailboxEntry{0, 12}));
  for (std::uint64_t i = 0; i < 7; ++i)
    EXPECT_EQ(batch.entries[2 + i], (MailboxEntry{1, 100 + i}));
  EXPECT_EQ(batch.entries[9], (MailboxEntry{2, 33}));

  // Posting the batch into a fresh mailbox and draining again must
  // reproduce the same sequence (the worker-side delivery order).
  EpochMailbox<UserId> replay(3, 4);
  post_batch(batch, replay);
  EXPECT_EQ(replay.pending(), batch.entries.size());
  const MailboxBatchMsg again = drain_to_batch(replay, 42);
  EXPECT_EQ(again.entries, batch.entries);
}

TEST(MailboxBridge, EmptyMailboxYieldsEmptyBatch) {
  EpochMailbox<UserId> mail(2, 4);
  const MailboxBatchMsg batch = drain_to_batch(mail, 7);
  EXPECT_TRUE(batch.entries.empty());
  post_batch(batch, mail);
  EXPECT_EQ(mail.pending(), 0u);
}

TEST(MailboxBridge, RingBoundaryExactFillStaysInRing) {
  EpochMailbox<UserId> mail(1, 4);
  for (std::uint64_t i = 0; i < 4; ++i) mail.post(0, UserId{i + 1});
  const MailboxBatchMsg batch = drain_to_batch(mail, 0);
  ASSERT_EQ(batch.entries.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(batch.entries[i], (MailboxEntry{0, i + 1}));
}

}  // namespace
}  // namespace u1
