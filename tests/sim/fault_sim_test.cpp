// Determinism oracle for fault injection: with a fault plan armed, the
// merged trace must stay byte-identical for every thread count, the
// single-threaded run must complete with degraded-mode activity on
// record, and a plan whose windows sit beyond the horizon
// must leave the trace untouched (the fault subsystem consumes no RNG
// outside active windows).
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "sim/parallel.hpp"
#include "trace/sink.hpp"

namespace u1 {
namespace {

/// The acceptance plan, rescaled into a 3-day horizon so the small CI
/// run still crosses every fault kind.
FaultPlan scaled_plan() {
  return parse_fault_plan(
      "auth_brownout  t=6h   dur=30m error=0.5\n"
      "process_crash  t=12h  dur=1h  machine=3 slot=1\n"
      "s3_brownout    t=1d   dur=45m error=0.25 slow=4\n"
      "shard_failover t=1d6h dur=30m shard=4 slow=6 reject=0.35\n"
      "mq_drop        t=1d12h dur=1h drop=0.75\n"
      "machine_outage t=2d   dur=40m machine=2\n");
}

SimulationConfig faulted_config() {
  SimulationConfig cfg;
  cfg.users = 200;
  cfg.days = 3;
  cfg.seed = 20140111;
  cfg.faults = scaled_plan();
  return cfg;
}

std::vector<std::string> parallel_trace(const SimulationConfig& cfg,
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

TEST(FaultSimulation, FaultedTraceIdenticalAcrossThreadCounts) {
  const auto cfg = faulted_config();
  SimulationReport r1, r2, r4, r8;
  const auto t1 = parallel_trace(cfg, 1, &r1);
  const auto t2 = parallel_trace(cfg, 2, &r2);
  const auto t4 = parallel_trace(cfg, 4, &r4);
  const auto t8 = parallel_trace(cfg, 8, &r8);

  ASSERT_FALSE(t1.empty());
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_EQ(t1.size(), t4.size());
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    ASSERT_EQ(t1[i], t2[i]) << "first divergence (2 threads) at row " << i;
    ASSERT_EQ(t1[i], t4[i]) << "first divergence (4 threads) at row " << i;
    ASSERT_EQ(t1[i], t8[i]) << "first divergence (8 threads) at row " << i;
  }
  // Degraded-mode counters aggregate identically too.
  EXPECT_EQ(r1.fault_events, r2.fault_events);
  EXPECT_EQ(r1.fault_events, r8.fault_events);
  EXPECT_EQ(r1.backend.sessions_dropped, r8.backend.sessions_dropped);
  EXPECT_EQ(r1.backend.interrupted_uploads, r8.backend.interrupted_uploads);
  EXPECT_EQ(r1.backend.resumed_uploads, r8.backend.resumed_uploads);
  EXPECT_EQ(r1.backend.s3_errors, r8.backend.s3_errors);
  EXPECT_EQ(r1.backend.write_rejects, r8.backend.write_rejects);
  EXPECT_EQ(r1.backend.auth_failures, r8.backend.auth_failures);
}

TEST(FaultSimulation, SequentialFaultedRunCompletesWithActivity) {
  const auto cfg = faulted_config();
  InMemorySink sink;
  ParallelSimulation sim(cfg, sink, 1);
  const SimulationReport report = sim.run();  // must not throw

  // Six windows, each with a begin and an end edge inside the horizon.
  EXPECT_EQ(report.fault_events, 12u);
  std::uint64_t fault_records = 0;
  for (const TraceRecord& r : sink.records()) {
    if (r.type == RecordType::kFault) ++fault_records;
  }
  EXPECT_EQ(fault_records, 12u);
  // The plan actually bites: some degraded-mode path fired.
  EXPECT_GT(report.backend.sessions_dropped + report.backend.s3_errors +
                report.backend.auth_failures + report.backend.write_rejects +
                report.backend.interrupted_uploads,
            0u);
  // The population survives the faults: clients keep working after the
  // last window closes.
  EXPECT_GT(report.backend.uploads, 0u);
  EXPECT_GT(report.backend.sessions_opened, 0u);
}

TEST(FaultSimulation, FaultSeedSelectsDifferentOutcomes) {
  auto cfg = faulted_config();
  const auto base = parallel_trace(cfg, 2);
  cfg.fault_seed = 777;  // same workload seed, different fault draws
  const auto other = parallel_trace(cfg, 2);
  EXPECT_NE(base, other);
}

TEST(FaultSimulation, OutOfHorizonPlanLeavesTraceUntouched) {
  // Windows beyond the horizon never open; the armed injector must not
  // disturb a single RNG draw, so the trace matches faults-off exactly.
  auto cfg = faulted_config();
  cfg.faults = parse_fault_plan("s3_brownout t=10d dur=1h error=1.0\n");
  SimulationReport faulted_report;
  const auto armed = parallel_trace(cfg, 2, &faulted_report);
  cfg.faults = FaultPlan{};
  const auto off = parallel_trace(cfg, 2);
  EXPECT_EQ(faulted_report.fault_events, 0u);
  ASSERT_EQ(armed.size(), off.size());
  for (std::size_t i = 0; i < armed.size(); ++i) {
    ASSERT_EQ(armed[i], off[i]) << "first divergence at row " << i;
  }
}

}  // namespace
}  // namespace u1
