// Parameterized end-to-end invariants: whatever the seed or population,
// a simulation's trace must satisfy the structural properties of the U1
// collection methodology (§4) — causal per-session ordering, paired
// storage/storage_done records, balanced bookkeeping, conserved bytes.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "sim/parallel.hpp"

namespace u1 {
namespace {

struct SimCase {
  std::uint64_t seed;
  std::size_t users;
  int days;
  bool ddos;
};

class SimInvariants : public ::testing::TestWithParam<SimCase> {
 protected:
  static SimulationConfig config(const SimCase& c) {
    SimulationConfig cfg;
    cfg.users = c.users;
    cfg.days = c.days;
    cfg.seed = c.seed;
    cfg.enable_ddos = c.ddos;
    cfg.bootstrap_files_mean = 4.0;
    return cfg;
  }
};

TEST_P(SimInvariants, TraceIsStructurallySound) {
  InMemorySink sink;
  ParallelSimulation sim(config(GetParam()), sink, 1);
  const SimulationReport report = sim.run();
  ASSERT_GT(sink.records().size(), 100u);

  std::unordered_map<std::uint64_t, SimTime> session_last_t;
  std::unordered_set<std::uint64_t> open_sessions;
  std::uint64_t storage = 0, storage_done = 0;
  std::uint64_t opens = 0, closes = 0;
  std::uint64_t upload_wire = 0, download_wire = 0;

  for (const TraceRecord& r : sink.records()) {
    // Per-session causal ordering (the paper: "a session lives in the
    // same node until it finishes, making user events strictly
    // sequential").
    if (r.session.valid()) {
      auto [it, fresh] = session_last_t.try_emplace(r.session.value, r.t);
      if (!fresh) {
        EXPECT_LE(it->second, r.t) << "session " << r.session.value;
        it->second = r.t;
      }
    }
    switch (r.type) {
      case RecordType::kStorage:
        ++storage;
        break;
      case RecordType::kStorageDone:
        ++storage_done;
        EXPECT_GE(r.duration, 0);
        if (!r.failed && r.api_op == ApiOp::kPutContent)
          upload_wire += r.transferred_bytes;
        if (!r.failed && r.api_op == ApiOp::kGetContent)
          download_wire += r.transferred_bytes;
        break;
      case RecordType::kSession:
        if (r.session_event == SessionEvent::kOpen) {
          ++opens;
          EXPECT_TRUE(open_sessions.insert(r.session.value).second);
        } else if (r.session_event == SessionEvent::kClose) {
          ++closes;
          EXPECT_TRUE(open_sessions.erase(r.session.value) == 1);
        }
        break;
      case RecordType::kRpc:
        EXPECT_GT(r.service_time, 0);
        break;
      case RecordType::kFault:
        break;
    }
  }
  // Records pair up and sessions balance (some may stay open at horizon).
  EXPECT_EQ(storage, storage_done);
  EXPECT_GE(opens, closes);
  EXPECT_EQ(opens - closes, open_sessions.size());
  // Backend counters agree with the trace-derived byte totals.
  EXPECT_EQ(report.backend.upload_bytes_wire, upload_wire);
  EXPECT_EQ(report.backend.download_bytes, download_wire);
  EXPECT_EQ(report.backend.sessions_opened, opens);
}

TEST_P(SimInvariants, StoreAndS3StayConsistent) {
  InMemorySink sink;
  ParallelSimulation sim(config(GetParam()), sink, 1);
  sim.run();
  const ContentRegistry& contents = sim.contents();
  // Every unique registered content is exactly one S3 object, summed
  // over the per-group S3 stores.
  std::uint64_t objects = 0, stored_bytes = 0;
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    objects += sim.backend(g).s3().object_count();
    stored_bytes += sim.backend(g).s3().stored_bytes();
  }
  EXPECT_EQ(contents.unique_contents(), objects);
  EXPECT_EQ(contents.unique_bytes(), stored_bytes);
  // Dedup ratio is a ratio.
  const double dr = contents.dedup_ratio();
  EXPECT_GE(dr, 0.0);
  EXPECT_LT(dr, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndScales, SimInvariants,
    ::testing::Values(SimCase{1, 200, 2, false}, SimCase{2, 200, 2, true},
                      SimCase{20140111, 400, 3, false},
                      SimCase{77, 100, 6, true}),
    [](const ::testing::TestParamInfo<SimCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_u" +
             std::to_string(info.param.users) + "_d" +
             std::to_string(info.param.days) +
             (info.param.ddos ? "_ddos" : "");
    });

}  // namespace
}  // namespace u1
