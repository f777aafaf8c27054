#include "trace/packed.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/sha1.hpp"

namespace u1 {
namespace {

void expect_same(const TraceRecord& a, const TraceRecord& b,
                 std::size_t at) {
  EXPECT_EQ(a.t, b.t) << at;
  EXPECT_EQ(a.duration, b.duration) << at;
  EXPECT_EQ(a.size_bytes, b.size_bytes) << at;
  EXPECT_EQ(a.transferred_bytes, b.transferred_bytes) << at;
  EXPECT_EQ(a.node, b.node) << at;
  EXPECT_EQ(a.parent, b.parent) << at;
  EXPECT_EQ(a.volume, b.volume) << at;
  EXPECT_EQ(a.content, b.content) << at;
  EXPECT_EQ(a.service_time, b.service_time) << at;
  EXPECT_EQ(a.user, b.user) << at;
  EXPECT_EQ(a.session, b.session) << at;
  EXPECT_EQ(a.label, b.label) << at;
  EXPECT_EQ(a.process, b.process) << at;
  EXPECT_EQ(a.shard, b.shard) << at;
  EXPECT_EQ(a.machine, b.machine) << at;
  EXPECT_EQ(a.type, b.type) << at;
  EXPECT_EQ(a.session_event, b.session_event) << at;
  EXPECT_EQ(a.api_op, b.api_op) << at;
  EXPECT_EQ(a.rpc_op, b.rpc_op) << at;
  EXPECT_EQ(a.is_update, b.is_update) << at;
  EXPECT_EQ(a.is_dir, b.is_dir) << at;
  EXPECT_EQ(a.deduplicated, b.deduplicated) << at;
  EXPECT_EQ(a.failed, b.failed) << at;
}

PackedRows pack_all(const std::vector<TraceRecord>& records) {
  PackedRows rows;
  for (const TraceRecord& r : records) rows.push_back(r);
  return rows;
}

std::vector<std::uint8_t> bytes_of(const PackedRows& rows) {
  return {rows.data(), rows.data() + rows.bytes()};
}

/// Unpacks every row and checks it against `records`, and that the rows
/// end exactly at the end of the bytes.
void expect_unpacks_to(const PackedRows& rows,
                       const std::vector<TraceRecord>& records) {
  ASSERT_EQ(rows.rows(), records.size());
  PackedReader reader{rows.data()};
  for (std::size_t i = 0; i < records.size(); ++i) {
    TraceRecord r;
    r.t = 12345;  // every field is overwritten, defaults included
    r.user = UserId{9};
    reader.next(r);
    expect_same(r, records[i], i);
  }
  EXPECT_EQ(reader.p, rows.data() + rows.bytes());
}

void expect_round_trip(const std::vector<TraceRecord>& records) {
  expect_unpacks_to(pack_all(records), records);
}

Uuid random_uuid(Rng& rng) {
  return rng.chance(0.5) ? Uuid{} : Uuid::v4(rng);
}

TraceRecord random_record(Rng& rng) {
  TraceRecord r;
  // Zero (the field is left out), small, or anywhere below `limit`
  // (0: the whole u64 range).
  const auto pick = [&](std::uint64_t limit) {
    switch (rng.below(3)) {
      case 0: return std::uint64_t{0};
      case 1: return rng.below(300);
      default: return limit == 0 ? rng.next() : rng.below(limit);
    }
  };
  r.t = static_cast<SimTime>(rng.next());
  r.duration = static_cast<SimTime>(pick(0));
  r.size_bytes = pick(0);
  r.transferred_bytes = pick(0);
  r.node = random_uuid(rng);
  r.parent = random_uuid(rng);
  r.volume = random_uuid(rng);
  if (rng.chance(0.5)) r.content = Sha1::of(std::to_string(rng.next()));
  r.service_time = static_cast<std::uint32_t>(pick(1ull << 32));
  r.user = UserId{pick(1ull << 32)};
  r.session = SessionId{pick(1ull << 32)};
  r.label = static_cast<Symbol>(pick(1ull << 32));
  r.process = ProcessId{pick(1ull << 16)};
  r.shard = ShardId{pick(1ull << 16)};
  r.machine = MachineId{pick(1ull << 8)};
  r.type = static_cast<RecordType>(rng.below(kRecordTypeCount));
  r.session_event = static_cast<SessionEvent>(
      rng.below(static_cast<std::uint64_t>(SessionEvent::kTryAgain) + 1));
  r.api_op = static_cast<ApiOp>(rng.below(kApiOpCount));
  r.rpc_op = static_cast<RpcOp>(rng.below(kRpcOpCount));
  r.is_update = rng.chance(0.5);
  r.is_dir = rng.chance(0.5);
  r.deduplicated = rng.chance(0.5);
  r.failed = rng.chance(0.5);
  return r;
}

TEST(PackedRows, RandomRecordsRoundTrip) {
  Rng rng(20140111);
  std::vector<TraceRecord> records;
  for (int i = 0; i < 5000; ++i) records.push_back(random_record(rng));
  expect_round_trip(records);
}

TEST(PackedRows, EdgeValuesRoundTrip) {
  constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
  std::vector<TraceRecord> records;
  // t deltas of both signs, across the whole range in one step.
  for (const SimTime t : {SimTime{0}, SimTime{5}, SimTime{-3}, kMax, kMin,
                          kMax, SimTime{-1}, kMin, SimTime{0}}) {
    TraceRecord r;
    r.t = t;
    records.push_back(r);
  }
  for (const SimTime d : {kMin, kMax, SimTime{-1}}) {
    TraceRecord r;
    r.duration = d;
    records.push_back(r);
  }
  {
    TraceRecord r;
    r.size_bytes = kU64;
    r.transferred_bytes = kU64;
    r.service_time = static_cast<std::uint32_t>(kU32);
    r.user = UserId{kU32};
    r.session = SessionId{kU32};
    r.label = static_cast<Symbol>(kU32);
    r.process = ProcessId{0xffff};
    r.shard = ShardId{0xffff};
    r.machine = MachineId{0xff};
    records.push_back(r);
  }
  {
    // Nil and set node / parent / volume / content, one at a time.
    Rng rng(7);
    for (int mask = 0; mask < 16; ++mask) {
      TraceRecord r;
      if (mask & 1) r.node = Uuid::v4(rng);
      if (mask & 2) r.parent = Uuid::v4(rng);
      if (mask & 4) r.volume = Uuid::v4(rng);
      if (mask & 8) r.content = Sha1::of(std::to_string(mask));
      records.push_back(r);
    }
  }
  for (std::size_t t = 0; t < kRecordTypeCount; ++t) {
    TraceRecord r;
    r.type = static_cast<RecordType>(t);
    records.push_back(r);
  }
  for (int e = 0; e <= static_cast<int>(SessionEvent::kTryAgain); ++e) {
    TraceRecord r;
    r.session_event = static_cast<SessionEvent>(e);
    records.push_back(r);
  }
  for (std::size_t op = 0; op < kApiOpCount; ++op) {
    TraceRecord r;
    r.api_op = static_cast<ApiOp>(op);
    records.push_back(r);
  }
  for (std::size_t op = 0; op < kRpcOpCount; ++op) {
    TraceRecord r;
    r.rpc_op = static_cast<RpcOp>(op);
    records.push_back(r);
  }
  for (int flags = 0; flags < 16; ++flags) {
    TraceRecord r;
    r.type = RecordType::kFault;  // the top type beside the flag bits
    r.is_update = (flags & 1) != 0;
    r.is_dir = (flags & 2) != 0;
    r.deduplicated = (flags & 4) != 0;
    r.failed = (flags & 8) != 0;
    records.push_back(r);
  }
  expect_round_trip(records);
}

TEST(PackedRows, ConcatenatedRunsDecodeAsOneSequence) {
  // Rows packed one after another — the way an open stripe and a
  // bootstrap run grow — read back as the identical sequence, whatever
  // order the timestamps come in.
  Rng rng(99);
  std::vector<TraceRecord> first;
  std::vector<TraceRecord> second;
  for (int i = 0; i < 300; ++i) {
    TraceRecord r = random_record(rng);
    r.t = static_cast<SimTime>(rng.below(1000)) - 500;
    (i % 3 == 0 ? second : first).push_back(r);
  }
  std::vector<TraceRecord> all = first;
  all.insert(all.end(), second.begin(), second.end());
  // Appended in two goes, through a move and a growth from one row of
  // room, the bytes are those of one pass.
  PackedRows rows = pack_all(first);
  PackedRows moved(std::move(rows));
  moved.reserve(moved.bytes() + 1);
  for (const TraceRecord& r : second) moved.push_back(r);
  EXPECT_EQ(bytes_of(moved), bytes_of(pack_all(all)));
  expect_unpacks_to(moved, all);
  // Cleared, the buffer packs a new run from t = 0 again.
  moved.clear();
  for (const TraceRecord& r : second) moved.push_back(r);
  EXPECT_EQ(bytes_of(moved), bytes_of(pack_all(second)));
}

TEST(PackedRows, FittedCopyHoldsTheSameRowsAndTakesMore) {
  // A fitted copy reads back as the original and keeps growing from
  // its last row, also when it holds fewer bytes than the largest row.
  Rng rng(7);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2000}}) {
    std::vector<TraceRecord> records;
    for (std::size_t i = 0; i < n; ++i) records.push_back(random_record(rng));
    const PackedRows rows = pack_all(records);
    PackedRows fitted = rows.fitted();
    EXPECT_EQ(bytes_of(fitted), bytes_of(rows));
    EXPECT_EQ(fitted.rows(), n);
    expect_unpacks_to(fitted, records);
    TraceRecord worst = random_record(rng);
    worst.t = std::numeric_limits<SimTime>::min();
    fitted.push_back(worst);
    records.push_back(worst);
    expect_unpacks_to(fitted, records);
  }
}

TEST(PackedRows, DefaultRecordPacksToThreeBytes) {
  // The head byte, an empty field mask and a zero t delta.
  PackedRows rows;
  rows.push_back(TraceRecord{});
  EXPECT_EQ(rows.bytes(), 3u);
  // A set field costs its own bytes only.
  TraceRecord r;
  r.user = UserId{5};
  rows.clear();
  rows.push_back(r);
  EXPECT_EQ(rows.bytes(), 4u);
  TraceRecord worst;
  worst.t = std::numeric_limits<SimTime>::min();
  worst.duration = std::numeric_limits<SimTime>::min();
  worst.size_bytes = worst.transferred_bytes = ~std::uint64_t{0};
  Rng rng(1);
  worst.node = worst.parent = worst.volume = Uuid::v4(rng);
  worst.content = Sha1::of("x");
  worst.service_time = ~std::uint32_t{0};
  worst.user = UserId{0xffffffffu};
  worst.session = SessionId{0xffffffffu};
  worst.label = ~Symbol{0};
  worst.process = ProcessId{0xffff};
  worst.shard = ShardId{0xffff};
  worst.machine = MachineId{0xff};
  worst.session_event = SessionEvent::kTryAgain;
  worst.api_op = static_cast<ApiOp>(kApiOpCount - 1);
  worst.rpc_op = static_cast<RpcOp>(kRpcOpCount - 1);
  std::uint8_t row[kMaxPackedRow];
  EXPECT_LE(pack_record(worst, std::numeric_limits<SimTime>::max(), row) - row,
            static_cast<std::ptrdiff_t>(kMaxPackedRow));
}

}  // namespace
}  // namespace u1
