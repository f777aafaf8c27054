#include "trace/record.hpp"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "util/sha1.hpp"

namespace u1 {
namespace {

TraceRecord sample_storage_record() {
  Rng rng(1);
  TraceRecord r;
  r.t = 3 * kDay + 7 * kHour + 123 * kMillisecond;
  r.type = RecordType::kStorageDone;
  r.machine = MachineId{2};
  r.process = ProcessId{23};
  r.user = UserId{99};
  r.session = SessionId{1234};
  r.api_op = ApiOp::kPutContent;
  r.node = Uuid::v4(rng);
  r.parent = Uuid::v4(rng);
  r.volume = Uuid::v4(rng);
  r.size_bytes = 123456;
  r.transferred_bytes = 123456;
  r.content = Sha1::of("content");
  r.set_extension("mp3");
  r.is_update = true;
  r.duration = 2 * kSecond;
  return r;
}

std::vector<std::string> csv_with(std::size_t index, std::string value) {
  auto fields = sample_storage_record().to_csv();
  fields[index] = std::move(value);
  return fields;
}

TEST(TraceRecord, CsvRoundTripStorage) {
  const TraceRecord r = sample_storage_record();
  const auto parsed = TraceRecord::from_csv(r.to_csv());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->t, r.t);
  EXPECT_EQ(parsed->type, r.type);
  EXPECT_EQ(parsed->machine, r.machine);
  EXPECT_EQ(parsed->process, r.process);
  EXPECT_EQ(parsed->user, r.user);
  EXPECT_EQ(parsed->session, r.session);
  EXPECT_EQ(parsed->api_op, r.api_op);
  EXPECT_EQ(parsed->node, r.node);
  EXPECT_EQ(parsed->parent, r.parent);
  EXPECT_EQ(parsed->volume, r.volume);
  EXPECT_EQ(parsed->size_bytes, r.size_bytes);
  EXPECT_EQ(parsed->transferred_bytes, r.transferred_bytes);
  EXPECT_EQ(parsed->content, r.content);
  EXPECT_EQ(parsed->extension(), r.extension());
  EXPECT_EQ(parsed->is_update, r.is_update);
  EXPECT_EQ(parsed->duration, r.duration);
}

TEST(TraceRecord, PodLayout) {
  // The flush pipeline sorts/merges records by memcpy-able moves; both
  // properties are also enforced at compile time in record.hpp.
  EXPECT_TRUE(std::is_trivially_copyable_v<TraceRecord>);
  EXPECT_LE(sizeof(TraceRecord), 128u);
}

TEST(TraceRecord, ExtensionIsInternedSymbol) {
  TraceRecord a, b;
  a.type = RecordType::kStorage;
  b.type = RecordType::kStorageDone;
  a.set_extension("odt");
  b.set_extension("odt");
  EXPECT_NE(a.label, kEmptySymbol);
  EXPECT_EQ(a.label, b.label);  // same string, same global symbol
  EXPECT_EQ(a.extension(), "odt");
  a.set_extension("");
  EXPECT_EQ(a.label, kEmptySymbol);
  EXPECT_EQ(a.extension(), "");
}

TEST(TraceRecord, CsvRoundTripFault) {
  TraceRecord r;
  r.t = 5 * kHour;
  r.type = RecordType::kFault;
  r.machine = MachineId{4};
  r.process = ProcessId{2};
  r.set_fault("switch_outage#1:begin");
  const auto parsed = TraceRecord::from_csv(r.to_csv());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, RecordType::kFault);
  EXPECT_EQ(parsed->fault(), "switch_outage#1:begin");
  // The label is type-gated: a fault record has no extension and a
  // storage record has no fault string, even though both share `label`.
  EXPECT_EQ(parsed->extension(), "");
  const TraceRecord storage = sample_storage_record();
  EXPECT_EQ(storage.fault(), "");
}

TEST(TraceRecord, CsvRoundTripRpc) {
  TraceRecord r;
  r.t = kHour;
  r.type = RecordType::kRpc;
  r.machine = MachineId{1};
  r.process = ProcessId{5};
  r.user = UserId{7};
  r.session = SessionId{8};
  r.rpc_op = RpcOp::kMakeContent;
  r.shard = ShardId{4};
  r.service_time = 8 * kMillisecond;
  const auto parsed = TraceRecord::from_csv(r.to_csv());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rpc_op, r.rpc_op);
  EXPECT_EQ(parsed->shard, r.shard);
  EXPECT_EQ(parsed->service_time, r.service_time);
}

TEST(TraceRecord, CsvRoundTripSession) {
  TraceRecord r;
  r.t = 2 * kHour;
  r.type = RecordType::kSession;
  r.machine = MachineId{3};
  r.process = ProcessId{9};
  r.user = UserId{11};
  r.session = SessionId{12};
  r.session_event = SessionEvent::kClose;
  r.duration = 45 * kMinute;
  const auto parsed = TraceRecord::from_csv(r.to_csv());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->session_event, SessionEvent::kClose);
  EXPECT_EQ(parsed->duration, 45 * kMinute);
}

TEST(TraceRecord, CsvRoundTripsPreWindowTime) {
  // Bootstrap records carry t < 0; the writer prints t as its unsigned
  // bit pattern, and the parser must read that back as the same
  // negative time rather than reject the row.
  TraceRecord boot = sample_storage_record();
  boot.t = -3 * kDay;
  const auto fields = boot.to_csv();
  EXPECT_EQ(fields[0], std::to_string(static_cast<std::uint64_t>(boot.t)));
  const auto parsed = TraceRecord::from_csv(fields);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->t, -3 * kDay);
  EXPECT_EQ(parsed->to_csv(), fields);
}

TEST(TraceRecord, FromCsvRejectsMalformed) {
  EXPECT_FALSE(TraceRecord::from_csv({}).has_value());
  EXPECT_FALSE(TraceRecord::from_csv({"only", "two"}).has_value());
  EXPECT_FALSE(TraceRecord::from_csv(csv_with(0, "not-a-number")).has_value());
  EXPECT_FALSE(TraceRecord::from_csv(csv_with(1, "bogus_type")).has_value());
  EXPECT_FALSE(TraceRecord::from_csv(csv_with(13, "nothex")).has_value());
}

TEST(TraceRecord, FromCsvRejectsOverflowingIds) {
  // The packed record stores narrow ids; values a valid writer can never
  // emit (the fleet has 19 machines, 8 workers, 32-bit users/sessions)
  // are malformed input, not silent truncations.
  EXPECT_FALSE(TraceRecord::from_csv(csv_with(2, "256")).has_value());
  EXPECT_FALSE(TraceRecord::from_csv(csv_with(3, "65536")).has_value());
  EXPECT_FALSE(TraceRecord::from_csv(csv_with(4, "4294967296")).has_value());
  EXPECT_FALSE(TraceRecord::from_csv(csv_with(5, "4294967296")).has_value());
  EXPECT_FALSE(TraceRecord::from_csv(csv_with(2, "-1")).has_value());
  // In-range values still parse.
  EXPECT_TRUE(TraceRecord::from_csv(csv_with(2, "255")).has_value());
}

TEST(TraceRecord, FromCsvRejectsLabelOnWrongType) {
  // extension and fault share one symbol slot, gated by the record type:
  // a row carrying both, or carrying the wrong one, is malformed.
  const auto both = csv_with(23, "power#0:begin");  // storage row + fault col
  EXPECT_FALSE(TraceRecord::from_csv(both).has_value());
  TraceRecord f;
  f.t = kHour;
  f.type = RecordType::kFault;
  f.set_fault("power#0:begin");
  auto fields = f.to_csv();
  fields[14] = "mp3";  // extension on a fault row
  fields[23] = "";
  EXPECT_FALSE(TraceRecord::from_csv(fields).has_value());
}

TEST(TraceRecord, AppendCsvRowMatchesToCsv) {
  // The hashing/serialization fast path must produce exactly the bytes
  // the historical per-field loop produced: every to_csv field followed
  // by ',', then '\n'. The trace SHA-1 baseline depends on this.
  std::vector<TraceRecord> samples;
  samples.push_back(sample_storage_record());
  TraceRecord boot = sample_storage_record();
  boot.t = -3 * kDay;  // bootstrap records carry negative timestamps
  samples.push_back(boot);
  TraceRecord fault;
  fault.t = kHour;
  fault.type = RecordType::kFault;
  fault.machine = MachineId{3};
  fault.set_fault("db_failover#2:end");
  samples.push_back(fault);
  for (const TraceRecord& r : samples) {
    std::string expected;
    for (const std::string& field : r.to_csv()) {
      expected += field;
      expected += ',';
    }
    expected += '\n';
    std::string actual;
    r.append_csv_row(actual);
    EXPECT_EQ(actual, expected);
  }
}

TEST(TraceRecord, HeaderMatchesColumnCount) {
  const TraceRecord r = sample_storage_record();
  EXPECT_EQ(r.to_csv().size(), TraceRecord::csv_header().size());
}

TEST(TraceRecord, LognameFormat) {
  TraceRecord r;
  r.t = 17 * kDay;  // 2014-01-28
  r.machine = MachineId{1};
  r.process = ProcessId{23};
  EXPECT_EQ(r.logname(), "production-whitecurrant-23-20140128");
}

TEST(TraceRecord, MachineNamesStable) {
  EXPECT_EQ(machine_name(MachineId{1}), "whitecurrant");
  EXPECT_EQ(machine_name(MachineId{2}), "blackcurrant");
  EXPECT_EQ(machine_name(MachineId{0}), "unassigned");
}

TEST(RecordType, StringRoundTrip) {
  for (const RecordType t :
       {RecordType::kSession, RecordType::kStorage, RecordType::kStorageDone,
        RecordType::kRpc, RecordType::kFault}) {
    const auto back = record_type_from_string(to_string(t));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(record_type_from_string("nope").has_value());
}

TEST(SessionEvent, StringRoundTrip) {
  for (const SessionEvent e :
       {SessionEvent::kNone, SessionEvent::kAuthRequest,
        SessionEvent::kAuthOk, SessionEvent::kAuthFail, SessionEvent::kOpen,
        SessionEvent::kClose}) {
    const auto back = session_event_from_string(to_string(e));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, e);
  }
  EXPECT_FALSE(session_event_from_string("garbage").has_value());
}

}  // namespace
}  // namespace u1
