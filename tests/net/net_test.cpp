// Loopback tests for the u1d network core: a live U1dServer on an
// ephemeral port, driven by real BlockingClient sockets. Covers the
// ISSUE acceptance bar (64 concurrent connections, zero protocol
// errors), the hostile-input contract at the socket boundary (typed
// error responses, the connection survives everything except an
// oversized length prefix), and virtual-time fault arming.
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "fault/scenarios.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "proto/envelope.hpp"
#include "server/backend.hpp"
#include "trace/sink.hpp"
#include "util/sha1.hpp"

namespace u1 {
namespace {

/// Backend + server on an ephemeral loopback port, run() on its own
/// thread. stop() then join happens in the destructor, so stats reads in
/// test bodies go through stopped(), which synchronizes first.
class LiveServer {
 public:
  explicit LiveServer(BackendConfig cfg = {}, NetServerConfig net = {})
      : backend_(cfg, sink_) {
    net.port = 0;
    server_ = std::make_unique<U1dServer>(backend_, net);
    EXPECT_TRUE(server_->start());
    thread_ = std::thread([this] { server_->run(); });
  }

  ~LiveServer() { stop(); }

  std::uint16_t port() const { return server_->port(); }
  U1dServer& server() { return *server_; }
  U1Backend& backend() { return backend_; }

  /// Stops the serve loop and joins; after this, stats() is safe.
  const NetServerStats& stop() {
    if (thread_.joinable()) {
      server_->stop();
      thread_.join();
    }
    return server_->stats();
  }

 private:
  NullSink sink_;
  U1Backend backend_;
  std::unique_ptr<U1dServer> server_;
  std::thread thread_;
};

Request make_request(ProtoOp op, SimTime now) {
  Request q;
  q.op = op;
  q.now = now;
  return q;
}

/// Table-2 handshake: RegisterUser then Connect. Returns the session and
/// leaves volume/root in the out-params.
std::optional<SessionId> handshake(BlockingClient& client, std::uint64_t uid,
                                   VolumeId& volume, NodeId& root,
                                   SimTime& vnow) {
  Request reg = make_request(ProtoOp::kRegisterUser, vnow);
  reg.user.value = uid;
  const auto acc = client.call(reg);
  if (!acc || !acc->ok()) return std::nullopt;
  volume = acc->volume;
  root = acc->root_dir;

  // Legal non-ok outcomes under a thundering herd: kTryAgain (balancer
  // load-shed) and kError (the modeled ~2% auth-service failure rate).
  // Real clients retry with backoff, so the handshake does too.
  for (int attempt = 0; attempt < 32; ++attempt) {
    Request conn = make_request(ProtoOp::kConnect, vnow);
    conn.user.value = uid;
    const auto sess = client.call(conn);
    if (!sess || is_protocol_error(sess->status)) return std::nullopt;
    vnow = sess->end + kSecond;
    if (sess->ok()) return sess->session;
  }
  return std::nullopt;
}

TEST(U1dServer, StartsOnEphemeralPortAndStops) {
  LiveServer live;
  EXPECT_GT(live.port(), 0);
  const NetServerStats& stats = live.stop();
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(U1dServer, SingleClientFullStorageFlow) {
  LiveServer live;
  BlockingClient client;
  ASSERT_TRUE(client.connect_loopback(live.port()));

  SimTime vnow = kHour;
  VolumeId volume;
  NodeId root;
  const auto session = handshake(client, 4242, volume, root, vnow);
  ASSERT_TRUE(session.has_value());

  Request mk = make_request(ProtoOp::kMakeFile, vnow);
  mk.session = *session;
  mk.volume = volume;
  mk.parent = root;
  mk.set_name_hash("deadbeef");
  mk.set_extension("pdf");
  const auto mkr = client.call(mk);
  ASSERT_TRUE(mkr.has_value());
  ASSERT_TRUE(mkr->ok());
  EXPECT_EQ(mkr->op, ProtoOp::kMakeFile);
  vnow = mkr->end;

  Request up = make_request(ProtoOp::kUpload, vnow);
  up.session = *session;
  up.node = mkr->node;
  up.content = Sha1::of("net-test-blob");
  up.size_bytes = 128 * 1024;
  const auto upr = client.call(up);
  ASSERT_TRUE(upr.has_value());
  ASSERT_TRUE(upr->ok());
  EXPECT_GT(upr->end, vnow);  // transfer takes virtual time
  EXPECT_EQ(upr->committed_bytes, up.size_bytes);  // first copy: no dedup
  vnow = upr->end;

  Request down = make_request(ProtoOp::kDownload, vnow);
  down.session = *session;
  down.node = mkr->node;
  const auto dr = client.call(down);
  ASSERT_TRUE(dr.has_value());
  ASSERT_TRUE(dr->ok());
  EXPECT_EQ(dr->transferred_bytes, up.size_bytes);
  vnow = dr->end;

  Request delta = make_request(ProtoOp::kGetDelta, vnow);
  delta.session = *session;
  delta.volume = volume;
  const auto gr = client.call(delta);
  ASSERT_TRUE(gr.has_value());
  EXPECT_TRUE(gr->ok());
  vnow = gr->end;

  Request disc = make_request(ProtoOp::kDisconnect, vnow);
  disc.session = *session;
  const auto dc = client.call(disc);
  ASSERT_TRUE(dc.has_value());
  EXPECT_TRUE(dc->ok());

  const NetServerStats& stats = live.stop();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.requests, stats.responses);
  EXPECT_GE(stats.requests, 7u);
  EXPECT_EQ(live.backend().stats().uploads, 1u);
  EXPECT_EQ(live.backend().stats().downloads, 1u);
}

TEST(U1dServer, SixtyFourConcurrentConnectionsZeroProtocolErrors) {
  // The ISSUE acceptance bar, as a unit test: 64 live sockets doing the
  // full handshake + a burst of storage ops each, concurrently.
  constexpr std::size_t kConns = 64;
  constexpr std::size_t kOpsPerConn = 8;
  LiveServer live;

  std::vector<std::thread> workers;
  std::vector<int> failures(kConns, 0);
  workers.reserve(kConns);
  for (std::size_t i = 0; i < kConns; ++i) {
    workers.emplace_back([&live, &failures, i] {
      BlockingClient client;
      if (!client.connect_loopback(live.port())) {
        failures[i] = 1;
        return;
      }
      SimTime vnow = kHour;
      VolumeId volume;
      NodeId root;
      const auto session =
          handshake(client, 10000 + i, volume, root, vnow);
      if (!session) {
        failures[i] = 2;
        return;
      }
      for (std::size_t op = 0; op < kOpsPerConn; ++op) {
        Request mk = make_request(ProtoOp::kMakeFile, vnow);
        mk.session = *session;
        mk.volume = volume;
        mk.parent = root;
        char name[16];
        std::snprintf(name, sizeof name, "%02zx%06zx", i, op);
        mk.set_name_hash(name);
        mk.set_extension("txt");
        const auto mkr = client.call(mk);
        if (!mkr || is_protocol_error(mkr->status)) {
          failures[i] = 3;
          return;
        }
        vnow = mkr->end;
        if (!mkr->ok()) continue;  // load-shed etc.: legal outcomes
        Request up = make_request(ProtoOp::kUpload, vnow);
        up.session = *session;
        up.node = mkr->node;
        up.content = Sha1::of(std::string("conn-") + name);
        up.size_bytes = 4096 + 512 * op;
        const auto upr = client.call(up);
        if (!upr || is_protocol_error(upr->status)) {
          failures[i] = 4;
          return;
        }
        vnow = upr->end;
      }
      Request disc = make_request(ProtoOp::kDisconnect, vnow);
      disc.session = *session;
      client.call(disc);
    });
  }
  for (auto& t : workers) t.join();

  for (std::size_t i = 0; i < kConns; ++i)
    EXPECT_EQ(failures[i], 0) << "connection " << i;
  const NetServerStats& stats = live.stop();
  EXPECT_EQ(stats.accepted, kConns);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.requests, stats.responses);
  EXPECT_GE(stats.requests, kConns * (2 + kOpsPerConn));
}

TEST(U1dServer, RuntFrameGetsTypedErrorAndConnectionSurvives) {
  LiveServer live;
  BlockingClient client;
  ASSERT_TRUE(client.connect_loopback(live.port()));

  // len=2 < 3: cannot hold version+op.
  const std::uint8_t runt[] = {2, 0, 0, 0, 0xaa, 0xbb};
  ASSERT_TRUE(client.send_bytes(runt, sizeof runt));
  const auto err = client.recv_response();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->status, Status::kBadFrame);

  // The same connection must still serve real traffic.
  Request reg = make_request(ProtoOp::kRegisterUser, kHour);
  reg.user.value = 777;
  const auto acc = client.call(reg);
  ASSERT_TRUE(acc.has_value());
  EXPECT_TRUE(acc->ok());

  const NetServerStats& stats = live.stop();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.closed, 0u);  // nothing was dropped server-side
}

TEST(U1dServer, DuplicateRegisterUserIsAnErrorNotACrash) {
  // Registering an existing user is a client mistake: the server must
  // answer it with a typed error and keep serving, not let the store's
  // exception unwind out of run().
  LiveServer live;
  BlockingClient client;
  ASSERT_TRUE(client.connect_loopback(live.port()));

  Request reg = make_request(ProtoOp::kRegisterUser, kHour);
  reg.user.value = 4242;
  const auto first = client.call(reg);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ok());

  const auto again = client.call(reg);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->op, ProtoOp::kRegisterUser);
  EXPECT_EQ(again->status, Status::kError);

  // The server is still up: a third request is served normally.
  Request other = make_request(ProtoOp::kRegisterUser, kHour);
  other.user.value = 4243;
  const auto third = client.call(other);
  ASSERT_TRUE(third.has_value());
  EXPECT_TRUE(third->ok());

  const NetServerStats& stats = live.stop();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(U1dServer, VersionMismatchRejectedPerFrameOpEchoed) {
  LiveServer live;
  BlockingClient client;
  ASSERT_TRUE(client.connect_loopback(live.port()));

  Request q = make_request(ProtoOp::kGetDelta, kHour);
  auto frame = encode_request_frame(q);
  frame[4] = 0x63;  // bogus version
  frame[5] = 0x00;
  ASSERT_TRUE(client.send_bytes(frame.data(), frame.size()));
  const auto err = client.recv_response();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->status, Status::kVersionMismatch);
  EXPECT_EQ(err->op, ProtoOp::kGetDelta);  // op echoed for correlation

  const auto acc = client.call(make_request(ProtoOp::kListVolumes, kHour));
  ASSERT_TRUE(acc.has_value());  // connection survived

  const NetServerStats& stats = live.stop();
  EXPECT_EQ(stats.protocol_errors, 1u);
}

TEST(U1dServer, UnknownOpByteGetsTypedError) {
  LiveServer live;
  BlockingClient client;
  ASSERT_TRUE(client.connect_loopback(live.port()));

  auto frame = encode_request_frame(make_request(ProtoOp::kConnect, 0));
  frame[6] = 0xf0;  // op byte outside the enum
  ASSERT_TRUE(client.send_bytes(frame.data(), frame.size()));
  const auto err = client.recv_response();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->status, Status::kUnknownOp);

  const NetServerStats& stats = live.stop();
  EXPECT_EQ(stats.protocol_errors, 1u);
}

TEST(U1dServer, OversizedLengthPrefixClosesConnectionAfterTypedError) {
  LiveServer live;
  BlockingClient client;
  ASSERT_TRUE(client.connect_loopback(live.port()));

  std::vector<std::uint8_t> frame(64, 0xcc);
  const std::uint32_t len = kMaxFrameBytes + 1;
  std::memcpy(frame.data(), &len, sizeof len);
  ASSERT_TRUE(client.send_bytes(frame.data(), frame.size()));

  // The typed rejection is flushed first, then the socket closes.
  const auto err = client.recv_response();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->status, Status::kOversizedFrame);
  EXPECT_FALSE(client.recv_response().has_value());  // peer hung up

  const NetServerStats& stats = live.stop();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.closed, 1u);
}

TEST(U1dServer, GarbageStreamNeverKillsTheServer) {
  LiveServer live;
  {
    BlockingClient hostile;
    ASSERT_TRUE(hostile.connect_loopback(live.port()));
    // Deterministic garbage with small plausible length prefixes, so the
    // server chews through many rejected frames on one connection.
    std::vector<std::uint8_t> stream;
    std::uint64_t x = 1234567;
    for (int i = 0; i < 64; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint32_t len = 3 + static_cast<std::uint32_t>(x % 32);
      for (int b = 0; b < 4; ++b)
        stream.push_back(static_cast<std::uint8_t>(len >> (8 * b)));
      for (std::uint32_t b = 0; b < len; ++b)
        stream.push_back(static_cast<std::uint8_t>(x >> (b % 8)));
    }
    ASSERT_TRUE(hostile.send_bytes(stream.data(), stream.size()));
    // Drain at least one typed rejection to know the server processed us.
    const auto first = hostile.recv_response();
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(is_protocol_error(first->status) || first->status == Status::kOk);
  }

  // A fresh well-behaved client still gets service.
  BlockingClient good;
  ASSERT_TRUE(good.connect_loopback(live.port()));
  Request reg = make_request(ProtoOp::kRegisterUser, kHour);
  reg.user.value = 99;
  const auto acc = good.call(reg);
  ASSERT_TRUE(acc.has_value());
  EXPECT_TRUE(acc->ok());

  const NetServerStats& stats = live.stop();
  EXPECT_GT(stats.protocol_errors, 0u);
}

TEST(U1dServer, ArmedFaultEdgesFireOnVirtualTime) {
  // One machine outage window scheduled at +2h. Client requests carry
  // virtual now; once the high-water mark passes the edge, the server
  // must apply it to the backend.
  LiveServer live;
  FaultSchedule schedule;
  FaultEvent begin;
  begin.id = 1;
  begin.kind = FaultKind::kMachineOutage;
  begin.begin = true;
  begin.at = 2 * kHour;
  begin.duration = kHour;
  begin.machine = 1;
  FaultEvent end = begin;
  end.begin = false;
  end.at = 3 * kHour;
  schedule.push_back(begin);
  schedule.push_back(end);
  live.server().arm_faults(&schedule);

  BlockingClient client;
  ASSERT_TRUE(client.connect_loopback(live.port()));
  Request reg = make_request(ProtoOp::kRegisterUser, kHour);
  reg.user.value = 5;
  ASSERT_TRUE(client.call(reg).has_value());  // now=1h: nothing fires

  Request late = make_request(ProtoOp::kListVolumes, 4 * kHour);
  ASSERT_TRUE(client.call(late).has_value());  // now=4h: both edges pass

  const NetServerStats& stats = live.stop();
  EXPECT_EQ(stats.faults_applied, 2u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(U1dServer, ScenarioScheduleFiresEveryEdgeLive) {
  // Armed-edge parity for the canned incident scenarios: the DAG
  // schedule is a pure function of (plan, horizon, fleet, shards, seed),
  // so the live server must fire exactly the edges any engine would
  // materialize — begin and end of every window, cascades included —
  // once virtual time passes the horizon.
  for (const IncidentScenario& sc : incident_scenarios()) {
    const std::string name(sc.name);
    BackendConfig cfg;
    cfg.fleet.slow_start = sc.slow_start;
    cfg.session_cap_per_process = sc.session_cap;
    LiveServer live(cfg);
    const FaultSchedule schedule = build_fault_schedule(
        incident_plan(sc.name), 3 * kDay, cfg.fleet.machines, cfg.shards, 7);
    ASSERT_FALSE(schedule.empty()) << name;
    live.server().arm_faults(&schedule);

    BlockingClient client;
    ASSERT_TRUE(client.connect_loopback(live.port())) << name;
    // Walk virtual time in two hops: half the horizon, then past it.
    // The server's high-water mark must sweep every edge exactly once.
    for (const SimTime now : {SimTime(3 * kDay) / 2, SimTime(3 * kDay)}) {
      Request q = make_request(ProtoOp::kListVolumes, now);
      ASSERT_TRUE(client.call(q).has_value()) << name;
    }
    const NetServerStats& stats = live.stop();
    EXPECT_EQ(stats.faults_applied, schedule.size()) << name;
    EXPECT_EQ(stats.protocol_errors, 0u) << name;
  }
}

TEST(U1dServer, PipelinedFramesInOneWriteAllAnswered) {
  // Two requests in a single send: the serve loop must peel both frames
  // and answer in order.
  LiveServer live;
  BlockingClient client;
  ASSERT_TRUE(client.connect_loopback(live.port()));

  Request a = make_request(ProtoOp::kRegisterUser, kHour);
  a.user.value = 11;
  Request b = make_request(ProtoOp::kConnect, kHour);
  b.user.value = 11;
  std::vector<std::uint8_t> burst;
  append_request_frame(burst, a);
  append_request_frame(burst, b);
  ASSERT_TRUE(client.send_bytes(burst.data(), burst.size()));

  const auto ra = client.recv_response();
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(ra->op, ProtoOp::kRegisterUser);
  EXPECT_TRUE(ra->ok());
  const auto rb = client.recv_response();
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(rb->op, ProtoOp::kConnect);
  EXPECT_TRUE(rb->ok());

  const NetServerStats& stats = live.stop();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(U1dServer, SlowReaderBackpressureDrainsWithoutDrop) {
  // A reader that stops consuming while thousands of responses are
  // owed: with both kernel buffers pinned tiny, the server's flush()
  // hits EAGAIN almost immediately and the whole reply stream has to
  // ride the per-connection backlog through POLLOUT-driven partial
  // sends. Every response must still arrive, in order, on the same
  // connection — a slow reader is backpressure, not an error. (EINTR
  // and the write()==0 stale-errno case in flush() share this exit
  // path: any mishandling shows up here as a dropped connection.)
  constexpr std::size_t kRequests = 3000;
  NetServerConfig net;
  net.send_buffer_bytes = 4096;  // kernel clamps to its floor, stays tiny
  LiveServer live({}, net);
  BlockingClient client;
  ASSERT_TRUE(client.connect_loopback(live.port(), /*recv_buffer_bytes=*/4096));

  // Pipeline every request up front, reading nothing: the server drains
  // the inbound stream unboundedly, so this send cannot deadlock, and
  // the owed responses pile up server-side.
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < kRequests; ++i) {
    Request q = make_request(ProtoOp::kRegisterUser, kHour);
    q.user.value = 100000 + i;
    append_request_frame(burst, q);
  }
  ASSERT_TRUE(client.send_bytes(burst.data(), burst.size()));

  // Now drain. Responses must come back complete and in request order.
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto resp = client.recv_response();
    ASSERT_TRUE(resp.has_value()) << "stream died at response " << i;
    EXPECT_EQ(resp->op, ProtoOp::kRegisterUser);
    EXPECT_TRUE(resp->ok()) << "response " << i;
  }

  const NetServerStats& stats = live.stop();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.responses, kRequests);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.closed, 0u);  // the slow reader was never dropped
}

}  // namespace
}  // namespace u1
