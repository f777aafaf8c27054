// u1d_closedloop: an in-process U1dServer on one thread over a fresh
// U1Backend per round, driven by three closed-loop BlockingClient
// connections with zero think time. Each connection registers, connects,
// runs a seeded sequence of MakeFile+Upload / Download / GetDelta and
// disconnects.
//
// A fresh back-end per round is also what keeps rounds independent:
// registering the same user twice against one back-end throws
// std::logic_error ("user already exists") out of Shard::create_user
// and, through U1dServer::run, takes the daemon down. The benchmark does
// not catch that exception; the defect is for the library to fix.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <thread>

#include "net/client.hpp"
#include "net/server.hpp"
#include "proto/envelope.hpp"
#include "server/backend.hpp"
#include "trace/sink.hpp"
#include "util/sha1.hpp"
#include "util/sim_time.hpp"
#include "workloads.hpp"

namespace u1b {

namespace {

using u1::ProtoOp;
using u1::Request;
using u1::Response;

constexpr std::size_t kConnections = 3;
constexpr int kConnectAttempts = 100;  // simulated auth failures retry
const ProtoOp kReportedOps[] = {ProtoOp::kGetDelta, ProtoOp::kMakeFile,
                                ProtoOp::kUpload, ProtoOp::kDownload};

struct Sample {
  ProtoOp op;
  double us;
};

/// One request/response pair as the client saw it (traced rounds keep
/// them for the in-process replay).
struct Exchange {
  Request q;
  Response r;
  double done_at = 0;
};

struct ClientResult {
  std::vector<Sample> samples;
  std::vector<Exchange> log;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;           // any of the three below
  std::uint64_t protocol_errors = 0;  // typed protocol rejections
  std::uint64_t dead = 0;             // connection lost mid-exchange
  std::uint64_t unexpected = 0;       // a status the sequence cannot get
};

class Client {
 public:
  Client(std::uint16_t port, std::size_t index, const Options& opt,
         Tracer& tracer, int round_span)
      : index_(index),
        rng_(opt.seed ^ (0x9e3779b97f4a7c15ULL * (index + 1))),
        ops_(opt.ops),
        tracer_(tracer),
        round_span_(round_span) {
    if (!conn_.connect_loopback(port)) {
      ++res_.dead;
      ++res_.failed;
    }
  }

  ClientResult run() {
    if (!conn_.connected()) return std::move(res_);
    const u1::UserId uid{1000 + index_};
    Request reg;
    reg.op = ProtoOp::kRegisterUser;
    reg.user = uid;
    const auto acc = call(reg);
    if (!acc) return std::move(res_);

    // Connect; a simulated auth failure (kError) is part of the model
    // and is retried, anything else is unexpected.
    std::optional<Response> sess;
    for (int i = 0; i < kConnectAttempts && !sess; ++i) {
      Request c;
      c.op = ProtoOp::kConnect;
      c.user = uid;
      sess = call(c, u1::Status::kError);
      if (!sess && !conn_.connected()) return std::move(res_);
      if (sess && !sess->ok()) sess.reset();
    }
    if (!sess) {
      flag_unexpected();
      return std::move(res_);
    }
    const u1::SessionId session = sess->session;

    std::vector<u1::NodeId> files;
    for (std::size_t i = 0; i < ops_; ++i) {
      const double dice = std::uniform_real_distribution<>(0, 1)(rng_);
      if (dice < 0.40 || files.empty()) {
        char name[9];
        std::snprintf(name, sizeof name, "%08llx",
                      static_cast<unsigned long long>(rng_() & 0xffffffffu));
        Request mk;
        mk.op = ProtoOp::kMakeFile;
        mk.session = session;
        mk.volume = acc->volume;
        mk.parent = acc->root_dir;
        mk.set_name_hash(name);
        mk.set_extension("jpg");
        const auto mkr = call(mk);
        if (!mkr) break;
        Request up;
        up.op = ProtoOp::kUpload;
        up.session = session;
        up.node = mkr->node;
        up.content = u1::Sha1::of(std::string("blob-") + name);
        up.size_bytes = 64 * 1024 + (rng_() % (512 * 1024));
        if (!call(up)) break;
        files.push_back(mkr->node);
      } else if (dice < 0.75) {
        Request down;
        down.op = ProtoOp::kDownload;
        down.session = session;
        down.node = files[rng_() % files.size()];
        if (!call(down)) break;
      } else {
        Request delta;
        delta.op = ProtoOp::kGetDelta;
        delta.session = session;
        delta.volume = acc->volume;
        if (!call(delta)) break;
      }
    }
    Request disc;
    disc.op = ProtoOp::kDisconnect;
    disc.session = session;
    call(disc);
    return std::move(res_);
  }

 private:
  void flag_unexpected() {
    ++res_.unexpected;
    ++res_.failed;
  }

  /// One timed round trip. Returns the response when its status is kOk
  /// (or `also_ok`); counts every other outcome as a failure.
  std::optional<Response> call(Request q,
                               std::optional<u1::Status> also_ok = {}) {
    q.now = vnow_;
    const std::int64_t id =
        static_cast<std::int64_t>((index_ << 32) | res_.requests);
    const int span = tracer_.open("net.call", round_span_, id);
    const auto t0 = Clock::now();
    std::optional<Response> r = conn_.call(q);
    const auto t1 = Clock::now();
    tracer_.close(span);
    ++res_.requests;
    if (!r) {
      ++res_.dead;
      ++res_.failed;
      conn_.close();
      return std::nullopt;
    }
    res_.samples.push_back({q.op, 1e6 * seconds_between(t0, t1)});
    if (tracer_.enabled()) res_.log.push_back({q, *r, now_s()});
    vnow_ = std::max(vnow_, r->end);
    if (u1::is_protocol_error(r->status)) {
      ++res_.protocol_errors;
      ++res_.failed;
      return std::nullopt;
    }
    if (!r->ok() && r->status != also_ok) {
      flag_unexpected();
      return std::nullopt;
    }
    return r;
  }

  std::size_t index_;
  std::mt19937_64 rng_;
  std::size_t ops_;
  Tracer& tracer_;
  int round_span_;
  u1::BlockingClient conn_;
  u1::SimTime vnow_ = u1::kHour;  // per-connection virtual clock
  ClientResult res_;
};

u1::BackendConfig backend_config(const Options& opt) {
  u1::BackendConfig cfg;
  cfg.seed = opt.seed;
  return cfg;
}

struct Round {
  double setup_s = 0;
  double wall_s = 0;
  double server_cpu_s = 0;
  u1::NetServerStats stats;
  std::vector<ClientResult> clients;
};

Round run_round(const Options& opt, Tracer& tracer) {
  Round rd;
  const auto s0 = Clock::now();
  u1::NullSink sink;
  u1::U1Backend backend(backend_config(opt), sink);
  u1::U1dServer server(backend, u1::NetServerConfig{});
  if (!server.start()) throw std::runtime_error("u1d: cannot listen");
  rd.setup_s = seconds_between(s0, Clock::now());

  // The server thread; an exception out of run() is not caught here.
  // Declared before the guard, so on any exit the guard stops the server
  // first and the thread's destructor then joins it.
  std::jthread server_thread([&] {
    const double c0 = thread_cpu_s();
    server.run();
    rd.server_cpu_s = thread_cpu_s() - c0;
  });
  struct StopServer {
    u1::U1dServer& server;
    ~StopServer() { server.stop(); }
  } stop_server{server};

  const int root = tracer.open("closedloop");
  const auto t0 = Clock::now();
  rd.clients.resize(kConnections);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < kConnections; ++i)
      threads.emplace_back([&, i] {
        Client c(server.port(), i, opt, tracer, root);
        rd.clients[i] = c.run();
      });
  }  // joins the clients
  rd.wall_s = seconds_between(t0, Clock::now());
  tracer.close(root);
  server.stop();
  server_thread.join();
  rd.stats = server.stats();
  return rd;
}

/// Replays a traced round's request stream, in the order the clients got
/// their responses, through U1Backend::call on a fresh back-end, timing
/// each call. Back-end generated ids (sessions, volumes, nodes) are
/// remapped from the live run's to the replay's.
void replay_round(const Options& opt, const Round& rd, Tracer& tracer,
                  std::vector<double>& call_us,
                  std::vector<double>& get_delta_us) {
  std::vector<const Exchange*> stream;
  for (const ClientResult& c : rd.clients)
    for (const Exchange& e : c.log) stream.push_back(&e);
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Exchange* a, const Exchange* b) {
                     return a->done_at < b->done_at;
                   });

  u1::NullSink sink;
  u1::U1Backend backend(backend_config(opt), sink);
  std::map<std::uint64_t, std::uint64_t> sessions;
  std::map<u1::Uuid, u1::Uuid> uuids;
  const auto remap = [&](u1::Uuid& id) {
    const auto it = uuids.find(id);
    if (it != uuids.end()) id = it->second;
  };
  const auto learn = [&](const u1::Uuid& live, const u1::Uuid& now) {
    if (!live.is_nil()) uuids[live] = now;
  };

  const int root = tracer.open("server.replay");
  for (const Exchange* e : stream) {
    // Simulated auth failures are replayed as the live run resolved them:
    // failed connects are skipped, successful ones retried until they
    // succeed here too.
    if (e->q.op == ProtoOp::kConnect && !e->r.ok()) continue;
    Request q = e->q;
    if (q.session.valid()) q.session.value = sessions[q.session.value];
    remap(q.volume);
    remap(q.node);
    remap(q.parent);
    Response r;
    for (int attempt = 0; attempt < kConnectAttempts; ++attempt) {
      const double t0 = now_s();
      r = backend.call(q);
      const double t1 = now_s();
      tracer.add("server.call", t0, t1, root);
      call_us.push_back(1e6 * (t1 - t0));
      if (q.op == ProtoOp::kGetDelta) get_delta_us.push_back(1e6 * (t1 - t0));
      if (q.op != ProtoOp::kConnect || r.ok()) break;
    }
    if (e->r.session.valid()) sessions[e->r.session.value] = r.session.value;
    learn(e->r.volume, r.volume);
    learn(e->r.node, r.node);
    learn(e->r.root_dir, r.root_dir);
  }
  tracer.close(root);
}

/// Encodes and decodes every request and response of the stream; returns
/// (encode ns per frame, decode ns per frame) and counts round-trip
/// mismatches.
std::pair<double, double> codec_cost(const Round& rd, Tracer& tracer,
                                     std::uint64_t& mismatches) {
  std::vector<const Exchange*> stream;
  for (const ClientResult& c : rd.clients)
    for (const Exchange& e : c.log) stream.push_back(&e);
  if (stream.empty()) return {0, 0};
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(2 * stream.size());

  const int enc = tracer.open("proto.encode");
  const auto e0 = Clock::now();
  for (const Exchange* e : stream) {
    frames.push_back(u1::encode_request_frame(e->q));
    frames.push_back(u1::encode_response_frame(e->r));
  }
  const double enc_s = seconds_between(e0, Clock::now());
  tracer.close(enc);

  const int dec = tracer.open("proto.decode");
  const auto d0 = Clock::now();
  std::size_t i = 0;
  for (const Exchange* e : stream) {
    Request q;
    Response r;
    const auto& fq = frames[i++];
    const auto& fr = frames[i++];
    const u1::FrameDecode dq =
        u1::decode_request_frame(fq.data(), fq.size(), q);
    const u1::FrameDecode dr =
        u1::decode_response_frame(fr.data(), fr.size(), r);
    if (dq.status != u1::Status::kOk || dr.status != u1::Status::kOk ||
        !(q == e->q) || !(r == e->r))
      ++mismatches;
  }
  const double dec_s = seconds_between(d0, Clock::now());
  tracer.close(dec);
  const double n = static_cast<double>(frames.size());
  return {1e9 * enc_s / n, 1e9 * dec_s / n};
}

/// One round in a forked child, so every round starts from a fresh heap
/// and reports its own peak RSS. Traced rounds also replay their request
/// stream through U1Backend::call and the frame codec.
PassRecord round_record(const Options& opt, bool traced) {
  return run_in_child([&] {
    Tracer tracer(traced);
    const Round rd = run_round(opt, tracer);
    PassRecord p;
    auto& v = p.values;
    v["setup_s"] = rd.setup_s;
    v["wall_s"] = rd.wall_s;
    v["peak_rss_mb"] = peak_rss_mb();
    v["net.server_cpu_s"] = rd.server_cpu_s;
    v["net.server_busy_frac"] = rd.server_cpu_s / rd.wall_s;
    const auto served = static_cast<double>(rd.stats.requests);
    v["net.bytes_in_per_req"] =
        served > 0 ? static_cast<double>(rd.stats.bytes_in) / served : 0.0;
    v["net.bytes_out_per_req"] =
        served > 0 ? static_cast<double>(rd.stats.bytes_out) / served : 0.0;
    // Protocol errors as the clients saw them: the server counts the same
    // rejections once more in its own stats.
    double requests = 0, failed = 0, dead = 0, unexpected = 0;
    double protocol_errors = 0;
    std::vector<double> all_us;
    std::map<ProtoOp, std::vector<double>> by_op;
    for (const ClientResult& c : rd.clients) {
      requests += static_cast<double>(c.requests);
      failed += static_cast<double>(c.failed);
      dead += static_cast<double>(c.dead);
      unexpected += static_cast<double>(c.unexpected);
      protocol_errors += static_cast<double>(c.protocol_errors);
      for (const Sample& s : c.samples) {
        all_us.push_back(s.us);
        by_op[s.op].push_back(s.us);
      }
    }
    v["requests"] = requests;
    v["failed"] = failed;
    v["dead"] = dead;
    v["unexpected"] = unexpected;
    v["net.protocol_errors"] = protocol_errors;
    v["rpc_rps"] = requests / rd.wall_s;
    const double p99 = percentile(all_us, 0.99);
    v["rpc_p50_us"] = percentile(all_us, 0.50);
    v["rpc_p99_us"] = p99;
    v["rpc_samples"] = static_cast<double>(all_us.size());
    v["rpc_beyond_p99"] = static_cast<double>(std::count_if(
        all_us.begin(), all_us.end(), [&](double x) { return x > p99; }));
    for (const ProtoOp op : kReportedOps) {
      const std::string name = "rpc." + std::string(u1::to_string(op));
      v[name + "_p50_us"] = percentile(by_op[op], 0.50);
      v[name + "_p99_us"] = percentile(by_op[op], 0.99);
    }
    if (!traced) return p;

    std::vector<double> call_us, get_delta_us;
    replay_round(opt, rd, tracer, call_us, get_delta_us);
    std::uint64_t mismatches = 0;
    const auto [enc, dec] = codec_cost(rd, tracer, mismatches);
    v["server.call_p50_us"] = percentile(call_us, 0.50);
    v["server.call_p99_us"] = percentile(call_us, 0.99);
    v["server.get_delta_call_p99_us"] = percentile(get_delta_us, 0.99);
    v["proto.encode_ns_per_frame"] = enc;
    v["proto.decode_ns_per_frame"] = dec;
    v["codec_mismatches"] = static_cast<double>(mismatches);
    p.spans = tracer.spans();
    return p;
  });
}

}  // namespace

Outcome run_u1d_closedloop(const Options& opt) {
  std::printf("# workload u1d_closedloop | connections=%zu ops=%zu "
              "seed=%llu think=0 (closed loop)\n",
              kConnections, opt.ops,
              static_cast<unsigned long long>(opt.seed));
  std::printf("# engine U1dServer (1 poll thread) over a fresh U1Backend "
              "per round; %zu BlockingClient threads\n",
              kConnections);

  Outcome out;
  std::vector<PassRecord> rounds;
  std::vector<bool> traced;
  PassSchedule schedule(opt, 5);
  while (schedule.more()) {
    traced.push_back(schedule.traced());
    rounds.push_back(round_record(opt, traced.back()));
    const PassRecord& r = rounds.back();
    schedule.done(r.value("wall_s"));
    std::printf("# round %zu%s: setup %.6f s, wall %.4f s, %.0f requests "
                "(%.0f rps), server cpu %.4f s, peak rss %.1f MB\n",
                rounds.size(), traced.back() ? " (traced)" : "",
                r.value("setup_s"), r.value("wall_s"), r.value("requests"),
                r.value("rpc_rps"), r.value("net.server_cpu_s"),
                r.value("peak_rss_mb"));
    out.attempted += static_cast<std::uint64_t>(r.value("requests"));
    const double failed = r.value("failed");
    if (failed > 0) {
      const auto n = [](double v) {
        return std::to_string(static_cast<long long>(v));
      };
      out.fail("round " + std::to_string(rounds.size()) + ": " +
               n(r.value("dead")) + " dead connections, " +
               n(r.value("unexpected")) + " unexpected statuses, " +
               n(r.value("net.protocol_errors")) + " protocol errors");
      out.failed += static_cast<std::uint64_t>(failed) - 1;  // fail() +1
    }
    if (r.value("codec_mismatches") > 0) {
      ++out.attempted;
      out.fail(std::to_string(
                   static_cast<long long>(r.value("codec_mismatches"))) +
               " exchanges did not survive an encode/decode round trip");
    }
  }

  // End-to-end and whole-workload figures: medians over untraced rounds
  // (sample counts summed).
  std::vector<const PassRecord*> untraced_rounds, traced_rounds;
  std::vector<double> walls, traced_walls;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    (traced[i] ? traced_rounds : untraced_rounds).push_back(&rounds[i]);
    (traced[i] ? traced_walls : walls).push_back(rounds[i].value("wall_s"));
  }
  const auto med = [&](const char* name) {
    std::vector<double> v;
    for (const PassRecord* r : untraced_rounds) v.push_back(r->value(name));
    return median(v);
  };
  const auto sum = [&](const char* name) {
    double total = 0;
    for (const PassRecord* r : untraced_rounds) total += r->value(name);
    return total;
  };
  out.set("setup_s", med("setup_s"));
  out.set("wall_s", med("wall_s"));
  out.set("peak_rss_mb", med("peak_rss_mb"));
  for (const char* name :
       {"rpc_rps", "rpc_p50_us", "rpc_p99_us", "net.server_cpu_s",
        "net.server_busy_frac", "net.bytes_in_per_req",
        "net.bytes_out_per_req"})
    out.set(name, med(name));
  for (const ProtoOp op : kReportedOps) {
    const std::string name = "rpc." + std::string(u1::to_string(op));
    out.set(name + "_p50_us", med((name + "_p50_us").c_str()));
    out.set(name + "_p99_us", med((name + "_p99_us").c_str()));
  }
  out.set("rpc_samples", sum("rpc_samples"));
  out.set("rpc_beyond_p99", sum("rpc_beyond_p99"));
  double protocol_errors = 0;
  for (const PassRecord& r : rounds)
    protocol_errors += r.value("net.protocol_errors");
  out.set("net.protocol_errors", protocol_errors);

  if (opt.trace) {
    // Only server.* / proto.* come from the traced rounds; the rest
    // above stays measured with tracing off.
    std::vector<PassRecord> layer(traced_rounds.size());
    std::vector<const PassRecord*> layer_ptrs;
    for (std::size_t i = 0; i < traced_rounds.size(); ++i) {
      for (const char* name :
           {"server.call_p50_us", "server.call_p99_us",
            "server.get_delta_call_p99_us", "proto.encode_ns_per_frame",
            "proto.decode_ns_per_frame"})
        layer[i].values[name] = traced_rounds[i]->value(name);
      layer[i].spans = traced_rounds[i]->spans;
      layer_ptrs.push_back(&layer[i]);
    }
    fold_traced(out, layer_ptrs, walls, traced_walls, "closedloop");
    print_span_report(out, median(traced_walls), median(walls));
  }
  return out;
}

}  // namespace u1b
