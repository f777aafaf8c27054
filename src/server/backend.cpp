#include "server/backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace u1 {
namespace {

/// Small fixed cost for API-server work that involves no DAL RPC
/// (parsing, capability negotiation).
constexpr SimTime kApiOverhead = 300 * kMicrosecond;

/// Shorthand for the common "status + completion time, nothing else"
/// responses.
Response make_response(ProtoOp op, Status status, SimTime end) {
  Response r;
  r.op = op;
  r.status = status;
  r.end = end;
  return r;
}

}  // namespace

U1Backend::U1Backend(const BackendConfig& config, TraceSink& sink)
    : config_(config),
      sink_(&sink),
      rng_(config.seed),
      store_(config.shards, config.seed ^ 0x5707e),
      auth_(config.seed ^ 0xa117, config.auth_failure_rate),
      token_cache_(config.token_cache_capacity),
      fleet_(config.fleet, config.seed ^ 0xf1ee7),
      // "Idle since forever": pre-trace (negative-time) operations must
      // not queue behind t=0.
      shard_busy_until_(config.shards,
                        std::numeric_limits<SimTime>::lowest() / 2) {
  next_session_ = config_.session_id_base;
  // Every API process subscribes to the notification queue (§3.4.2).
  for (std::size_t p = 1; p <= fleet_.process_count(); ++p) {
    mq_.subscribe(ProcessId{p},
                  [this](const VolumeEvent&) { ++stats_.notifications; });
  }
}

// --- the envelope dispatch ---------------------------------------------------

Response U1Backend::call(const Request& request) {
  if (!config_.wire_check) return dispatch(request);
  // Proof mode: push the request through the frame codec and dispatch the
  // decoded copy, then do the same for the response. Divergence anywhere
  // is a codec bug, not a workload condition — throw, don't trace.
  const std::vector<std::uint8_t> qframe = encode_request_frame(request);
  Request decoded_q;
  const FrameDecode qd =
      decode_request_frame(qframe.data(), qframe.size(), decoded_q);
  if (qd.status != Status::kOk || qd.consumed != qframe.size() ||
      !(decoded_q == request)) {
    throw std::logic_error(
        "wire_check: request round-trip diverged for op " +
        std::string(to_string(request.op)));
  }
  const Response response = dispatch(decoded_q);
  const std::vector<std::uint8_t> rframe = encode_response_frame(response);
  Response decoded_r;
  const FrameDecode rd =
      decode_response_frame(rframe.data(), rframe.size(), decoded_r);
  if (rd.status != Status::kOk || rd.consumed != rframe.size() ||
      !(decoded_r == response)) {
    throw std::logic_error(
        "wire_check: response round-trip diverged for op " +
        std::string(to_string(request.op)));
  }
  return decoded_r;
}

Response U1Backend::dispatch(const Request& q) {
  switch (q.op) {
    case ProtoOp::kConnect:
      return do_connect(q);
    case ProtoOp::kDisconnect:
      return do_disconnect(q);
    case ProtoOp::kListVolumes:
    case ProtoOp::kListShares:
    case ProtoOp::kQuerySetCaps:
      return do_simple_meta(q);
    case ProtoOp::kGetDelta:
      return do_get_delta(q);
    case ProtoOp::kRescanFromScratch:
      return do_rescan_from_scratch(q);
    case ProtoOp::kMakeFile:
    case ProtoOp::kMakeDir:
      return do_make(q);
    case ProtoOp::kUnlink:
      return do_unlink(q);
    case ProtoOp::kMove:
      return do_move(q);
    case ProtoOp::kCreateUDF:
      return do_create_udf(q);
    case ProtoOp::kDeleteVolume:
      return do_delete_volume(q);
    case ProtoOp::kUpload:
      return do_upload(q);
    case ProtoOp::kResumeUpload:
      return do_resume_upload(q);
    case ProtoOp::kDownload:
      return do_download(q);
    case ProtoOp::kRegisterUser:
      return do_register_user(q);
    case ProtoOp::kShareVolume:
      return do_share_volume(q);
    case ProtoOp::kEpochBegin:
    case ProtoOp::kMailboxBatch:
    case ProtoOp::kEpochDone:
    case ProtoOp::kChunkMeta:
    case ProtoOp::kShutdown:
      // Control-plane ops never dispatch: proto_op_from_wire rejects
      // them at the request decoder, so they fall through to the
      // unknown-op response below like any other non-request byte.
      break;
  }
  // Op byte outside the request plane (only reachable via a hand-built
  // Request — the frame decoder already rejects these before dispatch).
  Response r;
  r.op = q.op;
  r.status = Status::kUnknownOp;
  r.end = q.now;
  return r;
}

// --- typed wrappers (each packs a Request and lands in call()) ---------------

UserAccount U1Backend::register_user(UserId user, SimTime now) {
  Request q;
  q.op = ProtoOp::kRegisterUser;
  q.user = user;
  q.now = now;
  const Response r = call(q);
  return UserAccount{r.user, r.volume, r.root_dir};
}

Response U1Backend::connect(UserId user, SimTime now) {
  Request q;
  q.op = ProtoOp::kConnect;
  q.user = user;
  q.now = now;
  return call(q);
}

Response U1Backend::disconnect(SessionId session, SimTime now) {
  Request q;
  q.op = ProtoOp::kDisconnect;
  q.session = session;
  q.now = now;
  return call(q);
}

Response U1Backend::list_volumes(SessionId session, SimTime now) {
  Request q;
  q.op = ProtoOp::kListVolumes;
  q.session = session;
  q.now = now;
  return call(q);
}

Response U1Backend::list_shares(SessionId session, SimTime now) {
  Request q;
  q.op = ProtoOp::kListShares;
  q.session = session;
  q.now = now;
  return call(q);
}

Response U1Backend::query_set_caps(SessionId session, SimTime now) {
  Request q;
  q.op = ProtoOp::kQuerySetCaps;
  q.session = session;
  q.now = now;
  return call(q);
}

Response U1Backend::get_delta(SessionId session, VolumeId volume,
                              std::uint64_t since_generation, SimTime now) {
  Request q;
  q.op = ProtoOp::kGetDelta;
  q.session = session;
  q.volume = volume;
  q.since_generation = since_generation;
  q.now = now;
  return call(q);
}

Response U1Backend::rescan_from_scratch(SessionId session, VolumeId volume,
                                        SimTime now) {
  Request q;
  q.op = ProtoOp::kRescanFromScratch;
  q.session = session;
  q.volume = volume;
  q.now = now;
  return call(q);
}

Response U1Backend::make_file(SessionId session, VolumeId volume,
                              NodeId parent, std::string_view name_hash,
                              std::string_view extension, SimTime now) {
  Request q;
  q.op = ProtoOp::kMakeFile;
  q.session = session;
  q.volume = volume;
  q.parent = parent;
  q.set_name_hash(name_hash);
  q.set_extension(extension);
  q.now = now;
  return call(q);
}

Response U1Backend::make_dir(SessionId session, VolumeId volume,
                             NodeId parent, std::string_view name_hash,
                             SimTime now) {
  Request q;
  q.op = ProtoOp::kMakeDir;
  q.session = session;
  q.volume = volume;
  q.parent = parent;
  q.set_name_hash(name_hash);
  q.now = now;
  return call(q);
}

Response U1Backend::unlink(SessionId session, NodeId node, SimTime now) {
  Request q;
  q.op = ProtoOp::kUnlink;
  q.session = session;
  q.node = node;
  q.now = now;
  return call(q);
}

Response U1Backend::move(SessionId session, NodeId node, NodeId new_parent,
                         SimTime now) {
  Request q;
  q.op = ProtoOp::kMove;
  q.session = session;
  q.node = node;
  q.parent = new_parent;
  q.now = now;
  return call(q);
}

Response U1Backend::create_udf(SessionId session, SimTime now) {
  Request q;
  q.op = ProtoOp::kCreateUDF;
  q.session = session;
  q.now = now;
  return call(q);
}

Response U1Backend::delete_volume(SessionId session, VolumeId volume,
                                  SimTime now) {
  Request q;
  q.op = ProtoOp::kDeleteVolume;
  q.session = session;
  q.volume = volume;
  q.now = now;
  return call(q);
}

Response U1Backend::upload(SessionId session, NodeId node,
                           const ContentId& content, std::uint64_t size_bytes,
                           bool is_update, SimTime now) {
  Request q;
  q.op = ProtoOp::kUpload;
  q.session = session;
  q.node = node;
  q.content = content;
  q.size_bytes = size_bytes;
  q.set_is_update(is_update);
  q.now = now;
  return call(q);
}

Response U1Backend::resume_upload(SessionId session, NodeId node,
                                  const ContentId& content,
                                  std::uint64_t size_bytes, bool is_update,
                                  UploadJobId job, SimTime now) {
  Request q;
  q.op = ProtoOp::kResumeUpload;
  q.session = session;
  q.node = node;
  q.content = content;
  q.size_bytes = size_bytes;
  q.set_is_update(is_update);
  q.job = job;
  q.now = now;
  return call(q);
}

Response U1Backend::download(SessionId session, NodeId node, SimTime now) {
  Request q;
  q.op = ProtoOp::kDownload;
  q.session = session;
  q.node = node;
  q.now = now;
  return call(q);
}

Response U1Backend::share_volume(UserId owner, VolumeId volume, UserId to,
                                 SimTime now) {
  Request q;
  q.op = ProtoOp::kShareVolume;
  q.user = owner;
  q.peer = to;
  q.volume = volume;
  q.now = now;
  return call(q);
}

// --- operation implementations ----------------------------------------------

Response U1Backend::do_register_user(const Request& q) {
  // A repeated registration is a client error, not a server fault: the
  // store would throw, and over the wire that would take u1d down.
  if (store_.has_user(q.user))
    return make_response(q.op, Status::kError, q.now);
  const Volume root = store_.create_user(q.user, q.now);
  Response r;
  r.op = q.op;
  r.status = Status::kOk;
  r.user = q.user;
  r.volume = root.id;
  r.root_dir = root.root_dir;
  r.end = q.now;
  return r;
}

U1Backend::SessionState* U1Backend::find_session(SessionId id) noexcept {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

bool U1Backend::session_open(SessionId session) const {
  return sessions_.contains(session);
}

SimTime U1Backend::s3_latency(SimTime at) {
  // Log-normal one-way latency to us-east.
  const double u1v = 1.0 - rng_.uniform();
  const double u2 = rng_.uniform();
  const double z = std::sqrt(-2.0 * std::log(u1v)) * std::cos(2 * M_PI * u2);
  double s = config_.s3_latency_s_median * std::exp(0.5 * z);
  // Brownout windows stretch the S3 round trip (still capped at 5s).
  if (injector_ != nullptr) s *= injector_->s3_latency_multiplier(at);
  return at + from_seconds(std::clamp(s, 0.002, 5.0));
}

void U1Backend::emit_session_event(MachineId machine, ProcessId process,
                                   UserId user, SessionId session,
                                   SessionEvent event, SimTime at,
                                   SimTime duration) {
  TraceRecord r;
  r.t = at;
  r.type = RecordType::kSession;
  r.machine = machine;
  r.process = process;
  r.user = user;
  r.session = session;
  r.session_event = event;
  r.duration = duration;
  sink_->append(r);
}

SimTime U1Backend::run_rpc_at(RpcOp op, MachineId machine, ProcessId process,
                              UserId user, SessionId session, SimTime at) {
  // Which shards the preceding store call touched (empty for auth RPCs).
  const auto& touched = store_.shards_touched();
  const RpcClass cls = rpc_class(op);
  SimTime service = service_model_.sample(op, rng_);
  // A shard mid-failover serves writes from a catching-up slave: inflate
  // the master-side service time (reads hit the replica pair unharmed).
  if (injector_ != nullptr && cls != RpcClass::kRead) {
    double mult = 1.0;
    for (const ShardId s : touched)
      mult = std::max(mult, injector_->shard_service_multiplier(s.value, at));
    if (mult > 1.0)
      service = static_cast<SimTime>(static_cast<double>(service) * mult);
  }

  SimTime start = at;
  if (cls != RpcClass::kRead) {
    // Writes and cascades serialize on the shard master(s).
    for (const ShardId s : touched)
      start = std::max(start, shard_busy_until_[s.value - 1]);
  }
  const SimTime end = start + service;
  if (cls != RpcClass::kRead) {
    for (const ShardId s : touched) shard_busy_until_[s.value - 1] = end;
  }

  TraceRecord r;
  r.t = start;
  r.type = RecordType::kRpc;
  r.machine = machine;
  r.process = process;
  r.user = user;
  r.session = session;
  r.rpc_op = op;
  r.shard = touched.empty() ? ShardId{} : touched.front();
  r.service_time = service;
  sink_->append(r);
  ++stats_.rpcs;
  return end;
}

SimTime U1Backend::run_rpc(RpcOp op, const SessionState& ctx, SimTime at) {
  return run_rpc_at(op, ctx.session.api_machine, ctx.session.api_process,
                    ctx.session.user, ctx.session.id, at);
}

void U1Backend::emit_storage(const SessionState& ctx, ApiOp op, SimTime at,
                             const TraceRecord& partial) {
  TraceRecord r = partial;
  r.t = at;
  r.type = RecordType::kStorage;
  r.machine = ctx.session.api_machine;
  r.process = ctx.session.api_process;
  r.user = ctx.session.user;
  r.session = ctx.session.id;
  r.api_op = op;
  sink_->append(r);
}

void U1Backend::emit_storage_done(const SessionState& ctx, ApiOp op,
                                  SimTime start, SimTime end,
                                  const TraceRecord& partial) {
  TraceRecord r = partial;
  r.t = end;
  r.type = RecordType::kStorageDone;
  r.machine = ctx.session.api_machine;
  r.process = ctx.session.api_process;
  r.user = ctx.session.user;
  r.session = ctx.session.id;
  r.api_op = op;
  r.duration = end - start;
  sink_->append(r);
}

void U1Backend::publish_change(const SessionState& ctx,
                               VolumeEvent::Kind kind, VolumeId volume,
                               NodeId node, SimTime at) {
  // Only volumes with shares have simultaneously-interested clients; other
  // changes are picked up via generations on reconnect (§3.4.2).
  if (!shared_volumes_.contains(volume)) return;
  if (injector_ != nullptr && injector_->mq_drops(at)) {
    ++stats_.notifications_dropped;
    return;
  }
  VolumeEvent event;
  event.kind = kind;
  event.affected_user = ctx.session.user;
  event.volume = volume;
  event.node = node;
  event.origin_process = ctx.session.api_process;
  event.at = at;
  mq_.publish(event);
}

Response U1Backend::do_connect(const Request& q) {
  const UserId user = q.user;
  const SimTime now = q.now;
  const auto placed =
      fleet_.place_session(config_.session_cap_per_process, now);
  if (!placed) {
    // Load shed: no live process with spare capacity. The balancer tells
    // the client to come back later without ever engaging auth.
    ++stats_.shed_connects;
    emit_session_event(MachineId{}, ProcessId{}, user, SessionId{},
                       SessionEvent::kTryAgain, now);
    return make_response(q.op, Status::kTryAgain, now + kApiOverhead);
  }
  const ServerFleet::Placement placement = *placed;
  const SessionId sid{next_session_};
  next_session_ += config_.session_id_stride;

  // Authenticate (Table 2): API server contacts the Canonical auth
  // service; the token is cached per API server afterwards.
  emit_session_event(placement.machine, placement.process, user, sid,
                     SessionEvent::kAuthRequest, now);
  store_.clear_touched();  // auth RPC hits no metadata shard
  SimTime t = run_rpc_at(RpcOp::kGetUserIdFromToken, placement.machine,
                         placement.process, user, sid, now);

  bool ok;
  if (banned_users_.contains(user)) {
    ++stats_.auth_failures;
    emit_session_event(placement.machine, placement.process, user, sid,
                       SessionEvent::kAuthFail, t);
    fleet_.end_session(placement.machine, placement.process);
    return make_response(q.op, Status::kError, t);
  }
  // Auth-service brownout: the SSO backend times out before any token
  // work happens (indistinguishable from a failed verify to the client).
  if (injector_ != nullptr && injector_->auth_brownout_fails(t)) {
    ++stats_.auth_failures;
    emit_session_event(placement.machine, placement.process, user, sid,
                       SessionEvent::kAuthFail, t);
    fleet_.end_session(placement.machine, placement.process);
    return make_response(q.op, Status::kError, t);
  }
  const auto tok_it = user_tokens_.find(user);
  TokenId token;
  if (tok_it == user_tokens_.end()) {
    // First contact: exchange credentials for a fresh token.
    const auto issued = auth_.issue_token(user, t);
    ok = issued.has_value();
    if (ok) {
      token = issued->id;
      user_tokens_.emplace(user, token);
    }
  } else {
    token = tok_it->second;
    // A new session always verifies against the Canonical auth service
    // (§3.4.1); the per-API-server token cache only short-circuits checks
    // *during* an established session.
    (void)token_cache_.get(token);
    ok = auth_.verify_token(token, t).has_value();
  }

  if (!ok) {
    ++stats_.auth_failures;
    emit_session_event(placement.machine, placement.process, user, sid,
                       SessionEvent::kAuthFail, t);
    fleet_.end_session(placement.machine, placement.process);
    return make_response(q.op, Status::kError, t);
  }
  token_cache_.put(token, user);
  emit_session_event(placement.machine, placement.process, user, sid,
                     SessionEvent::kAuthOk, t);

  SessionState state;
  state.session.id = sid;
  state.session.user = user;
  state.session.api_machine = placement.machine;
  state.session.api_process = placement.process;
  state.session.started_at = t;
  state.token = token;
  // Per-session wire speed (residential link), log-normal around medians.
  auto draw_bw = [&](double median) {
    const double u1v = 1.0 - rng_.uniform();
    const double u2 = rng_.uniform();
    const double z =
        std::sqrt(-2.0 * std::log(u1v)) * std::cos(2 * M_PI * u2);
    return median * std::exp(config_.bandwidth_sigma * z);
  };
  state.up_bw = std::max(8.0 * 1024, draw_bw(config_.upload_bytes_per_sec_median));
  state.down_bw =
      std::max(16.0 * 1024, draw_bw(config_.download_bytes_per_sec_median));

  emit_session_event(placement.machine, placement.process, user, sid,
                     SessionEvent::kOpen, t);
  sessions_.emplace(sid, std::move(state));
  user_sessions_[user].push_back(sid);
  ++stats_.sessions_opened;
  Response res = make_response(q.op, Status::kOk, t);
  res.session = sid;
  return res;
}

Response U1Backend::do_disconnect(const Request& q) {
  const SessionId session = q.session;
  const SimTime now = q.now;
  auto* statep = find_session(session);
  if (statep == nullptr) {
    // Already dropped by a crash/outage; completion time is still `now`.
    return make_response(q.op, Status::kError, now);
  }
  auto& state = *statep;
  state.session.ended_at = now;
  emit_session_event(state.session.api_machine, state.session.api_process,
                     state.session.user, session, SessionEvent::kClose, now,
                     now - state.session.started_at);
  fleet_.end_session(state.session.api_machine, state.session.api_process);
  auto& list = user_sessions_[state.session.user];
  list.erase(std::remove(list.begin(), list.end(), session), list.end());
  sessions_.erase(session);
  ++stats_.sessions_closed;
  return make_response(q.op, Status::kOk, now);
}

Response U1Backend::do_simple_meta(const Request& q) {
  const SimTime now = q.now;
  auto* ctxp = find_session(q.session);
  if (ctxp == nullptr) return make_response(q.op, Status::kError, now);
  auto& ctx = *ctxp;
  SimTime end;
  switch (q.op) {
    case ProtoOp::kListVolumes:
      emit_storage(ctx, ApiOp::kListVolumes, now, {});
      (void)store_.list_volumes(ctx.session.user);
      end = run_rpc(RpcOp::kListVolumes, ctx, now);
      emit_storage_done(ctx, ApiOp::kListVolumes, now, end, {});
      break;
    case ProtoOp::kListShares:
      emit_storage(ctx, ApiOp::kListShares, now, {});
      (void)store_.list_shares(ctx.session.user);
      end = run_rpc(RpcOp::kListShares, ctx, now);
      emit_storage_done(ctx, ApiOp::kListShares, now, end, {});
      break;
    default:  // kQuerySetCaps: pure API-server work, no DAL RPC
      emit_storage(ctx, ApiOp::kQuerySetCaps, now, {});
      end = now + kApiOverhead;
      emit_storage_done(ctx, ApiOp::kQuerySetCaps, now, end, {});
      break;
  }
  return make_response(q.op, Status::kOk, end);
}

Response U1Backend::do_get_delta(const Request& q) {
  const VolumeId volume = q.volume;
  const std::uint64_t since_generation = q.since_generation;
  const SimTime now = q.now;
  auto* ctxp = find_session(q.session);
  if (ctxp == nullptr) return make_response(q.op, Status::kError, now);
  auto& ctx = *ctxp;
  TraceRecord partial;
  partial.volume = volume;
  emit_storage(ctx, ApiOp::kGetDelta, now, partial);
  // Clients track generations and are normally almost in sync: a delta
  // request covers only the most recent changes, and the shard's
  // generation index walks just those, not the whole volume.
  std::uint64_t since = since_generation;
  if (since == 0) {
    const Shard& shard = store_.shard(store_.shard_of(ctx.session.user));
    if (const Volume* vol = shard.find_volume(volume)) {
      since = vol->generation > 8 ? vol->generation - 8 : 0;
    }
  }
  (void)store_.get_delta(ctx.session.user, volume, since);
  const SimTime end = run_rpc(RpcOp::kGetDelta, ctx, now);
  emit_storage_done(ctx, ApiOp::kGetDelta, now, end, partial);
  return make_response(q.op, Status::kOk, end);
}

Response U1Backend::do_rescan_from_scratch(const Request& q) {
  const VolumeId volume = q.volume;
  const SimTime now = q.now;
  auto* ctxp = find_session(q.session);
  if (ctxp == nullptr) return make_response(q.op, Status::kError, now);
  auto& ctx = *ctxp;
  TraceRecord partial;
  partial.volume = volume;
  emit_storage(ctx, ApiOp::kRescanFromScratch, now, partial);
  (void)store_.get_from_scratch(ctx.session.user, volume);
  const SimTime end = run_rpc(RpcOp::kGetFromScratch, ctx, now);
  emit_storage_done(ctx, ApiOp::kRescanFromScratch, now, end, partial);
  return make_response(q.op, Status::kOk, end);
}

Response U1Backend::do_make(const Request& q) {
  const bool is_file = q.op == ProtoOp::kMakeFile;
  const VolumeId volume = q.volume;
  const NodeId parent = q.parent;
  const SimTime now = q.now;
  auto* ctxp = find_session(q.session);
  if (ctxp == nullptr) return make_response(q.op, Status::kError, now);
  auto& ctx = *ctxp;
  ctx.session.storage_ops++;
  TraceRecord partial;
  partial.volume = volume;
  partial.parent = parent;
  if (is_file) {
    partial.label = symbols_.intern(q.extension_view());
  } else {
    partial.is_dir = true;
  }
  emit_storage(ctx, ApiOp::kMake, now, partial);
  if (write_rejected(ctx, now)) {
    TraceRecord failed = partial;
    failed.failed = true;
    emit_storage_done(ctx, ApiOp::kMake, now, now + kApiOverhead, failed);
    return make_response(q.op, Status::kError, now + kApiOverhead);
  }
  const Node node =
      is_file ? store_.make_file(ctx.session.user, volume, parent,
                                 q.name_hash_view(), q.extension_view(), now)
              : store_.make_dir(ctx.session.user, volume, parent,
                                q.name_hash_view(), now);
  const SimTime end =
      run_rpc(is_file ? RpcOp::kMakeFile : RpcOp::kMakeDir, ctx, now);
  partial.node = node.id;
  emit_storage_done(ctx, ApiOp::kMake, now, end, partial);
  publish_change(ctx, VolumeEvent::Kind::kNodeCreated, volume, node.id, end);
  Response res = make_response(q.op, Status::kOk, end);
  res.node = node.id;
  return res;
}

Response U1Backend::do_unlink(const Request& q) {
  const NodeId node = q.node;
  const SimTime now = q.now;
  auto* ctxp = find_session(q.session);
  if (ctxp == nullptr) return make_response(q.op, Status::kError, now);
  auto& ctx = *ctxp;
  ctx.session.storage_ops++;
  const auto before = store_.get_node(ctx.session.user, node);
  TraceRecord partial;
  partial.node = node;
  if (before) {
    partial.volume = before->volume;
    partial.parent = before->parent;
    partial.is_dir = before->is_dir();
    partial.label = symbols_.intern(before->extension);
    partial.size_bytes = before->size_bytes;
    partial.content = before->content;
  }
  emit_storage(ctx, ApiOp::kUnlink, now, partial);
  if (!before || write_rejected(ctx, now)) {
    TraceRecord failed = partial;
    failed.failed = true;
    emit_storage_done(ctx, ApiOp::kUnlink, now, now + kApiOverhead, failed);
    return make_response(q.op, Status::kError, now + kApiOverhead);
  }
  const auto dead = store_.unlink_node(ctx.session.user, node);
  SimTime end = run_rpc(RpcOp::kUnlinkNode, ctx, now);
  // The API server finishes by deleting dead blobs from Amazon S3 (§3.2).
  for (const ContentInfo& blob : dead) {
    s3_.remove(blob.id);
    store_.purge_content(blob.id);
    end = s3_latency(end);
  }
  emit_storage_done(ctx, ApiOp::kUnlink, now, end, partial);
  publish_change(ctx, VolumeEvent::Kind::kNodeDeleted, partial.volume, node,
                 end);
  return make_response(q.op, Status::kOk, end);
}

Response U1Backend::do_move(const Request& q) {
  const NodeId node = q.node;
  const NodeId new_parent = q.parent;
  const SimTime now = q.now;
  auto* ctxp = find_session(q.session);
  if (ctxp == nullptr) return make_response(q.op, Status::kError, now);
  auto& ctx = *ctxp;
  ctx.session.storage_ops++;
  TraceRecord partial;
  partial.node = node;
  const auto before = store_.get_node(ctx.session.user, node);
  if (before) partial.volume = before->volume;
  emit_storage(ctx, ApiOp::kMove, now, partial);
  if (!before || write_rejected(ctx, now)) {
    TraceRecord failed = partial;
    failed.failed = true;
    emit_storage_done(ctx, ApiOp::kMove, now, now + kApiOverhead, failed);
    return make_response(q.op, Status::kError, now + kApiOverhead);
  }
  store_.move(ctx.session.user, node, new_parent);
  const SimTime end = run_rpc(RpcOp::kMove, ctx, now);
  emit_storage_done(ctx, ApiOp::kMove, now, end, partial);
  publish_change(ctx, VolumeEvent::Kind::kNodeUpdated, partial.volume, node,
                 end);
  return make_response(q.op, Status::kOk, end);
}

Response U1Backend::do_create_udf(const Request& q) {
  const SimTime now = q.now;
  auto* ctxp = find_session(q.session);
  if (ctxp == nullptr) return make_response(q.op, Status::kError, now);
  auto& ctx = *ctxp;
  ctx.session.storage_ops++;
  emit_storage(ctx, ApiOp::kCreateUDF, now, {});
  if (write_rejected(ctx, now)) {
    TraceRecord failed;
    failed.failed = true;
    emit_storage_done(ctx, ApiOp::kCreateUDF, now, now + kApiOverhead, failed);
    return make_response(q.op, Status::kError, now + kApiOverhead);
  }
  const Volume vol = store_.create_udf(ctx.session.user, now);
  const SimTime end = run_rpc(RpcOp::kCreateUDF, ctx, now);
  TraceRecord done;
  done.volume = vol.id;
  emit_storage_done(ctx, ApiOp::kCreateUDF, now, end, done);
  Response res = make_response(q.op, Status::kOk, end);
  res.volume = vol.id;
  res.root_dir = vol.root_dir;
  return res;
}

Response U1Backend::do_delete_volume(const Request& q) {
  const VolumeId volume = q.volume;
  const SimTime now = q.now;
  auto* ctxp = find_session(q.session);
  if (ctxp == nullptr) return make_response(q.op, Status::kError, now);
  auto& ctx = *ctxp;
  ctx.session.storage_ops++;
  TraceRecord partial;
  partial.volume = volume;
  emit_storage(ctx, ApiOp::kDeleteVolume, now, partial);
  if (write_rejected(ctx, now)) {
    TraceRecord failed = partial;
    failed.failed = true;
    emit_storage_done(ctx, ApiOp::kDeleteVolume, now, now + kApiOverhead,
                      failed);
    return make_response(q.op, Status::kError, now + kApiOverhead);
  }
  const auto dead = store_.delete_volume(ctx.session.user, volume);
  SimTime end = run_rpc(RpcOp::kDeleteVolume, ctx, now);
  for (const ContentInfo& blob : dead) {
    s3_.remove(blob.id);
    store_.purge_content(blob.id);
    end = s3_latency(end);
  }
  shared_volumes_.erase(volume);
  emit_storage_done(ctx, ApiOp::kDeleteVolume, now, end, partial);
  publish_change(ctx, VolumeEvent::Kind::kVolumeDeleted, volume, NodeId{},
                 end);
  return make_response(q.op, Status::kOk, end);
}

ContentId U1Backend::effective_content(const ContentId& content, NodeId node) {
  if (config_.enable_dedup) return content;
  // Dedup ablation: uniquify so every upload stores a distinct blob.
  Sha1 h;
  h.update(content.hex());
  h.update(node.str());
  h.update(std::to_string(dedup_off_seq_++));
  return h.finish();
}

Response U1Backend::do_upload(const Request& q) {
  const NodeId node = q.node;
  const ContentId& content = q.content;
  const std::uint64_t size_bytes = q.size_bytes;
  const bool is_update = q.is_update();
  const SimTime now = q.now;
  auto* ctxp = find_session(q.session);
  if (ctxp == nullptr) return make_response(q.op, Status::kError, now);
  auto& ctx = *ctxp;
  ctx.session.storage_ops++;
  const auto target = store_.get_node(ctx.session.user, node);
  TraceRecord partial;
  partial.node = node;
  partial.size_bytes = size_bytes;
  partial.content = content;
  partial.is_update = is_update;
  if (target) {
    partial.volume = target->volume;
    partial.label = symbols_.intern(target->extension);
  }
  emit_storage(ctx, ApiOp::kPutContent, now, partial);
  if (!target || target->is_dir() || size_bytes == 0 ||
      write_rejected(ctx, now)) {
    TraceRecord failed = partial;
    failed.failed = true;
    emit_storage_done(ctx, ApiOp::kPutContent, now, now + kApiOverhead,
                      failed);
    return make_response(q.op, Status::kError, now + kApiOverhead);
  }

  const ContentId eff = effective_content(content, node);
  ++stats_.uploads;

  SimTime t = now;
  bool dedup_hit = false;
  std::uint64_t wire = 0;

  if (config_.enable_dedup) {
    // The client sends the SHA-1 first; the server checks for the blob.
    const auto reusable = store_.get_reusable_content(eff, size_bytes);
    t = run_rpc(RpcOp::kGetReusableContent, ctx, t);
    dedup_hit = reusable.has_value();
  }

  if (dedup_hit) {
    // Logical link only; no data crosses the wire (§3.3).
    store_.make_content(ctx.session.user, node, eff, size_bytes);
    t = run_rpc(RpcOp::kMakeContent, ctx, t);
    ++stats_.dedup_hits;
  } else {
    wire = size_bytes;
    if (wire > kMultipartChunkBytes) {
      // Multipart upload state machine (appendix A, Fig. 17).
      const UploadJob job =
          store_.make_uploadjob(ctx.session.user, node, eff, wire, t);
      t = run_rpc(RpcOp::kMakeUploadJob, ctx, t);
      const std::string mpu = s3_.initiate_multipart(eff, t);
      t = s3_latency(t);
      store_.set_uploadjob_multipart_id(ctx.session.user, job.id, mpu);
      t = run_rpc(RpcOp::kSetUploadJobMultipartId, ctx, t);
      const PartsOutcome parts = push_parts(ctx, job.id, mpu, 0, wire, t);
      t = parts.t;
      bool complete_failed = false;
      if (parts.ok && injector_ != nullptr && injector_->s3_request_fails(t)) {
        ++stats_.s3_errors;
        complete_failed = true;
      }
      if (!parts.ok || complete_failed) {
        // Cut mid-flight: the committed parts stay in the uploadjob row
        // and the open S3 multipart, ready for resume_upload().
        stats_.upload_bytes_wire += parts.sent;
        ++stats_.interrupted_uploads;
        TraceRecord failed = partial;
        failed.failed = true;
        failed.transferred_bytes = parts.sent;
        emit_storage_done(ctx, ApiOp::kPutContent, now, t, failed);
        Response res = make_response(q.op, Status::kInterrupted, t);
        res.transferred_bytes = parts.sent;
        res.committed_bytes = parts.sent;
        res.job = job.id;
        return res;
      }
      s3_.complete_multipart(mpu, t);
      t = s3_latency(t);
      const auto dead =
          store_.make_content(ctx.session.user, node, eff, size_bytes);
      t = run_rpc(RpcOp::kMakeContent, ctx, t);
      store_.delete_uploadjob(ctx.session.user, job.id);
      t = run_rpc(RpcOp::kDeleteUploadJob, ctx, t);
      if (dead) {
        s3_.remove(dead->id);
        store_.purge_content(dead->id);
      }
    } else {
      // Single-shot upload: no uploadjob row, so an interruption means a
      // from-scratch retry (nil job in the result).
      const SimTime arrive =
          t + from_seconds(static_cast<double>(wire) / ctx.up_bw);
      const bool cut = crash_cut(ctx, t, arrive) != nullptr;
      bool s3_fail = false;
      SimTime fail_end = arrive;
      if (!cut && injector_ != nullptr &&
          injector_->s3_request_fails(arrive)) {
        ++stats_.s3_errors;
        s3_fail = true;
        fail_end = s3_latency(arrive);
      }
      if (cut || s3_fail) {
        ++stats_.interrupted_uploads;
        TraceRecord failed = partial;
        failed.failed = true;
        emit_storage_done(ctx, ApiOp::kPutContent, now, fail_end, failed);
        // Nil job: single-shot uploads leave nothing to resume.
        return make_response(q.op, Status::kInterrupted, fail_end);
      }
      t = arrive;
      s3_.put(eff, size_bytes, t);
      t = s3_latency(t);
      const auto dead =
          store_.make_content(ctx.session.user, node, eff, size_bytes);
      t = run_rpc(RpcOp::kMakeContent, ctx, t);
      if (dead) {
        s3_.remove(dead->id);
        store_.purge_content(dead->id);
      }
    }
  }

  stats_.upload_bytes_logical += size_bytes;
  stats_.upload_bytes_wire += wire;
  TraceRecord done = partial;
  done.transferred_bytes = wire;
  done.deduplicated = dedup_hit;
  emit_storage_done(ctx, ApiOp::kPutContent, now, t, done);
  publish_change(ctx,
                 is_update ? VolumeEvent::Kind::kNodeUpdated
                           : VolumeEvent::Kind::kNodeCreated,
                 partial.volume, node, t);
  Response res = make_response(q.op, Status::kOk, t);
  if (dedup_hit) res.flags |= kResponseDeduplicated;
  res.transferred_bytes = wire;
  res.committed_bytes = wire;
  return res;
}

U1Backend::PartsOutcome U1Backend::push_parts(SessionState& ctx,
                                              UploadJobId job,
                                              const std::string& mpu,
                                              std::uint64_t offset,
                                              std::uint64_t total, SimTime t) {
  PartsOutcome out;
  std::uint64_t remaining = total - offset;
  while (remaining > 0) {
    const std::uint64_t chunk = std::min(remaining, kMultipartChunkBytes);
    const SimTime arrive =
        t + from_seconds(static_cast<double>(chunk) / ctx.up_bw);
    // A crash/outage hitting this session's process mid-transfer kills
    // the connection; parts already added to the job row survive.
    if (const FaultEvent* cut = crash_cut(ctx, t, arrive)) {
      out.interrupted = true;
      out.t = cut->at;
      return out;
    }
    if (injector_ != nullptr && injector_->s3_request_fails(arrive)) {
      ++stats_.s3_errors;
      out.interrupted = true;
      out.t = s3_latency(arrive);
      return out;
    }
    t = arrive;
    s3_.upload_part(mpu, chunk);
    t = s3_latency(t);
    store_.add_part_to_uploadjob(ctx.session.user, job, chunk, t);
    t = run_rpc(RpcOp::kAddPartToUploadJob, ctx, t);
    out.sent += chunk;
    remaining -= chunk;
  }
  out.ok = true;
  out.t = t;
  return out;
}

Response U1Backend::do_resume_upload(const Request& q) {
  const NodeId node = q.node;
  const ContentId& content = q.content;
  const std::uint64_t size_bytes = q.size_bytes;
  const bool is_update = q.is_update();
  const UploadJobId job_id = q.job;
  const SimTime now = q.now;
  auto* ctxp = find_session(q.session);
  if (ctxp == nullptr) return make_response(q.op, Status::kError, now);
  auto& ctx = *ctxp;
  ctx.session.storage_ops++;
  const auto target = store_.get_node(ctx.session.user, node);
  TraceRecord partial;
  partial.node = node;
  partial.size_bytes = size_bytes;
  partial.content = content;
  partial.is_update = is_update;
  if (target) {
    partial.volume = target->volume;
    partial.label = symbols_.intern(target->extension);
  }
  emit_storage(ctx, ApiOp::kPutContent, now, partial);

  const auto fail_done = [&](SimTime end, std::uint64_t sent) {
    TraceRecord failed = partial;
    failed.failed = true;
    failed.transferred_bytes = sent;
    emit_storage_done(ctx, ApiOp::kPutContent, now, end, failed);
  };

  if (!target || target->is_dir()) {
    // The node vanished while the client was offline; nothing to resume.
    fail_done(now + kApiOverhead, 0);
    return make_response(q.op, Status::kError, now + kApiOverhead);
  }
  if (write_rejected(ctx, now)) {
    // Transient shard-failover rejection: keep the job, retry later.
    fail_done(now + kApiOverhead, 0);
    Response res =
        make_response(q.op, Status::kInterrupted, now + kApiOverhead);
    res.job = job_id;
    return res;
  }

  // GetUploadJob: does the server still hold our committed parts?
  const auto job = store_.get_uploadjob(ctx.session.user, job_id);
  SimTime t = run_rpc(RpcOp::kGetUploadJob, ctx, now);
  const bool usable = job && job->node == node &&
                      !job->multipart_id.empty() &&
                      s3_.multipart_state(job->multipart_id).has_value();
  if (!usable) {
    // GC reclaimed it (or the S3 multipart is gone): clean any leftover
    // row and tell the client to start over from byte zero.
    if (job) {
      store_.delete_uploadjob(ctx.session.user, job_id);
      t = run_rpc(RpcOp::kDeleteUploadJob, ctx, t);
    }
    fail_done(t, 0);
    return make_response(q.op, Status::kError, t);
  }

  const std::uint64_t offset = job->bytes_received;
  const std::uint64_t total = job->declared_size;
  store_.touch_uploadjob(ctx.session.user, job_id, t);
  t = run_rpc(RpcOp::kTouchUploadJob, ctx, t);

  const PartsOutcome parts =
      push_parts(ctx, job_id, job->multipart_id, offset, total, t);
  t = parts.t;
  bool complete_failed = false;
  if (parts.ok && injector_ != nullptr && injector_->s3_request_fails(t)) {
    ++stats_.s3_errors;
    complete_failed = true;
  }
  stats_.upload_bytes_wire += parts.sent;
  if (!parts.ok || complete_failed) {
    ++stats_.interrupted_uploads;
    fail_done(t, parts.sent);
    Response res = make_response(q.op, Status::kInterrupted, t);
    res.transferred_bytes = parts.sent;
    res.committed_bytes = offset + parts.sent;
    res.job = job_id;
    return res;
  }

  s3_.complete_multipart(job->multipart_id, t);
  t = s3_latency(t);
  const auto dead = store_.make_content(ctx.session.user, node, job->content,
                                        size_bytes);
  t = run_rpc(RpcOp::kMakeContent, ctx, t);
  store_.delete_uploadjob(ctx.session.user, job_id);
  t = run_rpc(RpcOp::kDeleteUploadJob, ctx, t);
  if (dead) {
    s3_.remove(dead->id);
    store_.purge_content(dead->id);
  }
  ++stats_.resumed_uploads;
  stats_.upload_bytes_logical += size_bytes;
  TraceRecord done = partial;
  done.transferred_bytes = parts.sent;
  emit_storage_done(ctx, ApiOp::kPutContent, now, t, done);
  publish_change(ctx,
                 is_update ? VolumeEvent::Kind::kNodeUpdated
                           : VolumeEvent::Kind::kNodeCreated,
                 partial.volume, node, t);
  Response res = make_response(q.op, Status::kOk, t);
  res.transferred_bytes = parts.sent;
  res.committed_bytes = total;
  return res;
}

Response U1Backend::do_download(const Request& q) {
  const NodeId node = q.node;
  const SimTime now = q.now;
  auto* ctxp = find_session(q.session);
  if (ctxp == nullptr) return make_response(q.op, Status::kError, now);
  auto& ctx = *ctxp;
  ctx.session.storage_ops++;
  const auto target = store_.get_node(ctx.session.user, node);
  TraceRecord partial;
  partial.node = node;
  if (target) {
    partial.volume = target->volume;
    partial.label = symbols_.intern(target->extension);
    partial.size_bytes = target->size_bytes;
    partial.content = target->content;
  }
  emit_storage(ctx, ApiOp::kGetContent, now, partial);
  SimTime t = run_rpc(RpcOp::kGetNode, ctx, now);
  if (!target || target->is_dir() || target->size_bytes == 0) {
    TraceRecord failed = partial;
    failed.failed = true;
    emit_storage_done(ctx, ApiOp::kGetContent, now, t, failed);
    return make_response(q.op, Status::kError, t);
  }
  // Single S3 request; the API process streams it to the client (§A).
  if (injector_ != nullptr && injector_->s3_request_fails(t)) {
    ++stats_.s3_errors;
    const SimTime end = s3_latency(t);
    TraceRecord failed = partial;
    failed.failed = true;
    emit_storage_done(ctx, ApiOp::kGetContent, now, end, failed);
    return make_response(q.op, Status::kError, end);
  }
  t = s3_latency(t);
  const SimTime arrive =
      t + from_seconds(static_cast<double>(target->size_bytes) / ctx.down_bw);
  if (const FaultEvent* cut = crash_cut(ctx, t, arrive)) {
    TraceRecord failed = partial;
    failed.failed = true;
    emit_storage_done(ctx, ApiOp::kGetContent, now, cut->at, failed);
    return make_response(q.op, Status::kError, cut->at);
  }
  t = arrive;
  ++stats_.downloads;
  stats_.download_bytes += target->size_bytes;
  TraceRecord done = partial;
  done.transferred_bytes = target->size_bytes;
  emit_storage_done(ctx, ApiOp::kGetContent, now, t, done);
  Response res = make_response(q.op, Status::kOk, t);
  res.transferred_bytes = target->size_bytes;
  return res;
}

Response U1Backend::do_share_volume(const Request& q) {
  store_.share_volume(q.user, q.volume, q.peer, q.now);
  shared_volumes_.insert(q.volume);
  return make_response(q.op, Status::kOk, q.now);
}

void U1Backend::maintenance(SimTime now) {
  // Weekly uploadjob GC (appendix A): collect jobs idle for > 1 week and
  // abort their in-flight S3 multiparts so the parts stop costing money.
  if (now - last_gc_ >= kDay) {
    last_gc_ = now;
    for (const UploadJob& job : store_.gc_uploadjobs(now - kWeek)) {
      if (!job.multipart_id.empty()) s3_.abort_multipart(job.multipart_id);
    }
  }
  // Occasional process migration for load balancing (§3.4).
  if (now - last_migration_ >= 6 * kHour) {
    last_migration_ = now;
    fleet_.migrate_processes(0.05);
  }
}

void U1Backend::admin_purge_user(UserId user, SimTime now) {
  // 1. Delete the fraudulent account and revoke its credentials so any
  //    further connects fail (the paper: engineers "manually handled DDoS
  //    by means of deleting fraudulent users and the content").
  banned_users_.insert(user);
  auth_.revoke_user_tokens(user);
  const auto tok = user_tokens_.find(user);
  if (tok != user_tokens_.end()) {
    token_cache_.erase(tok->second);
    user_tokens_.erase(tok);
  }
  // 2. Kick live sessions. A session that was still mid-handshake when
  //    the operator acted closes right after it opened, never before.
  const auto sess_it = user_sessions_.find(user);
  if (sess_it != user_sessions_.end()) {
    const std::vector<SessionId> open = sess_it->second;
    for (const SessionId sid : open) {
      const SessionState* state = find_session(sid);
      if (state == nullptr) continue;  // already dropped by a fault
      disconnect(sid, std::max(now, state->session.started_at));
    }
  }
  // 3. Delete the distributed content (root-volume children).
  if (store_.has_user(user)) {
    const NodeId root = store_.get_root(user);
    const Shard& shard = store_.shard(store_.shard_of(user));
    for (const NodeId child : shard.children_of(root)) {
      for (const ContentInfo& blob : store_.unlink_node(user, child)) {
        s3_.remove(blob.id);
        store_.purge_content(blob.id);
      }
    }
  }
}

// --- fault injection ---------------------------------------------------------

bool U1Backend::write_rejected(const SessionState& ctx, SimTime now) {
  if (injector_ == nullptr) return false;
  const ShardId s = store_.shard_of(ctx.session.user);
  if (!injector_->shard_write_rejected(s.value, now)) return false;
  ++stats_.write_rejects;
  return true;
}

const FaultEvent* U1Backend::crash_cut(const SessionState& ctx, SimTime from,
                                       SimTime until) const {
  if (injector_ == nullptr) return nullptr;
  const FaultEvent* best = nullptr;
  for (const FaultEvent& ev : injector_->schedule()) {
    if (!ev.begin || ev.at <= from || ev.at > until) continue;
    bool hits = false;
    if (ev.kind == FaultKind::kMachineOutage) {
      hits = ev.machine == ctx.session.api_machine.value;
    } else if (ev.kind == FaultKind::kProcessCrash) {
      const auto it = fault_victims_.find(ev.id);
      hits = it != fault_victims_.end() &&
             it->second == ctx.session.api_process;
    }
    if (hits && (best == nullptr || ev.at < best->at)) best = &ev;
  }
  return best;
}

void U1Backend::set_fault_injector(FaultInjector* injector) {
  injector_ = injector;
  fault_victims_.clear();
  if (injector_ == nullptr) return;
  for (const FaultEvent& ev : injector_->schedule()) {
    if (ev.kind != FaultKind::kProcessCrash || !ev.begin) continue;
    const auto procs = fleet_.live_processes_on(MachineId{ev.machine});
    if (procs.empty()) continue;
    fault_victims_.emplace(ev.id, procs[ev.slot % procs.size()]);
  }
}

void U1Backend::drop_sessions(
    SimTime now, const std::function<bool(const SessionState&)>& pred) {
  std::vector<SessionId> doomed;
  for (const auto& [sid, state] : sessions_) {
    if (pred(state)) doomed.push_back(sid);
  }
  // Hash-map order is not deterministic across layouts; trace order is.
  std::sort(doomed.begin(), doomed.end(),
            [](SessionId a, SessionId b) { return a.value < b.value; });
  for (const SessionId sid : doomed) {
    SessionState& state = sessions_.at(sid);
    state.session.ended_at = now;
    emit_session_event(state.session.api_machine, state.session.api_process,
                       state.session.user, sid, SessionEvent::kDropped, now,
                       now - state.session.started_at);
    fleet_.end_session(state.session.api_machine, state.session.api_process);
    auto& list = user_sessions_[state.session.user];
    list.erase(std::remove(list.begin(), list.end(), sid), list.end());
    sessions_.erase(sid);
    ++stats_.sessions_dropped;
  }
}

void U1Backend::apply_fault(const FaultEvent& event, SimTime now,
                            bool emit_record) {
  switch (event.kind) {
    case FaultKind::kProcessCrash: {
      const auto it = fault_victims_.find(event.id);
      if (it == fault_victims_.end()) break;
      if (event.begin) {
        fleet_.kill_process(it->second);
        const ProcessId victim = it->second;
        drop_sessions(now, [victim](const SessionState& st) {
          return st.session.api_process == victim;
        });
      } else {
        // Respawn at `now` so the slow-start ramp (when configured)
        // re-admits the process gradually instead of flooding it.
        fleet_.respawn_process(it->second, now);
      }
      break;
    }
    case FaultKind::kMachineOutage: {
      const MachineId m{event.machine};
      if (event.begin) {
        fleet_.kill_machine(m);
        drop_sessions(now, [m](const SessionState& st) {
          return st.session.api_machine == m;
        });
      } else {
        fleet_.restore_machine(m, now);
      }
      break;
    }
    case FaultKind::kShardFailover:
    case FaultKind::kS3Brownout:
    case FaultKind::kMqDrop:
    case FaultKind::kAuthBrownout:
      // Window faults act through the injector's inline lookups.
      break;
  }
  if (emit_record) {
    TraceRecord r;
    r.t = now;
    r.type = RecordType::kFault;
    r.label = symbols_.intern(fault_label(event));
    r.machine = MachineId{event.machine};
    if (event.kind == FaultKind::kProcessCrash) {
      const auto it = fault_victims_.find(event.id);
      if (it != fault_victims_.end()) r.process = it->second;
    }
    r.shard = ShardId{event.shard};
    r.duration = event.duration;
    sink_->append(r);
  }
}

}  // namespace u1
