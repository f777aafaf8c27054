// U1Backend wires the whole datacenter of Fig. 1 together: load balancer,
// API server fleet, RPC workers, sharded metadata store, Amazon S3
// substitute, Canonical auth service and the RabbitMQ notification fabric.
// Client agents call the operation methods; every operation emits trace
// records (storage / storage_done / rpc / session) exactly as the real
// service logged them, and returns the virtual time at which it completed
// so callers can chain requests.
//
// Every operation flows through the protocol envelope (proto/envelope.hpp,
// DESIGN.md §9): the typed methods are thin wrappers that pack a Request
// and hand it to call(), the single dispatch the `u1d` socket server uses
// for frames off the wire — sim mode and server mode share one backend
// implementation and one serialization surface. With
// BackendConfig::wire_check on, call() additionally round-trips every
// Request/Response through the frame codec and verifies field-identical
// decode, so a simulation run doubles as an end-to-end codec proof.
//
// Time model: operations run to completion on the caller's timeline.
// Write RPCs serialize on their shard master (busy-window queueing, which
// produces the short-window shard load variance of Fig. 14); read RPCs hit
// the replica pair and do not queue behind writes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "auth/auth_service.hpp"
#include "auth/token_cache.hpp"
#include "cloudstore/object_store.hpp"
#include "fault/fault_injector.hpp"
#include "mq/message_queue.hpp"
#include "proto/entities.hpp"
#include "proto/envelope.hpp"
#include "server/fleet.hpp"
#include "store/metadata_store.hpp"
#include "store/service_time.hpp"
#include "trace/sink.hpp"
#include "trace/symbols.hpp"

namespace u1 {

struct BackendConfig {
  std::size_t shards = 10;          // paper: 10 master/slave shards
  FleetConfig fleet;                // paper: 6 machines, 8-16 procs each
  double auth_failure_rate = 0.0276;
  std::size_t token_cache_capacity = 65536;

  /// Client wire model: per-session bandwidth is log-normal around these
  /// medians (residential asymmetric links of the 2014 user base).
  double upload_bytes_per_sec_median = 350.0 * 1024;
  double download_bytes_per_sec_median = 1.2 * 1024 * 1024;
  double bandwidth_sigma = 0.8;

  /// One-way latency charged per S3 API interaction.
  double s3_latency_s_median = 0.025;

  /// File-based cross-user dedup (on in U1); off stores every copy.
  bool enable_dedup = true;

  /// Load shedding: a process at this many open sessions makes the
  /// balancer answer "try again" instead of accepting (0 = unlimited,
  /// the historical behavior).
  std::uint64_t session_cap_per_process = 0;

  /// Envelope-codec proof mode: call() round-trips every Request and
  /// Response through the wire frame codec and verifies the decode is
  /// field-identical before/after dispatch (throws std::logic_error on
  /// divergence). The trace must be byte-identical with this on or off —
  /// the equivalence tests assert exactly that.
  bool wire_check = false;

  /// Session-id namespace: ids are base, base+stride, base+2*stride, ...
  /// A multi-backend engine (one back-end per shard group) sets
  /// base = group+1, stride = group count, so session ids stay globally
  /// unique in the merged trace and analyzers keyed by SessionId never
  /// conflate sessions from different groups.
  std::uint64_t session_id_base = 1;
  std::uint64_t session_id_stride = 1;

  std::uint64_t seed = 0xc10ed;
};

struct BackendStats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t uploads = 0;
  std::uint64_t downloads = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t upload_bytes_logical = 0;
  std::uint64_t upload_bytes_wire = 0;
  std::uint64_t download_bytes = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t notifications = 0;

  // Degraded-mode accounting (all zero in a fault-free run).
  std::uint64_t sessions_dropped = 0;     // force-closed by crash/outage
  std::uint64_t shed_connects = 0;        // balancer said "try again"
  std::uint64_t interrupted_uploads = 0;  // transfers cut by a fault
  std::uint64_t resumed_uploads = 0;      // finished via resume_upload
  std::uint64_t write_rejects = 0;        // shard failover write rejections
  std::uint64_t s3_errors = 0;            // brownout request failures
  std::uint64_t notifications_dropped = 0;

  /// Aggregation across per-group backends (shard-parallel engine).
  BackendStats& operator+=(const BackendStats& other) noexcept {
    sessions_opened += other.sessions_opened;
    sessions_closed += other.sessions_closed;
    auth_failures += other.auth_failures;
    uploads += other.uploads;
    downloads += other.downloads;
    dedup_hits += other.dedup_hits;
    upload_bytes_logical += other.upload_bytes_logical;
    upload_bytes_wire += other.upload_bytes_wire;
    download_bytes += other.download_bytes;
    rpcs += other.rpcs;
    notifications += other.notifications;
    sessions_dropped += other.sessions_dropped;
    shed_connects += other.shed_connects;
    interrupted_uploads += other.interrupted_uploads;
    resumed_uploads += other.resumed_uploads;
    write_rejects += other.write_rejects;
    s3_errors += other.s3_errors;
    notifications_dropped += other.notifications_dropped;
    return *this;
  }
};

/// Handle returned to a freshly-registered client.
struct UserAccount {
  UserId user;
  VolumeId root_volume;
  NodeId root_dir;
};

class U1Backend {
 public:
  U1Backend(const BackendConfig& config, TraceSink& sink);

  // Non-copyable: owns the datacenter state.
  U1Backend(const U1Backend&) = delete;
  U1Backend& operator=(const U1Backend&) = delete;

  // --- the envelope dispatch --------------------------------------------------
  /// Executes one envelope request — THE operation entry point. Every
  /// typed method below packs a Request and lands here; `u1d` feeds
  /// frames off the wire into the same switch. Unknown ops come back
  /// with Status::kUnknownOp; a dead/foreign session is Status::kError.
  Response call(const Request& request);

  // --- provisioning (out of band, no trace records) -------------------------
  /// Typed convenience over ProtoOp::kRegisterUser: the response carries
  /// the root volume in `volume` and its root directory in `root_dir`.
  UserAccount register_user(UserId user, SimTime now);

  // --- session management (Table 2: Authenticate) ----------------------------
  /// kOk with `session` set, kTryAgain when load-shed (retry with
  /// backoff — not an auth failure), kError on auth failure.
  Response connect(UserId user, SimTime now);
  Response disconnect(SessionId session, SimTime now);
  bool session_open(SessionId session) const;

  // --- metadata operations -----------------------------------------------------
  Response list_volumes(SessionId session, SimTime now);
  Response list_shares(SessionId session, SimTime now);
  Response query_set_caps(SessionId session, SimTime now);
  Response get_delta(SessionId session, VolumeId volume,
                     std::uint64_t since_generation, SimTime now);
  Response rescan_from_scratch(SessionId session, VolumeId volume,
                               SimTime now);

  /// kOk responses carry the fresh node id in `node`.
  Response make_file(SessionId session, VolumeId volume, NodeId parent,
                     std::string_view name_hash, std::string_view extension,
                     SimTime now);
  Response make_dir(SessionId session, VolumeId volume, NodeId parent,
                    std::string_view name_hash, SimTime now);

  Response unlink(SessionId session, NodeId node, SimTime now);
  Response move(SessionId session, NodeId node, NodeId new_parent,
                SimTime now);

  /// kOk responses carry the new volume in `volume`/`root_dir`.
  Response create_udf(SessionId session, SimTime now);
  Response delete_volume(SessionId session, VolumeId volume, SimTime now);

  // --- data operations (appendix A upload FSM) -------------------------------
  /// Uploads `size_bytes` of content with the given SHA-1 to a file node.
  /// is_update marks a PutContent over a node that already had content
  /// (the paper's 10.05%-of-operations / 18.47%-of-traffic updates).
  /// kInterrupted means a fault cut the transfer mid-flight: when `job`
  /// is set the committed parts survive in the uploadjob row and the
  /// client can resume_upload(); a nil job means restart from scratch.
  Response upload(SessionId session, NodeId node, const ContentId& content,
                  std::uint64_t size_bytes, bool is_update, SimTime now);

  /// Re-enters the Fig. 17 uploadjob FSM at the last committed multipart
  /// part (GetUploadJob → TouchUploadJob → remaining AddPart calls →
  /// MakeContent). kError (not kInterrupted) means the job is gone
  /// (GC'd, mismatched or its S3 multipart vanished) and the client must
  /// re-upload from byte zero.
  Response resume_upload(SessionId session, NodeId node,
                         const ContentId& content, std::uint64_t size_bytes,
                         bool is_update, UploadJobId job, SimTime now);

  Response download(SessionId session, NodeId node, SimTime now);

  // --- sharing ------------------------------------------------------------------
  /// Grants another user access to a volume (out-of-band of Table 2's
  /// operation set; sharing in U1 was rare, §6.3).
  Response share_volume(UserId owner, VolumeId volume, UserId to,
                        SimTime now);

  // --- maintenance -----------------------------------------------------------
  /// Hourly/daily housekeeping: uploadjob GC (1-week cutoff) and process
  /// migration; invoked by the simulation loop.
  void maintenance(SimTime now);

  /// Manual DDoS response (§5.4): revoke the abused account's tokens,
  /// close its sessions and delete its content.
  void admin_purge_user(UserId user, SimTime now);

  /// Shard-parallel engine hook: re-points this backend's store at a
  /// shared dedup index (see MetadataStore::set_dedup_proxy).
  void set_dedup_proxy(DedupProxy* proxy) noexcept {
    store_.set_dedup_proxy(proxy);
  }

  /// Shard-parallel worker hook: sheds the setup-replay state a remote
  /// user leaves behind (their metadata node rows and this group's
  /// materialized S3 objects) without disturbing the global dedup
  /// registry or content pool. Workers call this right after replaying
  /// each remote user's bootstrap so the per-process RSS peak tracks the
  /// LOCAL slice instead of the whole cluster; release_remote_groups()
  /// later frees what remains. Never call it for users that will run
  /// in this process.
  void shed_remote_user_state(UserId user) {
    store_.shed_user_namespace(user);
    s3_.shed_objects();
  }

  // --- fault injection -------------------------------------------------------
  /// Arms the backend with a fault injector (nullptr disarms). Crash
  /// victims for the injector's whole schedule are resolved against the
  /// *initial* process layout here, so every engine and thread count
  /// picks identical victims.
  void set_fault_injector(FaultInjector* injector);

  /// Applies one scheduled fault window edge: crash/respawn a process,
  /// take out/restore a machine (dropping the pinned sessions); window
  /// kinds (brownouts, failover, MQ drops) only need the record — their
  /// effect is applied inline by the injector's window lookups.
  /// emit_record=false lets the shard-parallel engine apply state in
  /// every group but trace the incident once.
  void apply_fault(const FaultEvent& event, SimTime now, bool emit_record);

  // --- introspection -----------------------------------------------------------
  const BackendStats& stats() const noexcept { return stats_; }
  const MetadataStore& store() const noexcept { return store_; }
  const ObjectStore& s3() const noexcept { return s3_; }
  const AuthService& auth() const noexcept { return auth_; }
  const MessageQueue& notifications() const noexcept { return mq_; }
  const ServerFleet& fleet() const noexcept { return fleet_; }
  ServiceTimeModel& service_model() noexcept { return service_model_; }
  const BackendConfig& config() const noexcept { return config_; }
  /// Interner for the record label column (`ext`/`fault`). Eager (global
  /// ids) by default; the shard-parallel engine flips it to deferred so
  /// emit paths never touch the global table from a worker thread.
  GroupSymbols& symbols() noexcept { return symbols_; }

 private:
  struct SessionState {
    Session session;
    TokenId token;
    double up_bw = 0;    // bytes/s
    double down_bw = 0;  // bytes/s
  };

  /// The op switch behind call(); the do_* methods hold the actual
  /// operation implementations.
  Response dispatch(const Request& q);
  Response do_register_user(const Request& q);
  Response do_connect(const Request& q);
  Response do_disconnect(const Request& q);
  Response do_simple_meta(const Request& q);  // ListVolumes/Shares/SetCaps
  Response do_get_delta(const Request& q);
  Response do_rescan_from_scratch(const Request& q);
  Response do_make(const Request& q);  // MakeFile/MakeDir
  Response do_unlink(const Request& q);
  Response do_move(const Request& q);
  Response do_create_udf(const Request& q);
  Response do_delete_volume(const Request& q);
  Response do_upload(const Request& q);
  Response do_resume_upload(const Request& q);
  Response do_download(const Request& q);
  Response do_share_volume(const Request& q);

  /// nullptr for unknown or already-closed/dropped sessions; operations
  /// on them fail with Status::kError instead of throwing.
  SessionState* find_session(SessionId id) noexcept;
  /// Runs one DAL RPC: applies shard queueing, emits the rpc record and
  /// returns the completion time.
  SimTime run_rpc(RpcOp op, const SessionState& ctx, SimTime at);
  /// Same, for RPCs that carry no session (auth path).
  SimTime run_rpc_at(RpcOp op, MachineId machine, ProcessId process,
                     UserId user, SessionId session, SimTime at);
  void emit_storage(const SessionState& ctx, ApiOp op, SimTime at,
                    const TraceRecord& partial);
  void emit_storage_done(const SessionState& ctx, ApiOp op, SimTime start,
                         SimTime end, const TraceRecord& partial);
  void emit_session_event(MachineId machine, ProcessId process, UserId user,
                          SessionId session, SessionEvent event, SimTime at,
                          SimTime duration = 0);
  SimTime s3_latency(SimTime at);
  void publish_change(const SessionState& ctx, VolumeEvent::Kind kind,
                      VolumeId volume, NodeId node, SimTime at);
  /// Content id actually registered: uniquified when dedup is disabled so
  /// every upload stores its own blob (ablation support).
  ContentId effective_content(const ContentId& content, NodeId node);

  /// True (and counted) when a shard-failover window rejects this
  /// session's write at `now`.
  bool write_rejected(const SessionState& ctx, SimTime now);
  /// Earliest scheduled crash/outage in (from, until] that would kill
  /// this session's API process; nullptr if the transfer survives.
  const FaultEvent* crash_cut(const SessionState& ctx, SimTime from,
                              SimTime until) const;
  /// Force-closes every live session matching `pred`, ascending id order.
  void drop_sessions(SimTime now,
                     const std::function<bool(const SessionState&)>& pred);
  struct PartsOutcome {
    bool ok = false;
    bool interrupted = false;
    std::uint64_t sent = 0;  // wire bytes committed this attempt
    SimTime t = 0;
  };
  /// Pushes the multipart parts in [offset, total) through S3 and the
  /// uploadjob row, stopping at the first injected cut or S3 error.
  PartsOutcome push_parts(SessionState& ctx, UploadJobId job,
                          const std::string& mpu, std::uint64_t offset,
                          std::uint64_t total, SimTime t);

  BackendConfig config_;
  TraceSink* sink_;
  GroupSymbols symbols_;
  Rng rng_;
  MetadataStore store_;
  ObjectStore s3_;
  AuthService auth_;
  TokenCache token_cache_;
  MessageQueue mq_;
  ServerFleet fleet_;
  ServiceTimeModel service_model_;

  std::unordered_map<SessionId, SessionState> sessions_;
  std::unordered_map<UserId, TokenId> user_tokens_;
  std::unordered_map<UserId, std::vector<SessionId>> user_sessions_;
  std::unordered_set<VolumeId> shared_volumes_;
  std::unordered_set<UserId> banned_users_;  // deleted fraudulent accounts
  std::vector<SimTime> shard_busy_until_;
  std::uint64_t next_session_ = 1;
  std::uint64_t dedup_off_seq_ = 0;
  SimTime last_gc_ = 0;
  SimTime last_migration_ = 0;
  BackendStats stats_;

  FaultInjector* injector_ = nullptr;  // not owned
  /// schedule event id → crash victim, resolved at set_fault_injector.
  std::unordered_map<std::size_t, ProcessId> fault_victims_;
};

}  // namespace u1
