// Deterministic shard-parallel simulation engine — the simulator's one
// engine.
//
// ParallelSimulation partitions the population into G shard groups
// (G = backend.shards, same user-id hash the metadata router uses),
// gives each group its own complete back-end, event queue, forked RNG
// stream and trace buffer, and advances all groups over bounded time
// epochs of L simulated time (L = epoch_length(config): one hour, or one
// AnomalyGuard observation window when the guard is on):
//
//   epoch e:   workers run their assigned groups up to (e+1)*L, while
//              epoch e-1's flush task merges + emits its trace
//   barrier:   (sequential, O(new blobs + commands)) join that task's
//              stage A, merge dedup op logs in group order, absorb
//              content-pool views, drain the inter-epoch mailbox, freeze
//              the epoch's trace chunks and launch their flush task
//
// The barrier's serial section is deliberately tiny: the expensive trace
// work happens off the critical path in a two-stage flush pipeline over
// a ring of K in-flight epoch slots (K = flush_depth(): 2, or 1 when the
// sink is a NullSink). Each epoch's slot gets one std::async task:
//
//   stage A: per-group chunk sorts (parallel_for over the groups when
//     pooled, on the calling thread when inline), symbol remap
//     (group-local -> global label ids), the k-way index merge producing
//     the (group, offset) permutation, and the AnomalyGuard scan over
//     that permutation. Stage A of epoch e is ALWAYS joined at
//     barrier e+1 — for every thread count — so guard purges keep the
//     exact pre-ring delivery schedule (timestamp (e+2)*L).
//
//   stage B: once the previous epoch's task has written, walks the
//     permutation and hands records to the sink, strictly FIFO in epoch
//     order. Writes may lag up to K epochs behind the barrier; the
//     coordinator only stalls when the ring slot it reuses is still
//     being written (ring_stall_s).
//
// Merge input is frozen at the barrier, so the flushed stream is a
// deterministic function of the per-group chunks regardless of what the
// workers are computing concurrently, and the write order (epoch FIFO,
// contract order within an epoch) is independent of K. The trace is
// byte-identical for every thread count.
//
// Workers run a sticky, cost-weighted plan (weights = the previous
// epoch's per-group event counts, which are seed-deterministic) that
// binds each group to one worker so its backend/queue/agents stay hot
// in that worker's cache, and is rebuilt (LPT greedy) only when the
// EMA-smoothed load imbalance stays past 25% AND at least 12 epochs
// have passed since the last rebuild — one bursty epoch cannot thrash
// the plan (rebuild count pinned by tests/sim/parallel_sim_test.cpp on a
// fixed seed). The plan never affects the trace — groups are isolated
// during an epoch — only the wall clock.
//
// Everything a worker touches during an epoch is group-private or frozen
// (models are const and take the caller's RNG; the shared dedup registry
// and content pool are epoch-frozen behind per-group overlays). The merge
// at each barrier is a deterministic function of the per-group streams —
// replayed in fixed group order — so the emitted trace and the final
// report are byte-identical for ANY worker-thread count, including one.
// The single-threaded run (threads <= 1 executes groups inline, in order,
// with the same pipeline schedule) is therefore the correctness oracle
// for every parallel run.
//
// Cross-group traffic and its cost:
//  - share grants (~1.8% of users): resolved at setup by ghost-registering
//    the owner in the recipient's group back-end (sequential, pre-trace);
//  - global dedup: bounded staleness — a blob first seen by group A in
//    epoch e dedups for other groups from e+1 (at most one epoch);
//  - DDoS bot fleets: an attack's abused account pins the whole attack
//    (launch, bots, manual response) to one group — single-account traffic
//    is single-shard by construction;
//  - AnomalyGuard purges: detected on the merged stream by stage A,
//    posted to a bounded MPSC mailbox (EpochMailbox), and delivered in
//    group-index order at the next barrier.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/sharded.hpp"
#include "improve/anomaly_guard.hpp"
#include "proto/control.hpp"
#include "server/backend.hpp"
#include "sim/client_agent.hpp"
#include "sim/event_queue.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulation.hpp"
#include "sim/trace_merge.hpp"
#include "store/dedup_overlay.hpp"
#include "trace/packed.hpp"
#include "trace/sink.hpp"
#include "trace/symbols.hpp"
#include "util/page_alloc.hpp"
#include "workload/ddos.hpp"

namespace u1 {

/// Every draw the setup makes on the master stream Rng(config.seed), in
/// stream order: one fork per shard group; a profile and an agent fork
/// per user; one share peer per sharer; the bootstrap file count and
/// time per user; the first arrival per user. ParallelSimulation::run()
/// applies these draws and the distributed coordinator weighs its
/// slices with them (DESIGN.md §7, §12). No other code draws from the
/// master stream, so the setup is a pure function of the config.
struct SetupDraws {
  struct User {
    UserProfile profile;
    Rng rng;  // the agent's private stream
    /// Share recipient (uid - 1, never the user itself). Set for
    /// sharers when the population has at least two users.
    std::optional<std::size_t> peer;
    std::size_t bootstrap_files = 0;
    SimTime bootstrap_at = 0;
    SimTime first_arrival = 0;
  };
  std::vector<Rng> groups;  // one stream per shard group
  std::vector<User> users;  // index uid - 1
};

SetupDraws draw_setup(const SimulationConfig& config);

/// Distributed worker hooks (DESIGN.md §12, sim/distributed.cpp): an
/// engine in worker mode hands its epoch-barrier traffic to a peer
/// instead of merging in-process. The peer ships the local groups'
/// serialized dedup logs / pool deltas / guard feed to the coordinator
/// and returns the cluster-wide replay set, so every process's global
/// replicas stay byte-identical; stage B hands finished trace chunks to
/// write_chunk (the worker's chunk stream to the coordinator) instead of
/// the sink.
class EpochPeer {
 public:
  struct BarrierIn {
    /// EVERY group's serialized state for the finished epoch, in
    /// group-index order — the deterministic replay order. Empty lists
    /// on the two run-tail barriers.
    std::vector<std::vector<std::uint8_t>> dedup_logs;
    std::vector<std::vector<std::uint8_t>> pool_deltas;
    /// AnomalyGuard purges routed to this worker's groups
    /// (lane = global group index, value = culprit UserId).
    std::vector<MailboxEntry> purges;
  };

  virtual ~EpochPeer() = default;

  /// One barrier round trip. `tail` marks the two run-tail exchanges
  /// (no dedup/pool deltas, feed only). Blocking; called with the flush
  /// pipeline joined, so the feed covers every record scanned so far.
  virtual BarrierIn exchange(
      std::uint64_t seq, bool tail,
      std::vector<std::vector<std::uint8_t>> dedup_logs,
      std::vector<std::vector<std::uint8_t>> pool_deltas,
      std::vector<GuardFeedEntry> feed) = 0;

  /// Stage-B replacement: sends one chunk's local-group segments
  /// ([first_group, first_group + group_count) of `chunks`; sorted,
  /// labels already remapped to this process's global table).
  /// `new_symbols[g]` lists the (this-process global id, string) pairs
  /// group g published at this chunk's barrier — exactly the symbols the
  /// in-process engine would have interned at that point, so the
  /// coordinator can replay the global-table growth in (chunk, group)
  /// order and reproduce the oracle's symbol ids bit for bit. Called from
  /// the epochs' flush tasks, one call at a time, FIFO in epoch order —
  /// or inline at threads = 1, where a send that blocks stalls the
  /// compute too. Chunks 0..W-1 are the bootstrap windows, sent during
  /// setup (W = bootstrap_windows(config)); chunk W+s comes after barrier
  /// s, and the engine enters barrier s only once the calls for every
  /// chunk up to W+s-1-K have returned (K = flush_depth(): the ring slot
  /// it reuses must be free).
  virtual void write_chunk(
      const std::vector<PageVector<TraceRecord>>& chunks,
      const std::vector<std::vector<std::pair<Symbol, std::string>>>&
          new_symbols,
      std::size_t first_group, std::size_t group_count) = 0;
};

class ParallelSimulation {
 public:
  /// Wall-clock decomposition of the epoch pipeline, accumulated over
  /// the whole run. With the pipelined flush ring, flush_s (stage A) and
  /// write_s (stage B) overlap compute_s; the serial fraction per epoch
  /// is merge_s plus whatever the compute could not hide (flush_stall_s
  /// waiting on stage A, ring_stall_s waiting for a free write slot).
  struct EpochPhases {
    std::uint64_t epochs = 0;
    double compute_s = 0;      // parallel group execution
    double merge_s = 0;        // serial barrier work (dedup/pool/mailbox)
    double flush_s = 0;        // stage A: sorts + remap + merge plan + guard
    double write_s = 0;        // stage B: sink writes (FIFO, up to K behind)
    double flush_stall_s = 0;  // barrier wait on the previous stage A
    double ring_stall_s = 0;   // barrier wait for a free ring slot
    std::uint64_t plan_rebuilds = 0;  // sticky-scheduler LPT repartitions
    /// Calendar-queue bucket statistics, aggregated over every group
    /// queue at the end of the run.
    /// scanned/finds is the average events inspected per pop — a
    /// degenerate bucket width shows up here long before it shows up in
    /// wall clock.
    std::uint64_t cal_rebuilds = 0;
    std::uint64_t cal_finds = 0;
    std::uint64_t cal_scanned = 0;
    /// Trace-buffer memory of the flush ring (DESIGN.md §7): the
    /// capacity in bytes of every slot's chunks and merge plan plus every
    /// group's trace buffer, taken at the last barrier, and its largest
    /// value over all barriers. A slot still in flight counts what it
    /// held when stage A finished with it, so both figures depend on the
    /// seed and K, never on the thread count.
    std::uint64_t ring_bytes = 0;
    std::uint64_t ring_bytes_max = 0;
    /// Buffers stage B freed instead of keeping for reuse: every chunk
    /// and the plan of each bootstrap window, then burst-sized ones.
    std::uint64_t ring_releases = 0;
    /// The most bytes the bootstrap history held at once: its packed
    /// runs plus the capacity of the groups' open slice (DESIGN.md §7).
    /// The setup is serial, so it depends only on the config.
    std::uint64_t bootstrap_bytes_max = 0;
    /// The serial prefix of run(), before the first epoch: the setup
    /// (draw_setup through schedule_population_start, the bootstrap
    /// uploads included), which no field above counts, and the bootstrap
    /// history's inline flushes, whose two stages flush_s and write_s
    /// count too.
    double bootstrap_s = 0;
    double bootstrap_flush_s = 0;
  };

  /// threads == 0 resolves to std::thread::hardware_concurrency().
  /// threads <= 1 runs the same epoch/merge machinery inline — the
  /// deterministic oracle every multi-threaded run must match.
  ParallelSimulation(const SimulationConfig& config, TraceSink& sink,
                     std::size_t threads = 0);
  ~ParallelSimulation();

  ParallelSimulation(const ParallelSimulation&) = delete;
  ParallelSimulation& operator=(const ParallelSimulation&) = delete;

  /// Runs to completion and returns the report. Call once.
  SimulationReport run();

  std::size_t group_count() const noexcept { return groups_.size(); }
  std::size_t threads() const noexcept { return threads_; }

  /// Registers a sharded analyzer (call before run()). Every shard
  /// group gets a private AnalyzerShard fed that group's records during
  /// stage A — sorted, labels already global — on the flush tasks,
  /// overlapping the next epoch's compute. At the end of run() the
  /// shards fold back via merge_shard() in group-index order and
  /// finish() is called, so the analyzer's results are bit-identical
  /// for every thread count. The analyzer must outlive run().
  void attach_analyzer(ShardedAnalyzer& analyzer);

  /// True when the sink is a NullSink: trace materialization is skipped
  /// (no merge plan unless the guard needs it, flush ring auto-shrinks
  /// to depth 1) and only attached analyzers consume the records.
  bool analysis_only() const noexcept { return analysis_only_; }

  /// Distributed worker mode (DESIGN.md §12): this process runs only the
  /// shard groups [first_group, first_group + group_count). The full
  /// deterministic setup — registration, share grants, live-mode
  /// bootstrap — still runs for EVERY group, because the bootstrap fills
  /// the shared dedup registry and content pool; the remote groups'
  /// heavy state (backend, agents, queue events) is then freed.
  /// Epoch barriers go through `peer` (which must outlive run());
  /// AnomalyGuard detection moves to the coordinator, this engine only
  /// extracts the observation feed. Call before run().
  void enable_worker_mode(EpochPeer& peer, std::size_t first_group,
                          std::size_t group_count);
  bool worker_mode() const noexcept { return peer_ != nullptr; }

  /// Records handed to the flush pipeline (and thus to every attached
  /// analyzer), including bootstrap history. For bench records/s.
  std::uint64_t records_flushed() const noexcept { return records_flushed_; }

  /// Where first_auto_response_delay was recorded: the (barrier seq,
  /// group) of the first purge that hit a live attack, ~0/~0 when none
  /// did. Purge delivery order is (barrier, group, post order), so the
  /// distributed coordinator picks the lexicographically first origin
  /// across workers to reproduce the in-process "first response" value.
  std::uint64_t first_purge_barrier() const noexcept {
    return first_purge_barrier_;
  }
  std::uint64_t first_purge_group() const noexcept {
    return first_purge_group_;
  }

  /// Flush-ring depth K of an engine whose sink writes: how many epochs
  /// of sink writes may be in flight behind the barrier. The distributed
  /// coordinator buffers at most this many chunks per worker (DESIGN.md
  /// §12).
  static constexpr std::size_t kFlushDepth = 2;
  /// Bootstrap records the groups' trace buffers hold, together, before
  /// they are sorted and packed into one run per group (DESIGN.md §7).
  static constexpr std::size_t kBootstrapSliceRecords = std::size_t{1} << 16;
  /// The K this engine runs with: kFlushDepth, or 1 in analysis-only
  /// mode, where nothing is written K-deep.
  std::size_t flush_depth() const noexcept {
    return analysis_only_ ? 1 : kFlushDepth;
  }

  /// Per-phase wall-clock breakdown of the finished run.
  const EpochPhases& phases() const noexcept { return phases_; }

  /// Per-group back-end (post-run introspection).
  const U1Backend& backend(std::size_t group) const;
  /// All per-group metadata stores; analysis overloads aggregate these.
  std::vector<const MetadataStore*> stores() const;

  /// The merged global dedup registry (one per run, across all groups).
  const ContentRegistry& contents() const noexcept;

 private:
  struct Bot {
    std::size_t attack = 0;  // global attack index
    SessionId session;
    bool connected = false;
    int failures = 0;
  };

  struct AttackRuntime {
    DdosAttackSpec spec;
    UserId account;
    NodeId payload_node;
    std::size_t group = 0;
    bool purged = false;
  };

  struct Ev {
    enum class Kind : std::uint8_t {
      kAgent,        // index: group-local agent
      kBot,          // index: group-local bot
      kMaintenance,  // hourly housekeeping on this group's back-end
      kDdosStart,    // index: global attack
      kDdosResponse, // index: global attack (manual response path)
      kFault,        // index: into fault_schedule_ (delivered to EVERY group)
    };
    Kind kind;
    std::size_t index = 0;
  };

  struct Group {
    std::unique_ptr<U1Backend> backend;
    std::unique_ptr<ContentPoolView> pool_view;
    /// Per-group fault stream, forked from the schedule seed so the
    /// in-window probabilistic draws are group-local (thread-invariant).
    std::unique_ptr<FaultInjector> injector;
    std::vector<std::unique_ptr<ClientAgent>> agents;
    std::vector<Bot> bots;
    EventQueue<Ev> queue;
    Rng rng;
    InMemorySink trace;
    /// One shard per attached analyzer (same index as analyzers_), fed
    /// by prep_chunk on whichever pipeline thread owns the chunk.
    std::vector<std::unique_ptr<AnalyzerShard>> shards;
    /// Events executed in the current epoch — the (seed-deterministic)
    /// cost weight the sticky scheduler plans the next epoch with.
    std::uint64_t epoch_events = 0;
    std::uint64_t agent_wakeups = 0;
    std::uint64_t ddos_attacks = 0;
  };

  std::size_t group_of(UserId user) const noexcept;
  // Setup steps: each applies its share of draw_setup's draws.
  void build_groups(const SetupDraws& draws);
  void register_population(const SetupDraws& draws);
  void grant_shares(const SetupDraws& draws);
  void bootstrap_phase(const SetupDraws& draws);
  void schedule_population_start(const SetupDraws& draws);

  /// One group's bootstrap records of one slice, sorted by t (stable)
  /// and packed, and the bootstrap flush's place in it: `head` is the
  /// next record, read ahead while `left` > 0.
  struct BootstrapRun {
    PackedRows rows;
    PackedReader reader;
    std::size_t left = 0;  // records not yet flushed, head included
    TraceRecord head;
  };
  /// Sorts every group's trace buffer and packs it into a new run.
  void pack_bootstrap_slice();
  /// Packs the last slice, then flushes the runs inline, one
  /// bootstrap_windows() window at a time.
  void flush_bootstrap();
  /// Moves group g's records with t < end out of its runs into its
  /// trace buffer, merged by (t, run), and hands the runs' consumed
  /// prefixes back.
  void unpack_bootstrap_window(std::size_t g, SimTime end);
  void run_group_epoch(std::size_t group, SimTime limit);

  // Persistent worker pool (threads_ >= 2): workers park on the start
  // barrier between epochs, execute their planned groups during an
  // epoch, and meet the coordinator on the done barrier — the epoch
  // barrier of the design.
  void start_workers(std::size_t n);
  void stop_workers();
  void worker_loop(std::size_t id);
  void run_epoch_pooled(SimTime limit);
  /// (Re)builds the sticky group->worker plan when the EMA-smoothed
  /// cost-weighted load imbalance stays above 25% and the 12-epoch
  /// rebuild floor has elapsed (LPT greedy, deterministic). Called
  /// between barriers, workers parked.
  void prepare_epoch_plan(std::size_t workers);
  /// Sequential barrier work: join stage A, dedup/pool merge, purge
  /// delivery, symbol publication, slot hand-off. The trace heavy
  /// lifting lives in run_stage_a/run_stage_b on the flush tasks.
  void merge_epoch(SimTime epoch_end);

  /// One in-flight epoch of trace output. The coordinator fills it
  /// (publishes symbols, snapshots the per-group local->global maps and
  /// swaps the trace chunks in); its flush task runs stage A (sort,
  /// remap, plan, guard scan; joined at the next barrier), then stage B
  /// (the plan into the sink), after which the slot may be refilled.
  struct FlushSlot {
    std::vector<PageVector<TraceRecord>> chunks;  // per group
    std::vector<std::vector<Symbol>> sym_map;     // local -> global ids
    PageVector<MergeRef> plan;                    // merged permutation
    /// Worker mode only: per group, the symbols published at this
    /// chunk's barrier (global id in THIS process, string) — shipped to
    /// the peer so the coordinator can replay the table growth.
    std::vector<std::vector<std::pair<Symbol, std::string>>> new_syms;
    /// Capacity bytes of chunks + plan, measured by the slot's owner
    /// when it is acquired, when stage A ends and after an inline flush
    /// (ring_bytes' share).
    std::size_t bytes = 0;
    /// The slot's flush task, ready once stage B has written the slot
    /// (or a stage failed). Invalid while no task has run on the slot.
    std::shared_future<void> written;
  };

  // Flush ring machinery. Runs on one task per epoch when pooled, inline
  // otherwise — the observable order (chunk E scanned before purges of
  // E deliver at barrier E+1; sink writes FIFO by epoch) is identical
  // either way.
  /// Next ring slot (round-robin); blocks until its last task has
  /// written it (ring_stall_s) and rethrows that task's error.
  FlushSlot& acquire_slot();
  /// Publishes every group's new symbols into the global table in
  /// group-index order (deterministic ids), snapshots the mappings and
  /// swaps the group trace buffers into the slot. Workers must be
  /// parked.
  void fill_slot(FlushSlot& slot);
  /// Pooled: launches the slot's flush task; its stage A becomes the one
  /// the next barrier joins. Inline: runs both stages here.
  void submit_flush(FlushSlot& slot);
  /// Blocks until the last submitted stage A is done (purges all
  /// posted); rethrows its error.
  void join_stage_a();
  /// Blocks until every flush task has returned, without rethrowing:
  /// the pipeline is idle afterwards (run tail, error paths, teardown).
  void join_flush_tasks() noexcept;
  void run_stage_a(FlushSlot& slot);
  void run_stage_b(FlushSlot& slot, bool release_all = false);
  /// Ends stage B: clears the chunks and plan for the slot's next epoch,
  /// but frees the buffers a burst grew (or all of them, after the
  /// bootstrap flush). Same rule in-process and in worker mode.
  void recycle_slot(FlushSlot& slot, bool release_all);
  /// Fills the next slot and runs both stages on the calling thread
  /// (setup and the run tail, pipeline idle).
  void flush_inline(bool release_all);
  /// Records ring_bytes / ring_bytes_max from the slots' `bytes` and the
  /// groups' trace buffers. Workers must be parked.
  void count_ring_bytes();
  static std::size_t slot_bytes(const FlushSlot& slot) noexcept;
  /// Stage A per-group work: stable sort + label remap of one chunk.
  void prep_chunk(FlushSlot& slot, std::size_t group);
  /// Drains the purge mailbox in group-index order, applying each purge
  /// at `when`.
  void deliver_purges(SimTime when);

  // Worker-mode plumbing (enable_worker_mode; no-ops otherwise).
  bool group_local(std::size_t g) const noexcept {
    return peer_ == nullptr ||
           (g >= local_first_ && g < local_first_ + local_count_);
  }
  /// Frees the heavy per-group state of every non-local group after the
  /// deterministic setup replay, and records the local set in
  /// active_groups_.
  void release_remote_groups();
  /// One peer barrier: extract local dedup logs / pool deltas (skipped
  /// on tail barriers), ship them plus the guard feed, replay the
  /// returned cluster-wide set in group order and post routed purges.
  void exchange_barrier(bool tail);

  SimTime bot_wake(Group& grp, std::size_t bot_index, SimTime now);
  void launch_attack(Group& grp, std::size_t attack_index, SimTime now);
  void respond_to_attack(std::size_t attack_index, SimTime now);

  SimulationConfig config_;
  TraceSink* sink_;
  std::size_t threads_;

  /// In-worker analyzer fan-out (attach_analyzer), attachment order.
  std::vector<ShardedAnalyzer*> analyzers_;
  bool analysis_only_ = false;  // sink is a NullSink
  std::uint64_t records_flushed_ = 0;

  // Shared, frozen-during-epoch workload machinery.
  FileModel file_model_;
  std::unique_ptr<ContentPool> content_pool_;
  UserModel user_model_;
  TransitionModel transition_model_;
  DiurnalModel diurnal_;
  BurstProcess bursts_;

  /// One schedule, shared by all groups; every group applies every event
  /// to its own back-end (group 0 alone emits the kFault trace records).
  FaultSchedule fault_schedule_;

  std::unique_ptr<SharedDedup> shared_dedup_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<AttackRuntime> attacks_;
  std::unique_ptr<AnomalyGuard> guard_;

  /// Where each uid lives: (group, group-local agent index), uid-1 keyed.
  struct HomeRef {
    std::size_t group = 0;
    std::size_t index = 0;
  };
  std::vector<HomeRef> home_;
  /// The bootstrap history, per group its runs in slice order; empty
  /// once flushed. `bootstrap_packed_` is the runs' bytes.
  std::vector<std::vector<BootstrapRun>> bootstrap_runs_;
  std::uint64_t bootstrap_packed_ = 0;
  std::vector<VolumeId> root_volume_;  // uid-1 keyed, for share grants

  // Worker pool state.
  std::vector<std::thread> workers_;
  std::unique_ptr<std::barrier<>> epoch_start_;
  std::unique_ptr<std::barrier<>> epoch_done_;
  std::atomic<bool> stop_{false};
  SimTime epoch_limit_ = 0;
  std::exception_ptr worker_error_;
  std::mutex worker_error_mu_;
  /// Sticky plan: plan_[worker] = ordered groups it runs each epoch.
  std::vector<std::vector<std::size_t>> plan_;
  /// Rebuild hysteresis: EMA-smoothed load drift plus a floor on epochs
  /// between LPT repartitions, so one bursty epoch (or a small
  /// persistent wobble) cannot thrash the cache-affine plan.
  double plan_drift_ema_ = 0.0;
  std::uint64_t plan_epochs_since_rebuild_ = 0;

  // Distributed worker mode (enable_worker_mode).
  EpochPeer* peer_ = nullptr;
  std::size_t local_first_ = 0;
  std::size_t local_count_ = 0;
  /// Collect the AnomalyGuard observation feed in stage A (worker mode
  /// with countermeasures on; detection itself runs on the coordinator).
  bool collect_feed_ = false;
  std::vector<GuardFeedEntry> feed_buf_;
  std::uint64_t barrier_seq_ = 0;
  /// Groups this process simulates, ascending. Identity when not in
  /// worker mode; every epoch loop iterates this, not groups_.
  std::vector<std::size_t> active_groups_;

  // Flush-ring state. A slot belongs to the coordinator until
  // submit_flush hands it to its task, and again once acquire_slot has
  // joined that task. Stage A of at most one task is in flight (joined
  // every barrier); each task's stage B waits for the task before it, so
  // writes retire FIFO and at most K tasks are alive.
  bool pipelined_ = false;  // flush tasks (pooled run) vs inline stages
  std::vector<FlushSlot> slots_;
  std::size_t slot_cursor_ = 0;  // round-robin acquire order
  std::future<void> stage_a_;     // the last submitted task's stage A
  std::shared_future<void> last_written_;  // the last submitted task
  /// Cross-group purge commands: posted by the guard scan (lane = the
  /// culprit's home group), drained at the barrier in group-index order.
  EpochMailbox<UserId> purge_mail_;
  /// Per-group dedup of pending purges (the old O(n^2) std::find over
  /// the mailbox, replaced); cleared at every delivery.
  std::vector<std::unordered_set<UserId>> purge_seen_;

  EpochPhases phases_;
  SimulationReport report_;
  std::uint64_t first_purge_barrier_ = ~0ull;
  std::uint64_t first_purge_group_ = ~0ull;
  bool ran_ = false;
};

}  // namespace u1
