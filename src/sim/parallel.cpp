#include "sim/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sim/trace_merge.hpp"
#include "util/parallel.hpp"
#include "util/sha1.hpp"

namespace u1 {
namespace {

/// Fibonacci-hash style per-group seed spreading: groups must get
/// decorrelated streams, derived only from (config seed, group index) so
/// the derivation is identical for any thread count.
std::uint64_t group_mix(std::uint64_t seed, std::size_t group) {
  return seed ^ ((group + 1) * 0x9e3779b97f4a7c15ull);
}

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sticky-plan rebuild hysteresis: a hard floor on epochs between LPT
/// repartitions, the EMA smoothing factor for the load-drift signal,
/// and the smoothed-drift threshold that justifies paying the cache
/// eviction a repartition causes.
constexpr std::uint64_t kPlanRebuildFloor = 12;
constexpr double kPlanDriftAlpha = 0.3;
constexpr double kPlanDriftThreshold = 0.25;

/// Stage B frees a chunk buffer whose capacity is more than
/// kBurstFactor times the median capacity of its slot's chunks and more
/// than kBurstFloorBytes (DESIGN.md §7). Capacities grow in doublings,
/// so this takes four doublings past the median: steady-state chunks
/// stay within three at 300 to 8000 users, while the Jan 16 DDoS grows
/// its group's buffer four to seven. The floor keeps the first epochs,
/// whose median is a handful of records, from freeing anything.
constexpr std::size_t kBurstFactor = 8;
constexpr std::size_t kBurstFloorBytes = std::size_t{1} << 20;

}  // namespace

SetupDraws draw_setup(const SimulationConfig& config) {
  // The order of the draws is the trace contract: reordering any two
  // changes every trace SHA.
  const UserModel user_model(config.user_model);
  const DiurnalModel diurnal(config.diurnal);
  Rng master(config.seed);
  SetupDraws draws;
  draws.groups.reserve(config.backend.shards);
  for (std::size_t g = 0; g < config.backend.shards; ++g)
    draws.groups.push_back(master.fork());
  draws.users.resize(config.users);
  for (SetupDraws::User& user : draws.users) {
    user.profile = user_model.sample(master);
    user.rng = master.fork();
  }
  for (std::size_t i = 0; i < config.users; ++i) {
    if (!draws.users[i].profile.sharer || config.users < 2) continue;
    std::size_t peer = master.below(config.users);
    if (peer == i) peer = (peer + 1) % config.users;
    draws.users[i].peer = peer;
  }
  for (SetupDraws::User& user : draws.users) {
    double mean = config.bootstrap_files_mean;
    switch (user.profile.user_class) {
      case UserClass::kOccasional: mean *= 0.4; break;
      case UserClass::kUploadOnly: mean *= 2.0; break;
      case UserClass::kDownloadOnly: mean *= 1.5; break;
      case UserClass::kHeavy: mean *= 4.0; break;
    }
    double n = -mean * std::log(1.0 - master.uniform());
    if (master.chance(0.025)) n *= 40.0;
    user.bootstrap_files = static_cast<std::size_t>(std::min(n, 4000.0));
    user.bootstrap_at =
        kBootstrapStart + static_cast<SimTime>(master.below(
                        static_cast<std::uint64_t>(2 * kDay)));
  }
  for (SetupDraws::User& user : draws.users)
    user.first_arrival =
        diurnal.next_arrival(0, user.profile.sessions_per_day, master);
  return draws;
}

ParallelSimulation::ParallelSimulation(const SimulationConfig& config,
                                       TraceSink& sink, std::size_t threads)
    : config_(config),
      sink_(&sink),
      content_pool_(std::make_unique<ContentPool>(
          config.content_duplicate_prob, config.content_zipf_s,
          config.seed ^ 0xb10b)),
      user_model_(config.user_model),
      diurnal_(config.diurnal),
      bursts_(config.burst) {
  if (config.users == 0 || config.days <= 0)
    throw std::invalid_argument("SimulationConfig: users/days must be > 0");
  if (config.backend.shards == 0)
    throw std::invalid_argument("SimulationConfig: backend.shards must be > 0");
  threads_ = threads != 0
                 ? threads
                 : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // Analysis-only runs never materialize the trace, so a deeper write
  // ring would only hold memory hostage: flush_depth() is 1 there.
  analysis_only_ = dynamic_cast<NullSink*>(sink_) != nullptr;
  if (config.auto_countermeasures) guard_ = std::make_unique<AnomalyGuard>();
  if (!config.faults.empty()) {
    fault_schedule_ = build_fault_schedule(
        config.faults, static_cast<SimTime>(config.days) * kDay,
        config.backend.fleet.machines, config.backend.shards,
        effective_fault_seed(config));
  }
}

ParallelSimulation::~ParallelSimulation() {
  join_flush_tasks();
  stop_workers();
}

void ParallelSimulation::attach_analyzer(ShardedAnalyzer& analyzer) {
  if (ran_)
    throw std::logic_error(
        "ParallelSimulation::attach_analyzer: call before run()");
  analyzers_.push_back(&analyzer);
}

void ParallelSimulation::enable_worker_mode(EpochPeer& peer,
                                            std::size_t first_group,
                                            std::size_t group_count) {
  if (ran_)
    throw std::logic_error(
        "ParallelSimulation::enable_worker_mode: call before run()");
  if (group_count == 0 || first_group >= config_.backend.shards ||
      group_count > config_.backend.shards - first_group)
    throw std::invalid_argument(
        "ParallelSimulation::enable_worker_mode: bad group range");
  peer_ = &peer;
  local_first_ = first_group;
  local_count_ = group_count;
  // The worker materializes trace chunks for the peer's shard stream
  // even though its own sink is a NullSink; analysis-only is a
  // coordinator-side decision in distributed runs.
  analysis_only_ = false;
  // Detection needs the cluster-merged stream, so the AnomalyGuard runs
  // on the coordinator; this process only extracts the observation feed.
  if (guard_) {
    guard_.reset();
    collect_feed_ = true;
  }
}

std::size_t ParallelSimulation::group_of(UserId user) const noexcept {
  // Same hash the metadata router uses (MetadataStore::shard_of), so one
  // group's users are exactly one shard-population of the logical store.
  return std::hash<UserId>{}(user) % groups_.size();
}

const U1Backend& ParallelSimulation::backend(std::size_t group) const {
  if (group >= groups_.size())
    throw std::out_of_range("ParallelSimulation::backend: bad group");
  return *groups_[group]->backend;
}

std::vector<const MetadataStore*> ParallelSimulation::stores() const {
  std::vector<const MetadataStore*> out;
  out.reserve(groups_.size());
  for (const auto& grp : groups_) out.push_back(&grp->backend->store());
  return out;
}

const ContentRegistry& ParallelSimulation::contents() const noexcept {
  return shared_dedup_->global();
}

void ParallelSimulation::build_groups(const SetupDraws& draws) {
  const std::size_t n_groups = config_.backend.shards;
  shared_dedup_ = std::make_unique<SharedDedup>(n_groups);
  groups_.reserve(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    auto grp = std::make_unique<Group>();
    BackendConfig backend_cfg = config_.backend;
    backend_cfg.seed = group_mix(config_.seed ^ 0xbac9, g);
    // Interleaved session-id namespaces (g+1, g+1+G, ...): every id in
    // the merged trace is globally unique, so analyzers keyed by
    // SessionId never conflate sessions from different groups. Depends
    // only on the group count, never on the thread count.
    backend_cfg.session_id_base = g + 1;
    backend_cfg.session_id_stride = n_groups;
    grp->backend = std::make_unique<U1Backend>(backend_cfg, grp->trace);
    grp->pool_view = std::make_unique<ContentPoolView>(
        *content_pool_, group_mix(config_.seed ^ 0xb10b, g));
    grp->rng = draws.groups[g];
    // Deferred symbol interning: labels get dense group-local ids during
    // the epoch (no lock, no cross-group coordination) and are merged
    // into the global table in group-index order at each barrier — the
    // global ids depend only on the seed, never on the thread count.
    grp->backend->symbols().set_deferred(true);
    if (!fault_schedule_.empty()) {
      // Same schedule everywhere; the injector's probabilistic draws are
      // group-local, so they depend only on (config, g) — never on thread
      // interleaving.
      grp->injector = std::make_unique<FaultInjector>(
          fault_schedule_,
          group_mix(effective_fault_seed(config_) ^ 0x1f4a7, g));
      grp->backend->set_fault_injector(grp->injector.get());
    }
    grp->shards.reserve(analyzers_.size());
    for (ShardedAnalyzer* analyzer : analyzers_)
      grp->shards.push_back(analyzer->make_shard());
    groups_.push_back(std::move(grp));
  }
  slots_.resize(flush_depth());
  for (FlushSlot& slot : slots_) {
    slot.chunks.resize(n_groups);
    slot.sym_map.resize(n_groups);
    slot.new_syms.resize(n_groups);
  }
  purge_seen_.resize(n_groups);
  purge_mail_.reset(n_groups, /*lane_capacity=*/64);
  active_groups_.resize(n_groups);
  std::iota(active_groups_.begin(), active_groups_.end(), std::size_t{0});
}

void ParallelSimulation::register_population(const SetupDraws& draws) {
  home_.resize(config_.users);
  root_volume_.resize(config_.users);
  for (auto& grp : groups_)
    grp->agents.reserve(config_.users / groups_.size() + 8);
  for (std::size_t i = 0; i < config_.users; ++i) {
    const UserId uid{i + 1};
    const std::size_t g = group_of(uid);
    Group& grp = *groups_[g];
    const SetupDraws::User& draw = draws.users[i];
    const UserAccount account = grp.backend->register_user(uid, -kDay);
    WorkloadContext ctx;
    ctx.files = &file_model_;
    ctx.contents = grp.pool_view.get();
    ctx.users = &user_model_;
    ctx.transitions = &transition_model_;
    ctx.diurnal = &diurnal_;
    ctx.bursts = &bursts_;
    home_[i] = HomeRef{g, grp.agents.size()};
    root_volume_[i] = account.root_volume;
    grp.agents.push_back(std::make_unique<ClientAgent>(
        uid, draw.profile, account, ctx, draw.rng));
  }
}

void ParallelSimulation::grant_shares(const SetupDraws& draws) {
  // Sharing relationships (1.8% of users): owner shares the root volume
  // with a random peer. When the peer lives in another group, the owner
  // is ghost-registered in the peer's back-end so the grant resolves
  // in-store — the documented cost is one extra (idle) user+root volume
  // there, never any cross-group traffic during the run.
  for (std::size_t i = 0; i < config_.users; ++i) {
    const std::optional<std::size_t> peer = draws.users[i].peer;
    if (!peer) continue;
    const UserId owner_uid{i + 1};
    const UserId peer_uid{*peer + 1};
    const std::size_t gp = group_of(peer_uid);
    if (gp == home_[i].group) {
      groups_[gp]->backend->share_volume(owner_uid, root_volume_[i], peer_uid,
                                         -kDay);
    } else {
      const UserAccount ghost =
          groups_[gp]->backend->register_user(owner_uid, -kDay);
      groups_[gp]->backend->share_volume(owner_uid, ghost.root_volume,
                                         peer_uid, -kDay);
    }
  }
}

void ParallelSimulation::bootstrap_phase(const SetupDraws& draws) {
  // Pre-trace history, sequential. The shared registry and pool are LIVE
  // here (proxies point straight at the global structures), so bootstrap
  // gets full cross-group dedup.
  // Worker mode: swap buffer for shedding remote users' trace records;
  // it bounces capacity between sheds so the loop never reallocates.
  PageVector<TraceRecord> shed_scratch;
  for (auto& grp : groups_) {
    grp->backend->set_dedup_proxy(&shared_dedup_->global());
    grp->pool_view->set_live(content_pool_.get());
  }
  bootstrap_runs_.resize(groups_.size());
  // Records the groups' buffers gained since the last slice was packed.
  std::size_t open_records = 0;
  for (std::size_t i = 0; i < config_.users; ++i) {
    ClientAgent& agent = *groups_[home_[i].group]->agents[home_[i].index];
    const SetupDraws::User& draw = draws.users[i];
    const std::size_t held = groups_[home_[i].group]->trace.records().size();
    agent.bootstrap(*groups_[home_[i].group]->backend, draw.bootstrap_at,
                    draw.bootstrap_files);
    report_.bootstrap_files += draw.bootstrap_files;
    // Worker mode: a remote user's bootstrap matters only for its global
    // side effects (agent RNG draws, dedup registry and content
    // pool state, trace-window-invariant counters). The node rows, S3
    // objects and trace records it just produced in the remote group are
    // per-process dead weight — shed them NOW, per user, instead of
    // letting all G groups' bootstrap state coexist until
    // release_remote_groups(): that coexistence is what used to pin the
    // worker RSS peak at ~the single-process figure. Local groups (and
    // the in-process engine, where every group is local) are untouched,
    // so the packed chunk-0 records and every published symbol stay
    // bit-identical.
    if (worker_mode() && !group_local(home_[i].group)) {
      Group& grp = *groups_[home_[i].group];
      grp.backend->shed_remote_user_state(UserId{i + 1});
      agent.shed_namespace_mirror();
      shed_scratch.clear();
      grp.trace.swap_records(shed_scratch);
    } else {
      open_records += groups_[home_[i].group]->trace.records().size() - held;
    }
    // The history is held packed, about a third of its 128-byte records:
    // each slice is sorted and packed once the buffers hold enough.
    if (open_records >= kBootstrapSliceRecords) {
      pack_bootstrap_slice();
      open_records = 0;
    }
  }
  // Freeze: from here on workers only see epoch overlays.
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    groups_[g]->backend->set_dedup_proxy(&shared_dedup_->overlay(g));
    groups_[g]->pool_view->set_live(nullptr);
  }
}

void ParallelSimulation::pack_bootstrap_slice() {
  std::uint64_t open = 0;
  for (const auto& grp : groups_)
    open += grp->trace.records().size() * sizeof(TraceRecord);
  phases_.bootstrap_bytes_max =
      std::max(phases_.bootstrap_bytes_max, bootstrap_packed_ + open);
  PageVector<TraceRecord> records;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Group& grp = *groups_[g];
    if (grp.trace.records().empty()) continue;
    grp.trace.swap_records(records);
    // The flush merges a group's runs by (t, run), so a stable sort
    // keeps the emission order of equal timestamps across the slices.
    sort_trace_chunk(records);
    // Room for the worst case is address space: only the pages the
    // rows reach become resident.
    BootstrapRun& run = bootstrap_runs_[g].emplace_back();
    run.rows.reserve(records.size() * kMaxPackedRow);
    for (const TraceRecord& r : records) run.rows.push_back(r);
    run.left = records.size();
    bootstrap_packed_ += run.rows.bytes();
    // The group keeps its buffer for the next slice, but not the pages
    // this slice touched.
    std::size_t released = 0;
    release_prefix(records, records.size(), released);
    records.clear();
    grp.trace.swap_records(records);
  }
}

void ParallelSimulation::flush_bootstrap() {
  pack_bootstrap_slice();
  for (auto& runs : bootstrap_runs_)
    for (BootstrapRun& run : runs) {
      run.reader = PackedReader{run.rows.data()};
      run.reader.next(run.head);
    }
  const std::size_t windows = bootstrap_windows(config_);
  const SimTime epoch = epoch_length(config_);
  for (std::size_t w = 0; w < windows; ++w) {
    const SimTime end =
        w + 1 < windows
            ? kBootstrapStart + static_cast<SimTime>(w + 1) * epoch
            : std::numeric_limits<SimTime>::max();
    for (std::size_t g = 0; g < groups_.size(); ++g)
      unpack_bootstrap_window(g, end);
    // No epoch needs buffers this size again, so the slot frees them all.
    flush_inline(/*release_all=*/true);
  }
  bootstrap_runs_.clear();
  bootstrap_runs_.shrink_to_fit();
  bootstrap_packed_ = 0;
}

void ParallelSimulation::unpack_bootstrap_window(std::size_t g, SimTime end) {
  std::vector<BootstrapRun>& runs = bootstrap_runs_[g];
  InMemorySink& trace = groups_[g]->trace;
  struct Head {
    SimTime t;
    std::size_t run;
  };
  // Min-heap on (t, run): runs are in slice order and each is stably
  // sorted, so the merged stream is the stable sort of everything the
  // group emitted.
  const auto later = [](const Head& a, const Head& b) noexcept {
    return a.t != b.t ? a.t > b.t : a.run > b.run;
  };
  std::vector<Head> heads;
  for (std::size_t r = 0; r < runs.size(); ++r)
    if (runs[r].left > 0 && runs[r].head.t < end)
      heads.push_back(Head{runs[r].head.t, r});
  std::make_heap(heads.begin(), heads.end(), later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    BootstrapRun& run = runs[heads.back().run];
    trace.append(run.head);
    if (--run.left > 0) run.reader.next(run.head);
    if (run.left > 0 && run.head.t < end) {
      heads.back().t = run.head.t;
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }
  }
  for (BootstrapRun& run : runs) {
    if (run.left == 0)
      run.rows.free();
    else
      run.rows.release_prefix(
          static_cast<std::size_t>(run.reader.p - run.rows.data()));
  }
}

void ParallelSimulation::schedule_population_start(const SetupDraws& draws) {
  for (std::size_t i = 0; i < config_.users; ++i) {
    const HomeRef home = home_[i];
    if (group_local(home.group))
      groups_[home.group]->queue.push(draws.users[i].first_arrival,
                                      Ev{Ev::Kind::kAgent, home.index});
  }
  for (std::size_t g = 0; g < groups_.size(); ++g)
    if (group_local(g))
      groups_[g]->queue.push(kHour, Ev{Ev::Kind::kMaintenance, 0});
  for (std::size_t i = 0; i < fault_schedule_.size(); ++i) {
    // Every group gets every edge: fleet/window state must flip in every
    // back-end replica. Only group 0 emits the kFault trace record.
    for (std::size_t g = 0; g < groups_.size(); ++g)
      if (group_local(g))
        groups_[g]->queue.push(fault_schedule_[i].at, Ev{Ev::Kind::kFault, i});
  }
  if (config_.enable_ddos) {
    const double population_scale =
        static_cast<double>(config_.users) / 10000.0;
    const auto schedule =
        paper_attack_schedule(config_.ddos_bot_scale * population_scale);
    for (std::size_t a = 0; a < schedule.size(); ++a) {
      AttackRuntime rt;
      rt.spec = schedule[a];
      rt.account = UserId{kFirstAttackAccount + a};
      // The abused account pins the whole attack to one group: every bot
      // operation targets that single account, so the traffic is
      // group-local by construction.
      rt.group = group_of(rt.account);
      attacks_.push_back(rt);  // every process keeps the full table
      if (group_local(rt.group))
        groups_[rt.group]->queue.push(schedule[a].start,
                                      Ev{Ev::Kind::kDdosStart, a});
    }
  }
}

void ParallelSimulation::launch_attack(Group& grp, std::size_t attack_index,
                                       SimTime now) {
  AttackRuntime& attack = attacks_[attack_index];
  ++grp.ddos_attacks;
  const UserAccount acc = grp.backend->register_user(attack.account, now);
  const auto conn = grp.backend->connect(attack.account, now);
  if (conn.ok()) {
    const auto mk = grp.backend->make_file(conn.session, acc.root_volume,
                                           acc.root_dir, "payload", "avi",
                                           conn.end);
    SimTime t = mk.end;
    if (mk.ok()) {
      t = grp.backend
              ->upload(conn.session, mk.node,
                       Sha1::of("ddos-payload-" +
                                std::to_string(attack_index)),
                       attack.spec.payload_bytes, false, mk.end)
              .end;
      attack.payload_node = mk.node;
    }
    grp.backend->disconnect(conn.session, t + kMinute);
  }
  const std::size_t first_bot = grp.bots.size();
  for (std::uint32_t b = 0; b < attack.spec.bots; ++b) {
    Bot bot;
    bot.attack = attack_index;
    grp.bots.push_back(bot);
    const SimTime arrive =
        now + static_cast<SimTime>(grp.rng.below(30ull * kMinute));
    grp.queue.push(arrive, Ev{Ev::Kind::kBot, first_bot + b});
  }
  if (!config_.auto_countermeasures) {
    grp.queue.push(now + attack.spec.response_delay,
                   Ev{Ev::Kind::kDdosResponse, attack_index});
  }
}

void ParallelSimulation::respond_to_attack(std::size_t attack_index,
                                           SimTime now) {
  AttackRuntime& attack = attacks_[attack_index];
  attack.purged = true;
  groups_[attack.group]->backend->admin_purge_user(attack.account, now);
}

SimTime ParallelSimulation::bot_wake(Group& grp, std::size_t bot_index,
                                     SimTime now) {
  Bot& bot = grp.bots[bot_index];
  const AttackRuntime& attack = attacks_[bot.attack];

  if (bot.connected && !grp.backend->session_open(bot.session)) {
    bot.connected = false;
    return now + from_seconds(grp.rng.uniform(30.0, 120.0));
  }
  if (bot.connected) {
    for (std::uint32_t d = 0; d < attack.spec.downloads_per_connection; ++d) {
      if (attack.payload_node.is_nil()) break;
      const auto res =
          grp.backend->download(bot.session, attack.payload_node, now);
      now = res.end;
      if (!res.ok()) break;
    }
    grp.backend->disconnect(bot.session, now);
    bot.connected = false;
    const double gap_s = 3600.0 / attack.spec.connects_per_hour *
                         grp.rng.uniform(0.5, 1.5);
    return now + from_seconds(gap_s);
  }

  const auto conn = grp.backend->connect(attack.account, now);
  if (!conn.ok()) {
    ++bot.failures;
    if (attack.purged && bot.failures > 2) return 0;  // give up
    return conn.end + from_seconds(grp.rng.uniform(30.0, 300.0));
  }
  bot.failures = 0;
  bot.connected = true;
  bot.session = conn.session;
  return conn.end + from_seconds(grp.rng.uniform(1.0, 20.0));
}

void ParallelSimulation::run_group_epoch(std::size_t group, SimTime limit) {
  Group& grp = *groups_[group];
  while (!grp.queue.empty() && grp.queue.next_time() < limit) {
    const auto event = grp.queue.pop();
    const SimTime now = event.t;
    ++grp.epoch_events;
    switch (event.payload.kind) {
      case Ev::Kind::kAgent: {
        ++grp.agent_wakeups;
        const SimTime next =
            grp.agents[event.payload.index]->on_wake(*grp.backend, now);
        if (next > now) grp.queue.push(next, event.payload);
        break;
      }
      case Ev::Kind::kBot: {
        const SimTime next = bot_wake(grp, event.payload.index, now);
        if (next > now) grp.queue.push(next, event.payload);
        break;
      }
      case Ev::Kind::kMaintenance:
        grp.backend->maintenance(now);
        grp.queue.push(now + kHour, event.payload);
        break;
      case Ev::Kind::kDdosStart:
        launch_attack(grp, event.payload.index, now);
        break;
      case Ev::Kind::kDdosResponse:
        respond_to_attack(event.payload.index, now);
        break;
      case Ev::Kind::kFault:
        grp.backend->apply_fault(fault_schedule_[event.payload.index], now,
                                 /*emit_record=*/group == 0);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Flush ring: stage A (sort + remap + plan + guard) / stage B (writes).

void ParallelSimulation::fill_slot(FlushSlot& slot) {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (!group_local(g)) continue;  // remote groups: freed, chunk stays empty
    // Deterministic symbol merge: each group's new local symbols enter
    // the global table here, in group-index order with the workers
    // parked — the global ids are a pure function of the seed. The
    // mapping snapshot lets stage A remap this chunk while the next
    // epoch's compute keeps interning into the same group.
    GroupSymbols& symbols = groups_[g]->backend->symbols();
    const std::size_t prev_published = symbols.mapping().size();
    symbols.publish();
    slot.sym_map[g] = symbols.mapping();
    if (peer_ != nullptr) {
      // Capture the symbols this publish added, with their strings: the
      // peer ships them so the coordinator can replay the global-table
      // growth in (chunk, group) order — the exact order the in-process
      // engine interns in — and reproduce the oracle's symbol ids.
      auto& fresh = slot.new_syms[g];
      fresh.clear();
      for (std::size_t i = prev_published; i < slot.sym_map[g].size(); ++i)
        fresh.emplace_back(
            slot.sym_map[g][i],
            std::string(global_symbols().resolve(slot.sym_map[g][i])));
    }
    // slot.chunks[g] was cleared by the previous stage B, which keeps
    // its capacity unless a burst grew it (recycle_slot), so this swap
    // hands the group an empty, pre-sized buffer — in steady state the
    // ring allocates nothing.
    groups_[g]->trace.swap_records(slot.chunks[g]);
    records_flushed_ += slot.chunks[g].size();
  }
}

void ParallelSimulation::prep_chunk(FlushSlot& slot, std::size_t group) {
  PageVector<TraceRecord>& chunk = slot.chunks[group];
  sort_trace_chunk(chunk);
  const std::vector<Symbol>& map = slot.sym_map[group];
  for (TraceRecord& r : chunk) r.label = map[r.label];
  // In-worker analyzer fan-out: this thread owns the chunk exclusively
  // and stage A instances never overlap, so a group's shards see their
  // per-group stream sorted, globally-labelled, in epoch order — a
  // stream that depends only on the seed, never on the thread count.
  for (auto& shard : groups_[group]->shards)
    shard->consume(chunk.data(), chunk.size());
}

void ParallelSimulation::run_stage_a(FlushSlot& slot) {
  const auto t0 = Clock::now();
  // The plan has reached its size for this epoch: record what the slot
  // holds for ring_bytes until its next acquire.
  const auto done = [&] {
    slot.bytes = slot_bytes(slot);
    phases_.flush_s += secs_since(t0);
  };
  // Each index owns one whole chunk, so prepping in parallel cannot
  // affect the merged stream. parallel_for must not throw: a failure
  // stays with its group and the first is rethrown after the loop.
  std::vector<std::exception_ptr> errors(groups_.size());
  const auto prep = [&](std::size_t g) {
    try {
      prep_chunk(slot, g);
    } catch (...) {
      errors[g] = std::current_exception();
    }
  };
  // The inline run stays on the calling thread. Helper threads would
  // hold the sorts' temporary buffers in malloc arenas of their own,
  // which raised month_generate_2p's peak RSS (threads = 1 workers)
  // by 10%.
  if (pipelined_)
    parallel_for(groups_.size(), prep);
  else
    for (std::size_t g = 0; g < groups_.size(); ++g) prep(g);
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  if (peer_ != nullptr) {
    // Worker mode: the chunks ship whole to the peer's shard stream in
    // stage B, so no local k-way merge is needed. The merge plan is
    // built only to order the guard feed — the same (t, group) contract
    // order the coordinator's cluster-wide merge produces per worker —
    // and the feed itself is the exact record subset AnomalyGuard::
    // observe acts on (session auth/open events, post-bootstrap).
    if (collect_feed_) {
      build_merge_plan(slot.chunks, slot.plan);
      for (const MergeRef ref : slot.plan) {
        const TraceRecord& r = slot.chunks[ref.group][ref.offset];
        if (r.t < 0 || r.type != RecordType::kSession) continue;
        if (r.session_event != SessionEvent::kAuthRequest &&
            r.session_event != SessionEvent::kOpen)
          continue;
        feed_buf_.push_back(
            GuardFeedEntry{r.t, static_cast<std::uint64_t>(r.user.value),
                           static_cast<std::uint8_t>(r.session_event)});
      }
      slot.plan.clear();
    }
    done();
    return;
  }
  // Analysis-only runs with no guard skip the k-way merge plan: nothing
  // consumes the merged order (the shards already ate the per-group
  // streams, and stage B over an empty plan writes nothing). The guard,
  // when present, still needs the merged stream so its purge schedule
  // stays byte-identical to the trace-writing run.
  if (analysis_only_ && !guard_) {
    slot.plan.clear();
    done();
    return;
  }
  build_merge_plan(slot.chunks, slot.plan);
  // Guard scan over the merged permutation — the same total order the
  // writer will emit, so detection points do not depend on the split.
  if (guard_) {
    for (const MergeRef ref : slot.plan) {
      const TraceRecord& r = slot.chunks[ref.group][ref.offset];
      if (r.t < 0) continue;
      if (const auto culprit = guard_->observe(r)) {
        const std::size_t g = group_of(*culprit);
        if (purge_seen_[g].insert(*culprit).second)
          purge_mail_.post(g, *culprit);
      }
    }
  }
  done();
}

void ParallelSimulation::run_stage_b(FlushSlot& slot, bool release_all) {
  const auto t0 = Clock::now();
  if (peer_ != nullptr) {
    // Worker mode: the local groups' sorted, globally-labelled segments
    // go to the peer's chunk stream (FIFO in epoch order — the writer
    // thread preserves submission order); the coordinator k-way merges
    // each chunk as soon as every worker has sent it.
    peer_->write_chunk(slot.chunks, slot.new_syms, local_first_, local_count_);
    for (auto& syms : slot.new_syms) syms.clear();
    recycle_slot(slot, release_all);
    phases_.write_s += secs_since(t0);
    return;
  }
  if (release_all) {
    // The bootstrap flush frees its chunks once written, so each group's
    // written prefix goes back to the kernel as the writes pass it.
    std::vector<std::size_t> released(slot.chunks.size(), 0);
    write_merged(slot.chunks, slot.plan, *sink_,
                 [&](std::uint32_t group, std::uint32_t end) {
                   release_prefix(slot.chunks[group], end, released[group]);
                 });
  } else {
    write_merged(slot.chunks, slot.plan, *sink_);
  }
  recycle_slot(slot, release_all);
  phases_.write_s += secs_since(t0);
}

void ParallelSimulation::recycle_slot(FlushSlot& slot, bool release_all) {
  // The reference is the median capacity of the slot's local chunks:
  // the diurnal cycle moves every group together, a burst moves one.
  std::vector<std::size_t> caps;
  caps.reserve(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g)
    if (group_local(g)) caps.push_back(slot.chunks[g].capacity());
  std::size_t limit = 0;
  if (!caps.empty()) {
    const auto mid = caps.begin() + static_cast<std::ptrdiff_t>(
                                        (caps.size() - 1) / 2);
    std::nth_element(caps.begin(), mid, caps.end());
    limit = std::max(kBurstFactor * *mid * sizeof(TraceRecord),
                     kBurstFloorBytes);
  }
  bool released = false;
  for (auto& chunk : slot.chunks) {
    if (chunk.capacity() > 0 &&
        (release_all || chunk.capacity() * sizeof(TraceRecord) > limit)) {
      PageVector<TraceRecord>().swap(chunk);
      ++phases_.ring_releases;
      released = true;
    } else {
      chunk.clear();
    }
  }
  // The plan's capacity is the largest epoch the slot carried, so it
  // goes with a burst chunk.
  if (slot.plan.capacity() > 0 && (release_all || released)) {
    PageVector<MergeRef>().swap(slot.plan);
    ++phases_.ring_releases;
  } else {
    slot.plan.clear();
  }
}

std::size_t ParallelSimulation::slot_bytes(const FlushSlot& slot) noexcept {
  std::size_t bytes = slot.plan.capacity() * sizeof(MergeRef);
  for (const auto& chunk : slot.chunks)
    bytes += chunk.capacity() * sizeof(TraceRecord);
  return bytes;
}

void ParallelSimulation::count_ring_bytes() {
  std::size_t bytes = 0;
  for (const FlushSlot& slot : slots_) bytes += slot.bytes;
  for (const auto& grp : groups_)
    bytes += grp->trace.capacity() * sizeof(TraceRecord);
  phases_.ring_bytes = bytes;
  phases_.ring_bytes_max = std::max<std::uint64_t>(phases_.ring_bytes_max,
                                                   bytes);
}

void ParallelSimulation::flush_inline(bool release_all) {
  FlushSlot& slot = acquire_slot();
  fill_slot(slot);
  run_stage_a(slot);
  run_stage_b(slot, release_all);
  slot.bytes = slot_bytes(slot);
}

ParallelSimulation::FlushSlot& ParallelSimulation::acquire_slot() {
  FlushSlot& slot = slots_[slot_cursor_];
  slot_cursor_ = (slot_cursor_ + 1) % slots_.size();
  // Inline flushes leave no task behind: the slot is free at once.
  if (slot.written.valid()) {
    const auto t0 = Clock::now();
    slot.written.wait();
    phases_.ring_stall_s += secs_since(t0);
    std::exchange(slot.written, {}).get();  // rethrows the task's error
  }
  // Stage B has recycled it: this is what the slot keeps for reuse.
  slot.bytes = slot_bytes(slot);
  return slot;
}

void ParallelSimulation::submit_flush(FlushSlot& slot) {
  if (!pipelined_) {
    // Inline (oracle) mode: same work at the same pipeline points — the
    // flush of epoch E still completes before the purges it detected
    // are delivered at barrier E+1, and the writes retire in the same
    // FIFO order, so the observable stream is identical.
    run_stage_a(slot);
    run_stage_b(slot);
    return;
  }
  std::promise<void> prepped;
  stage_a_ = prepped.get_future();
  slot.written =
      std::async(std::launch::async,
                 [this, &slot, prepped = std::move(prepped),
                  before = last_written_]() mutable {
                   try {
                     run_stage_a(slot);
                   } catch (...) {
                     // A half-prepped slot never reaches stage B.
                     prepped.set_exception(std::current_exception());
                     throw;
                   }
                   prepped.set_value();
                   // FIFO writes: the previous epoch's task writes first
                   // (and its error becomes this task's). Dropping the
                   // handle keeps tasks from chaining each other alive.
                   if (before.valid()) std::exchange(before, {}).get();
                   run_stage_b(slot);
                 })
          .share();
  last_written_ = slot.written;
}

void ParallelSimulation::join_stage_a() {
  if (stage_a_.valid()) stage_a_.get();
}

void ParallelSimulation::join_flush_tasks() noexcept {
  // Every task is some slot's `written` until acquire_slot joins it.
  for (const FlushSlot& slot : slots_)
    if (slot.written.valid()) slot.written.wait();
}

void ParallelSimulation::deliver_purges(SimTime when) {
  purge_mail_.drain([this, when](std::size_t g, UserId culprit) {
    if (!groups_[g]->backend) return;  // distributed: not this process's group
    groups_[g]->backend->admin_purge_user(culprit, when);
    ++report_.auto_purges;
    for (auto& attack : attacks_) {
      if (attack.account == culprit && !attack.purged) {
        attack.purged = true;
        if (report_.first_auto_response_delay == 0) {
          report_.first_auto_response_delay = when - attack.spec.start;
          first_purge_barrier_ = barrier_seq_;
          first_purge_group_ = g;
        }
      }
    }
  });
  for (auto& seen : purge_seen_) seen.clear();
}

void ParallelSimulation::merge_epoch(SimTime epoch_end) {
  const auto t0 = Clock::now();
  // Stage A of the previous epoch must have retired: its purge posts
  // are about to deliver, on the same barrier schedule for every thread
  // count. With the compute phase longer than stage A this wait is
  // ~zero — the point of the pipeline. Stage B (sink writes) is NOT
  // waited on here; it may lag up to K epochs.
  join_stage_a();
  const auto t1 = Clock::now();
  phases_.flush_stall_s += std::chrono::duration<double>(t1 - t0).count();
  if (peer_ != nullptr) {
    exchange_barrier(/*tail=*/false);
  } else {
    shared_dedup_->merge_epoch();
    for (auto& grp : groups_) content_pool_->absorb(*grp->pool_view);
  }
  // Cross-group commands detected in the previous epoch's merged stream,
  // in group-index order. Their trace records join the chunk collected
  // below (same barrier), stamped with this barrier's epoch_end.
  deliver_purges(epoch_end);
  const auto t2 = Clock::now();
  phases_.merge_s += std::chrono::duration<double>(t2 - t1).count();
  FlushSlot& slot = acquire_slot();  // ring_stall_s while all K busy
  const auto t3 = Clock::now();
  count_ring_bytes();
  fill_slot(slot);
  phases_.merge_s += secs_since(t3);
  submit_flush(slot);
}

// ---------------------------------------------------------------------------
// Distributed worker mode.

void ParallelSimulation::release_remote_groups() {
  active_groups_.clear();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (group_local(g)) {
      active_groups_.push_back(g);
      continue;
    }
    // The remote group's deterministic contribution is complete (master
    // RNG draws, bootstrap registry/pool state); its runtime state is
    // per-process dead weight from here on — this free is where the
    // ~1/P per-process peak RSS comes from. The Group shell stays so
    // group indexing and the barrier replay order are unchanged.
    Group& grp = *groups_[g];
    grp.agents.clear();
    grp.agents.shrink_to_fit();
    grp.bots.clear();
    grp.backend.reset();
    grp.pool_view.reset();
    grp.injector.reset();
    grp.shards.clear();
    PageVector<TraceRecord> dropped;
    grp.trace.swap_records(dropped);  // remote bootstrap records
  }
}

void ParallelSimulation::exchange_barrier(bool tail) {
  std::vector<std::vector<std::uint8_t>> logs;
  std::vector<std::vector<std::uint8_t>> deltas;
  if (!tail) {
    logs.reserve(local_count_);
    deltas.reserve(local_count_);
    for (std::size_t i = 0; i < local_count_; ++i) {
      const std::size_t g = local_first_ + i;
      logs.push_back(shared_dedup_->extract_log(g));
      deltas.push_back(groups_[g]->pool_view->extract_delta());
    }
  }
  EpochPeer::BarrierIn in =
      peer_->exchange(barrier_seq_++, tail, std::move(logs), std::move(deltas),
                      std::move(feed_buf_));
  feed_buf_.clear();
  // Replay the cluster-wide epoch in group-index order — the same order
  // the in-process merge applies — so this process's global registry
  // and content-pool replicas match every other process byte for byte.
  for (const auto& log : in.dedup_logs) shared_dedup_->apply_log(log);
  for (const auto& delta : in.pool_deltas) content_pool_->absorb_delta(delta);
  for (const MailboxEntry& e : in.purges)
    purge_mail_.post(static_cast<std::size_t>(e.lane), UserId{e.value});
}

// ---------------------------------------------------------------------------
// Worker pool + sticky scheduling.

void ParallelSimulation::prepare_epoch_plan(std::size_t workers) {
  // Cost weights: last epoch's per-group event counts — a seed-
  // deterministic signal of where the simulation currently burns time
  // (first epoch: the scheduled queue sizes). The weights steer only the
  // wall clock; any plan yields the identical trace.
  std::vector<std::uint64_t> cost(groups_.size());
  for (const std::size_t g : active_groups_) {
    cost[g] = plan_.empty() ? groups_[g]->queue.size() + 1
                            : groups_[g]->epoch_events + 1;
    groups_[g]->epoch_events = 0;
  }
  // LPT greedy candidate: heaviest group first onto the least-loaded
  // worker. Cheap (G log G, G = shard count), so recompute it every
  // epoch and use its makespan as the *achievable* baseline — comparing
  // against total/workers would force a rebuild whenever G/workers
  // doesn't divide evenly, which is exactly the common case.
  std::vector<std::size_t> order = active_groups_;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (cost[a] != cost[b]) return cost[a] > cost[b];
    return a < b;
  });
  std::vector<std::vector<std::size_t>> candidate(workers);
  std::vector<std::uint64_t> load(workers, 0);
  for (const std::size_t g : order) {
    const std::size_t w = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    candidate[w].push_back(g);
    load[w] += cost[g];
  }
  const std::uint64_t candidate_max =
      *std::max_element(load.begin(), load.end());
  if (!plan_.empty()) {
    // Sticky hysteresis: moving a group evicts every cache line it
    // owns, so only *sustained* drift justifies a repartition. The
    // makespan excess over the LPT baseline is EMA-smoothed, so one
    // bursty epoch (a DDoS ramp, a fault window) cannot trigger a
    // rebuild, and a floor of kPlanRebuildFloor epochs between rebuilds
    // bounds the churn even under persistent imbalance. Every input is
    // seed-deterministic, so the rebuild count is too (tests pin it).
    std::uint64_t current_max = 0;
    for (const auto& assigned : plan_) {
      std::uint64_t worker_load = 0;
      for (const std::size_t g : assigned) worker_load += cost[g];
      current_max = std::max(current_max, worker_load);
    }
    const double drift =
        candidate_max > 0 ? static_cast<double>(current_max) /
                                    static_cast<double>(candidate_max) -
                                1.0
                          : 0.0;
    plan_drift_ema_ += kPlanDriftAlpha * (drift - plan_drift_ema_);
    ++plan_epochs_since_rebuild_;
    if (plan_epochs_since_rebuild_ < kPlanRebuildFloor) return;
    if (plan_drift_ema_ <= kPlanDriftThreshold) return;
  }
  plan_ = std::move(candidate);
  ++phases_.plan_rebuilds;
  plan_drift_ema_ = 0.0;
  plan_epochs_since_rebuild_ = 0;
}

void ParallelSimulation::start_workers(std::size_t n) {
  epoch_start_ = std::make_unique<std::barrier<>>(
      static_cast<std::ptrdiff_t>(n + 1));
  epoch_done_ = std::make_unique<std::barrier<>>(
      static_cast<std::ptrdiff_t>(n + 1));
  stop_.store(false, std::memory_order_relaxed);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

void ParallelSimulation::worker_loop(std::size_t id) {
  for (;;) {
    epoch_start_->arrive_and_wait();
    if (stop_.load(std::memory_order_acquire)) return;
    try {
      for (const std::size_t g : plan_[id]) run_group_epoch(g, epoch_limit_);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(worker_error_mu_);
      if (!worker_error_) worker_error_ = std::current_exception();
    }
    epoch_done_->arrive_and_wait();
  }
}

void ParallelSimulation::run_epoch_pooled(SimTime limit) {
  epoch_limit_ = limit;
  epoch_start_->arrive_and_wait();  // release the workers
  epoch_done_->arrive_and_wait();   // the epoch barrier
  if (worker_error_) std::rethrow_exception(worker_error_);
}

void ParallelSimulation::stop_workers() {
  if (workers_.empty()) return;
  stop_.store(true, std::memory_order_release);
  epoch_start_->arrive_and_wait();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  epoch_start_.reset();
  epoch_done_.reset();
}

SimulationReport ParallelSimulation::run() {
  if (ran_) throw std::logic_error("ParallelSimulation::run: already ran");
  ran_ = true;

  {
    // Drawn here, not in the constructor, which stays cheap.
    const auto t0 = Clock::now();
    const SetupDraws draws = draw_setup(config_);
    build_groups(draws);
    register_population(draws);
    grant_shares(draws);
    bootstrap_phase(draws);
    schedule_population_start(draws);
    phases_.bootstrap_s = secs_since(t0);
  }
  // Bootstrap records: merged and written pre-pipeline, one window at a
  // time (no flush task or worker runs yet, so each slot runs both
  // stages inline).
  const auto flush_t0 = Clock::now();
  flush_bootstrap();
  phases_.bootstrap_flush_s = secs_since(flush_t0);
  if (peer_ != nullptr) release_remote_groups();

  const SimTime horizon = static_cast<SimTime>(config_.days) * kDay;
  const bool pooled = threads_ > 1 && active_groups_.size() > 1;
  const std::size_t n_workers = std::min(threads_, active_groups_.size());
  // However run() ends, no flush task or worker outlives it: an error
  // rethrown here must not leave a task writing into the caller's sink.
  struct Quiesce {
    ParallelSimulation& sim;
    ~Quiesce() {
      sim.join_flush_tasks();
      sim.stop_workers();
    }
  } quiesce{*this};
  if (pooled) start_workers(n_workers);
  pipelined_ = pooled;
  const SimTime epoch = epoch_length(config_);
  for (SimTime epoch_end = epoch;; epoch_end += epoch) {
    const SimTime limit = std::min(epoch_end, horizon);
    const auto t0 = Clock::now();
    if (pooled) {
      prepare_epoch_plan(n_workers);
      run_epoch_pooled(limit);
    } else {
      for (const std::size_t g : active_groups_) run_group_epoch(g, limit);
    }
    phases_.compute_s += secs_since(t0);
    merge_epoch(limit);
    ++phases_.epochs;
    if (limit >= horizon) break;
  }
  // Drain the pipeline tail: the last epoch's stage A is still in
  // flight; its purges deliver at the horizon, every task's writes
  // retire, and the records the purges emit get one final synchronous
  // flush (any purges *that* flush detects are applied too, but — like
  // the pre-ring engine — their records are not re-flushed).
  join_stage_a();
  // Distributed tail barrier #1: the last epoch chunk's guard feed is
  // complete (stage A joined) — ship it, collect the final purges.
  if (peer_ != nullptr) exchange_barrier(/*tail=*/true);
  deliver_purges(horizon);
  for (FlushSlot& slot : slots_)
    if (slot.written.valid()) std::exchange(slot.written, {}).get();
  flush_inline(/*release_all=*/false);  // every slot is free after the drain
  // The pipeline is idle: the run's last ring_bytes is exact.
  for (FlushSlot& slot : slots_) slot.bytes = slot_bytes(slot);
  count_ring_bytes();
  // Distributed tail barrier #2: the purge-records chunk was scanned
  // inline above; any purges it triggers apply at the horizon, exactly
  // like the in-process tail.
  if (peer_ != nullptr) exchange_barrier(/*tail=*/true);
  deliver_purges(horizon);

  // Fold the analyzer shards: group-index order, after every flush task
  // has been joined. The shard set and the merge order are both
  // thread-count-independent, so the merged analyzer state is too.
  for (std::size_t a = 0; a < analyzers_.size(); ++a) {
    for (auto& grp : groups_) analyzers_[a]->merge_shard(*grp->shards[a]);
    analyzers_[a]->finish();
  }

  for (const auto& grp : groups_) {
    const auto queue_stats = grp->queue.calendar_stats();
    phases_.cal_rebuilds += queue_stats.rebuilds;
    phases_.cal_finds += queue_stats.finds;
    phases_.cal_scanned += queue_stats.scanned;
  }
  report_.users = config_.users;
  report_.horizon = horizon;
  for (const auto& ev : fault_schedule_)
    if (ev.at < horizon) ++report_.fault_events;
  for (const auto& grp : groups_) {
    report_.agent_wakeups += grp->agent_wakeups;
    report_.ddos_attacks += grp->ddos_attacks;
    if (grp->backend) report_.backend += grp->backend->stats();
  }
  return report_;
}

}  // namespace u1
