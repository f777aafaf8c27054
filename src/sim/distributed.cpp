#include "sim/distributed.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "sim/trace_merge.hpp"
#include "trace/record.hpp"
#include "trace/symbols.hpp"

namespace u1 {
namespace {

// ---------------------------------------------------------------------------
// EINTR-safe fd plumbing. The control sockets and segment files are
// plain blocking fds; every transfer loops over short results and
// retries EINTR, so a signal delivered mid-epoch can never shear a
// frame (the same robustness contract as net/client.cpp).

void write_exact(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("distributed: write failed: ") +
                               std::strerror(errno));
    }
    if (k == 0) throw std::runtime_error("distributed: write returned 0");
    p += static_cast<std::size_t>(k);
    n -= static_cast<std::size_t>(k);
  }
}

void read_exact(int fd, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("distributed: read failed: ") +
                               std::strerror(errno));
    }
    if (k == 0) throw std::runtime_error("distributed: peer closed mid-frame");
    p += static_cast<std::size_t>(k);
    n -= static_cast<std::size_t>(k);
  }
}

void send_frame(int fd, ProtoOp op, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  append_control_frame(frame, op, payload);
  write_exact(fd, frame.data(), frame.size());
}

/// Reads one whole control frame and splits it through the strict
/// decoder, so a corrupt peer fails with the envelope's typed error
/// instead of a silent misparse. `buf` backs the returned payload view.
ProtoOp recv_frame(int fd, std::vector<std::uint8_t>& buf,
                   std::span<const std::uint8_t>& payload) {
  std::uint8_t hdr[4];
  read_exact(fd, hdr, sizeof(hdr));
  const std::uint32_t len = static_cast<std::uint32_t>(hdr[0]) |
                            (static_cast<std::uint32_t>(hdr[1]) << 8) |
                            (static_cast<std::uint32_t>(hdr[2]) << 16) |
                            (static_cast<std::uint32_t>(hdr[3]) << 24);
  if (len > kMaxControlFrameBytes)
    throw std::runtime_error("distributed: oversized control frame");
  buf.resize(4 + len);
  std::memcpy(buf.data(), hdr, sizeof(hdr));
  read_exact(fd, buf.data() + 4, len);
  ProtoOp op{};
  const FrameDecode d =
      split_control_frame(buf.data(), buf.size(), op, payload);
  if (d.status != Status::kOk || d.need_more)
    throw std::runtime_error(std::string("distributed: bad control frame: ") +
                             std::string(to_string(d.status)));
  return op;
}

[[noreturn]] void throw_status(const char* what, Status s) {
  throw std::runtime_error(std::string("distributed: ") + what + ": " +
                           std::string(to_string(s)));
}

// ---------------------------------------------------------------------------
// Segment file codec. Workers spool their finished trace chunks to a
// local scratch file — records never cross the sockets — and the
// coordinator streams the files back one chunk at a time at close, so
// its own resident set stays one epoch deep. Layout per chunk:
//
//   varint chunk_seq
//   per local group, ascending:
//     varint n_syms    then n_syms × (varint worker_global_id,
//                                     varint len, len raw bytes)
//     varint n_records then n_records × sizeof(TraceRecord) raw bytes

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(int fd) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    std::uint8_t byte = 0;
    read_exact(fd, &byte, 1);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  throw std::runtime_error("distributed: overlong varint in segment");
}

std::uint64_t peak_rss_kb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // KiB on Linux
}

// ---------------------------------------------------------------------------
// ChunkMeta counter layout: the positional contract between worker and
// coordinator (proto/control.hpp keeps the frame itself generic).

static_assert(std::is_trivially_copyable_v<BackendStats> &&
                  sizeof(BackendStats) % sizeof(std::uint64_t) == 0,
              "BackendStats must memcpy into the ChunkMeta counter block");
constexpr std::size_t kBackendWords =
    sizeof(BackendStats) / sizeof(std::uint64_t);

enum CounterIx : std::size_t {
  kCtrBackend = 0,  // kBackendWords u64s, memcpy'd BackendStats
  kCtrUsers = kBackendWords,
  kCtrHorizon,
  kCtrAgentWakeups,
  kCtrBootstrapFiles,
  kCtrDdosAttacks,
  kCtrFaultEvents,
  kCtrAutoPurges,
  kCtrFirstDelay,
  kCtrCrossDead,
  kCtrRecords,
  kCtrFirstPurgeBarrier,
  kCtrFirstPurgeGroup,
  kCtrPeakRssKb,
  kCtrChunks,
  kCtrCount,
};

ChunkMetaMsg pack_meta(const SimulationReport& rep,
                       const ParallelSimulation& sim,
                       std::uint64_t chunks_written) {
  ChunkMetaMsg meta;
  meta.seq = chunks_written;
  meta.counters.resize(kCtrCount, 0);
  std::memcpy(meta.counters.data(), &rep.backend, sizeof(BackendStats));
  meta.counters[kCtrUsers] = rep.users;
  meta.counters[kCtrHorizon] = static_cast<std::uint64_t>(rep.horizon);
  meta.counters[kCtrAgentWakeups] = rep.agent_wakeups;
  meta.counters[kCtrBootstrapFiles] = rep.bootstrap_files;
  meta.counters[kCtrDdosAttacks] = rep.ddos_attacks;
  meta.counters[kCtrFaultEvents] = rep.fault_events;
  meta.counters[kCtrAutoPurges] = rep.auto_purges;
  meta.counters[kCtrFirstDelay] =
      static_cast<std::uint64_t>(rep.first_auto_response_delay);
  meta.counters[kCtrCrossDead] = sim.cross_group_dead_blobs();
  meta.counters[kCtrRecords] = sim.records_flushed();
  meta.counters[kCtrFirstPurgeBarrier] = sim.first_purge_barrier();
  meta.counters[kCtrFirstPurgeGroup] = sim.first_purge_group();
  meta.counters[kCtrPeakRssKb] = peak_rss_kb();
  meta.counters[kCtrChunks] = chunks_written;
  const ParallelSimulation::EpochPhases& ph = sim.phases();
  meta.timings = {ph.compute_s, ph.merge_s,       ph.flush_s,
                  ph.write_s,   ph.flush_stall_s, ph.ring_stall_s};
  return meta;
}

// ---------------------------------------------------------------------------
// Group slicing: contiguous ascending ranges, so worker rank order IS
// global group order — the k-way feed merge and the segment readback
// both lean on it.

struct Slice {
  std::size_t first = 0;
  std::size_t count = 0;
};

/// Contiguous min-max partition of the group weights into `workers`
/// slices (classic DP; G and P are both tiny). Weighted boundaries keep
/// the heaviest worker's end-of-run RSS near total/P instead of letting
/// the hash-skewed heavy groups pile into one slice; with empty or flat
/// weights this degenerates to the equal-count split. The choice of
/// boundaries is deterministic in (weights, workers) and never affects
/// the merged trace — only which process pays for which groups.
std::vector<Slice> slice_groups(std::size_t groups, std::size_t workers,
                                const std::vector<double>& weights) {
  std::vector<double> w(groups, 1.0);
  if (weights.size() == groups)
    for (std::size_t g = 0; g < groups; ++g) w[g] = weights[g];
  std::vector<double> prefix(groups + 1, 0.0);
  for (std::size_t g = 0; g < groups; ++g) prefix[g + 1] = prefix[g] + w[g];
  const auto range = [&](std::size_t a, std::size_t b) {
    return prefix[b] - prefix[a];
  };
  // best[p][g]: minimal max-slice weight covering groups [0, g) with p
  // slices, every slice non-empty. cut[p][g]: the argmin boundary.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> best(
      workers + 1, std::vector<double>(groups + 1, kInf));
  std::vector<std::vector<std::size_t>> cut(
      workers + 1, std::vector<std::size_t>(groups + 1, 0));
  best[0][0] = 0.0;
  for (std::size_t p = 1; p <= workers; ++p) {
    for (std::size_t g = p; g <= groups - (workers - p); ++g) {
      for (std::size_t k = p - 1; k < g; ++k) {
        const double cand = std::max(best[p - 1][k], range(k, g));
        if (cand < best[p][g]) {
          best[p][g] = cand;
          cut[p][g] = k;
        }
      }
    }
  }
  std::vector<Slice> out(workers);
  std::size_t g = groups;
  for (std::size_t p = workers; p >= 1; --p) {
    const std::size_t k = cut[p][g];
    out[p - 1].first = k;
    out[p - 1].count = g - k;
    g = k;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Worker side.

/// The worker's EpochPeer: barriers over the control socket, finished
/// chunks to the local segment file. exchange() runs on the engine's
/// coordinator thread and write_chunk() on its writer thread; they touch
/// disjoint fds, so the two never race.
class WorkerPeer final : public EpochPeer {
 public:
  WorkerPeer(int socket_fd, const std::string& segment_path,
             std::uint32_t first_group)
      : fd_(socket_fd), first_group_(first_group) {
    seg_fd_ = ::open(segment_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (seg_fd_ < 0)
      throw std::runtime_error("distributed: cannot create segment file " +
                               segment_path);
  }
  ~WorkerPeer() override {
    if (seg_fd_ >= 0) ::close(seg_fd_);
  }

  BarrierIn exchange(std::uint64_t seq, bool tail,
                     std::vector<std::vector<std::uint8_t>> dedup_logs,
                     std::vector<std::vector<std::uint8_t>> pool_deltas,
                     std::vector<GuardFeedEntry> feed) override {
    EpochDoneMsg done;
    done.seq = seq;
    done.tail = tail;
    done.first_group = first_group_;
    done.dedup_logs = std::move(dedup_logs);
    done.pool_deltas = std::move(pool_deltas);
    done.feed = std::move(feed);
    send_frame(fd_, ProtoOp::kEpochDone, encode_epoch_done(done));

    std::span<const std::uint8_t> payload;
    ProtoOp op = recv_frame(fd_, rx_, payload);
    if (op == ProtoOp::kShutdown)
      throw std::runtime_error("distributed: coordinator shut down mid-run");
    if (op != ProtoOp::kEpochBegin)
      throw std::runtime_error("distributed: expected EpochBegin");
    EpochBeginMsg begin;
    if (const Status s = decode_epoch_begin(payload, begin); s != Status::kOk)
      throw_status("EpochBegin decode", s);
    if (begin.seq != seq || begin.tail != tail)
      throw std::runtime_error("distributed: EpochBegin out of sequence");

    op = recv_frame(fd_, rx_, payload);
    if (op != ProtoOp::kMailboxBatch)
      throw std::runtime_error("distributed: expected MailboxBatch");
    MailboxBatchMsg batch;
    if (const Status s = decode_mailbox_batch(payload, batch);
        s != Status::kOk)
      throw_status("MailboxBatch decode", s);
    if (batch.seq != seq)
      throw std::runtime_error("distributed: MailboxBatch out of sequence");

    BarrierIn in;
    in.dedup_logs = std::move(begin.dedup_logs);
    in.pool_deltas = std::move(begin.pool_deltas);
    in.purges = std::move(batch.entries);
    return in;
  }

  void write_chunk(
      const std::vector<std::vector<TraceRecord>>& chunks,
      const std::vector<std::vector<std::pair<Symbol, std::string>>>&
          new_symbols,
      std::size_t first_group, std::size_t group_count) override {
    buf_.clear();
    put_varint(buf_, chunk_seq_++);
    for (std::size_t i = 0; i < group_count; ++i) {
      const std::size_t g = first_group + i;
      put_varint(buf_, new_symbols[g].size());
      for (const auto& [sym, label] : new_symbols[g]) {
        put_varint(buf_, sym);
        put_varint(buf_, label.size());
        buf_.insert(buf_.end(), label.begin(), label.end());
      }
      const std::vector<TraceRecord>& chunk = chunks[g];
      put_varint(buf_, chunk.size());
      // Record payloads go straight from the engine's chunk buffer to
      // the fd — same segment bytes, no serialized copy. The bootstrap
      // chunk and the DDoS-hour epochs run to tens of MB per group; a
      // full byte-buffer copy of them sat on top of the worker's peak.
      flush_buf();
      write_exact(seg_fd_, chunk.data(), chunk.size() * sizeof(TraceRecord));
    }
    flush_buf();
  }

  void flush_buf() {
    if (buf_.empty()) return;
    write_exact(seg_fd_, buf_.data(), buf_.size());
    buf_.clear();
  }

  void close_segment() {
    if (seg_fd_ >= 0) {
      ::close(seg_fd_);
      seg_fd_ = -1;
    }
  }
  std::uint64_t chunks_written() const noexcept { return chunk_seq_; }

 private:
  int fd_;
  int seg_fd_ = -1;
  std::uint32_t first_group_;
  std::uint64_t chunk_seq_ = 0;
  std::vector<std::uint8_t> rx_;
  std::vector<std::uint8_t> buf_;
};

/// Whole worker-process lifetime: run the engine in worker mode, ship
/// the manifest, wait for the shutdown frame. Never throws — a failure
/// is reported to the coordinator as a Shutdown{1} frame and a nonzero
/// exit code.
int worker_main(const SimulationConfig& config, std::size_t threads,
                const Slice& slice, int fd,
                const std::string& segment_path) noexcept {
  try {
    NullSink null;
    ParallelSimulation sim(config, null, threads);
    WorkerPeer peer(fd, segment_path,
                    static_cast<std::uint32_t>(slice.first));
    sim.enable_worker_mode(peer, slice.first, slice.count);
    const SimulationReport rep = sim.run();
    peer.close_segment();

    const ChunkMetaMsg meta = pack_meta(rep, sim, peer.chunks_written());
    send_frame(fd, ProtoOp::kChunkMeta, encode_chunk_meta(meta));

    std::vector<std::uint8_t> rx;
    std::span<const std::uint8_t> payload;
    if (recv_frame(fd, rx, payload) != ProtoOp::kShutdown) return 2;
    ShutdownMsg bye;
    if (decode_shutdown(payload, bye) != Status::kOk) return 2;
    return static_cast<int>(bye.code);
  } catch (const std::exception& e) {
    ShutdownMsg err;
    err.code = 1;
    err.message = e.what();
    try {
      send_frame(fd, ProtoOp::kShutdown, encode_shutdown(err));
    } catch (...) {
    }
    return 1;
  } catch (...) {
    return 1;
  }
}

// ---------------------------------------------------------------------------
// Coordinator side.

struct Worker {
  pid_t pid = -1;
  int fd = -1;
  Slice slice;
  std::string segment_path;
  ChunkMetaMsg meta;
};

/// Kills and reaps every still-live child on scope exit, so a throw in
/// the middle of the relay never leaks worker processes.
class ChildReaper {
 public:
  explicit ChildReaper(std::vector<Worker>& workers) : workers_(workers) {}
  ~ChildReaper() {
    for (Worker& w : workers_) {
      if (w.fd >= 0) ::close(w.fd);
      w.fd = -1;
      if (w.pid > 0) {
        ::kill(w.pid, SIGKILL);
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        w.pid = -1;
      }
    }
  }

 private:
  std::vector<Worker>& workers_;
};

EpochDoneMsg recv_epoch_done(Worker& w, std::vector<std::uint8_t>& rx,
                             std::uint64_t seq, bool tail) {
  std::span<const std::uint8_t> payload;
  const ProtoOp op = recv_frame(w.fd, rx, payload);
  if (op == ProtoOp::kShutdown) {
    ShutdownMsg err;
    (void)decode_shutdown(payload, err);
    throw std::runtime_error("distributed: worker failed: " + err.message);
  }
  if (op != ProtoOp::kEpochDone)
    throw std::runtime_error("distributed: expected EpochDone");
  EpochDoneMsg done;
  if (const Status s = decode_epoch_done(payload, done); s != Status::kOk)
    throw_status("EpochDone decode", s);
  if (done.seq != seq || done.tail != tail ||
      done.first_group != w.slice.first ||
      (!tail && (done.dedup_logs.size() != w.slice.count ||
                 done.pool_deltas.size() != w.slice.count)))
    throw std::runtime_error("distributed: EpochDone out of sequence");
  return done;
}

}  // namespace

std::size_t env_proc_count() {
  if (const char* v = std::getenv("U1SIM_PROCS")) {
    const long n = std::atol(v);
    if (n >= 1) return static_cast<std::size_t>(n);
  }
  return 1;
}

MailboxBatchMsg drain_to_batch(EpochMailbox<UserId>& mail, std::uint64_t seq) {
  MailboxBatchMsg batch;
  batch.seq = seq;
  mail.drain([&batch](std::size_t lane, UserId user) {
    batch.entries.push_back(
        MailboxEntry{static_cast<std::uint32_t>(lane), user.value});
  });
  return batch;
}

void post_batch(const MailboxBatchMsg& batch, EpochMailbox<UserId>& mail) {
  for (const MailboxEntry& e : batch.entries)
    mail.post(static_cast<std::size_t>(e.lane), UserId{e.value});
}

DistributedSimulation::DistributedSimulation(const SimulationConfig& config,
                                             TraceSink& sink,
                                             std::size_t procs,
                                             std::size_t threads)
    : config_(config),
      sink_(&sink),
      procs_(procs == 0 ? env_proc_count() : procs),
      threads_(threads == 0 ? 1 : threads) {
  if (config.backend.shards == 0)
    throw std::invalid_argument("DistributedSimulation: shards must be > 0");
  procs_ = std::min(procs_, static_cast<std::size_t>(config.backend.shards));
}

void DistributedSimulation::attach_analyzer(ShardedAnalyzer& analyzer) {
  if (ran_)
    throw std::logic_error(
        "DistributedSimulation::attach_analyzer: call before run()");
  analyzers_.push_back(&analyzer);
}

SimulationReport DistributedSimulation::run() {
  if (ran_) throw std::logic_error("DistributedSimulation::run: already ran");
  ran_ = true;
  return procs_ <= 1 ? run_inline() : run_forked();
}

SimulationReport DistributedSimulation::run_inline() {
  ParallelSimulation sim(config_, *sink_, threads_);
  for (ShardedAnalyzer* a : analyzers_) sim.attach_analyzer(*a);
  const SimulationReport rep = sim.run();
  records_flushed_ = sim.records_flushed();
  cross_group_dead_blobs_ = sim.cross_group_dead_blobs();
  worker_rss_kb_ = {peak_rss_kb()};
  return rep;
}

SimulationReport DistributedSimulation::run_forked() {
  const std::size_t n_groups = config_.backend.shards;
  const std::size_t n_workers = procs_;
  const std::vector<Slice> slices = slice_groups(
      n_groups, n_workers,
      ParallelSimulation::estimate_group_setup_weights(config_));

  char scratch_tmpl[] = "/tmp/u1dist.XXXXXX";
  if (::mkdtemp(scratch_tmpl) == nullptr)
    throw std::runtime_error("distributed: mkdtemp failed");
  const std::string scratch(scratch_tmpl);

  std::vector<Worker> workers(n_workers);
  ChildReaper reaper(workers);

  // Fork the fleet FIRST — before any engine state exists in this
  // process — so each child starts from a near-empty heap and its peak
  // RSS reflects only its own slice's steady state (plus the shared
  // setup replay). The coordinator never builds a simulation.
  for (std::size_t w = 0; w < n_workers; ++w) {
    workers[w].slice = slices[w];
    workers[w].segment_path =
        scratch + "/worker-" + std::to_string(w) + ".seg";
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
      throw std::runtime_error("distributed: socketpair failed");
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw std::runtime_error("distributed: fork failed");
    }
    if (pid == 0) {
      // Child: drop every parent-side fd inherited so far, then run the
      // worker to completion. _exit skips atexit/static teardown — the
      // coordinator owns the process-wide resources.
      ::close(sv[0]);
      for (std::size_t p = 0; p < w; ++p)
        if (workers[p].fd >= 0) ::close(workers[p].fd);
      const int code = worker_main(config_, threads_, slices[w], sv[1],
                                   workers[w].segment_path);
      ::_exit(code);
    }
    ::close(sv[1]);
    workers[w].pid = pid;
    workers[w].fd = sv[0];
  }

  // --- Barrier relay. B non-tail barriers (one per engine epoch) and
  // the two run-tail exchanges; every worker hits every barrier in
  // lockstep, and the reply carries the cluster-wide replay set.
  const SimTime horizon = static_cast<SimTime>(config_.days) * kDay;
  const SimTime epoch = epoch_length(config_);
  const auto non_tail =
      static_cast<std::uint64_t>((horizon + epoch - 1) / epoch);
  const std::uint64_t total_barriers = non_tail + 2;

  const bool guard_on = config_.auto_countermeasures;
  AnomalyGuard guard;
  std::vector<std::unordered_set<UserId>> purge_seen(n_groups);
  std::vector<std::size_t> group_rank(n_groups);
  for (std::size_t w = 0; w < n_workers; ++w)
    for (std::size_t i = 0; i < slices[w].count; ++i)
      group_rank[slices[w].first + i] = w;
  std::vector<std::uint8_t> rx;

  for (std::uint64_t seq = 0; seq < total_barriers; ++seq) {
    const bool tail = seq >= non_tail;
    std::vector<EpochDoneMsg> dones;
    dones.reserve(n_workers);
    for (Worker& w : workers) dones.push_back(recv_epoch_done(w, rx, seq, tail));

    // Assemble the full-cluster replay set in group-index order.
    // Workers hold contiguous ascending slices, so concatenating their
    // lists in rank order IS group order.
    EpochBeginMsg begin;
    begin.seq = seq;
    begin.tail = tail;
    if (!tail) {
      begin.dedup_logs.reserve(n_groups);
      begin.pool_deltas.reserve(n_groups);
      for (EpochDoneMsg& done : dones) {
        for (auto& log : done.dedup_logs)
          begin.dedup_logs.push_back(std::move(log));
        for (auto& delta : done.pool_deltas)
          begin.pool_deltas.push_back(std::move(delta));
      }
    }

    // Cluster-wide anomaly detection: k-way merge the per-worker feeds
    // by (t, rank). Each feed is already in its worker's merged-stream
    // order and ranks own ascending group ranges, so the merged order
    // is the (t, group, emission) contract order — the exact sequence
    // the in-process guard observes. Route each culprit to its home
    // group's worker, deduped per group within the barrier (the same
    // purge_seen window the in-process scan uses).
    std::vector<MailboxBatchMsg> batches(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) batches[w].seq = seq;
    if (guard_on) {
      std::vector<std::size_t> cursor(n_workers, 0);
      for (;;) {
        std::size_t best = n_workers;
        for (std::size_t w = 0; w < n_workers; ++w) {
          if (cursor[w] >= dones[w].feed.size()) continue;
          if (best == n_workers ||
              dones[w].feed[cursor[w]].t < dones[best].feed[cursor[best]].t)
            best = w;
        }
        if (best == n_workers) break;
        const GuardFeedEntry& e = dones[best].feed[cursor[best]++];
        TraceRecord r{};
        r.t = e.t;
        r.user = UserId{e.user};
        r.type = RecordType::kSession;
        r.session_event = static_cast<SessionEvent>(e.session_event);
        if (const auto culprit = guard.observe(r)) {
          const std::size_t g = std::hash<UserId>{}(*culprit) % n_groups;
          if (purge_seen[g].insert(*culprit).second)
            batches[group_rank[g]].entries.push_back(
                MailboxEntry{static_cast<std::uint32_t>(g), culprit->value});
        }
      }
      for (auto& seen : purge_seen) seen.clear();
    }

    const std::vector<std::uint8_t> begin_payload = encode_epoch_begin(begin);
    for (std::size_t w = 0; w < n_workers; ++w) {
      send_frame(workers[w].fd, ProtoOp::kEpochBegin, begin_payload);
      send_frame(workers[w].fd, ProtoOp::kMailboxBatch,
                 encode_mailbox_batch(batches[w]));
    }
  }

  // --- Collect manifests, release the fleet.
  for (Worker& w : workers) {
    std::span<const std::uint8_t> payload;
    const ProtoOp op = recv_frame(w.fd, rx, payload);
    if (op == ProtoOp::kShutdown) {
      ShutdownMsg err;
      (void)decode_shutdown(payload, err);
      throw std::runtime_error("distributed: worker failed: " + err.message);
    }
    if (op != ProtoOp::kChunkMeta)
      throw std::runtime_error("distributed: expected ChunkMeta");
    if (const Status s = decode_chunk_meta(payload, w.meta); s != Status::kOk)
      throw_status("ChunkMeta decode", s);
    if (w.meta.counters.size() != kCtrCount ||
        w.meta.counters[kCtrChunks] != total_barriers)
      throw std::runtime_error("distributed: bad ChunkMeta manifest");
  }
  for (Worker& w : workers) {
    send_frame(w.fd, ProtoOp::kShutdown, encode_shutdown(ShutdownMsg{}));
    ::close(w.fd);
    w.fd = -1;
    int status = 0;
    const pid_t pid = w.pid;
    w.pid = -1;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
      throw std::runtime_error("distributed: worker exited abnormally");
  }

  // --- Segment readback: stream every worker's chunks in lockstep, one
  // chunk index at a time. Per chunk, replaying each group's new-symbol
  // list in (rank, local group) order == global group order reproduces
  // the oracle's global-symbol interning sequence exactly, so remapped
  // labels — and every Symbol-keyed analyzer sketch — match the
  // in-process run bit for bit.
  const bool write_trace = dynamic_cast<NullSink*>(sink_) == nullptr;
  std::vector<int> seg(n_workers, -1);
  struct SegCloser {
    std::vector<int>& fds;
    ~SegCloser() {
      for (int fd : fds)
        if (fd >= 0) ::close(fd);
    }
  } seg_closer{seg};
  for (std::size_t w = 0; w < n_workers; ++w) {
    seg[w] = ::open(workers[w].segment_path.c_str(), O_RDONLY);
    if (seg[w] < 0)
      throw std::runtime_error("distributed: cannot open segment " +
                               workers[w].segment_path);
  }

  std::vector<std::vector<Symbol>> wmap(n_workers);  // worker ids -> ours
  for (auto& m : wmap) m.assign(1, kEmptySymbol);
  std::vector<std::vector<std::unique_ptr<AnalyzerShard>>> shards(
      analyzers_.size());
  for (std::size_t a = 0; a < analyzers_.size(); ++a) {
    shards[a].reserve(n_groups);
    for (std::size_t g = 0; g < n_groups; ++g)
      shards[a].push_back(analyzers_[a]->make_shard());
  }

  std::uint64_t records_seen = 0;
  std::vector<std::vector<TraceRecord>> chunks(n_groups);
  std::vector<MergeRef> plan;
  std::string text;
  for (std::uint64_t b = 0; b < total_barriers; ++b) {
    for (std::size_t w = 0; w < n_workers; ++w) {
      if (get_varint(seg[w]) != b)
        throw std::runtime_error("distributed: segment chunk out of order");
      for (std::size_t i = 0; i < slices[w].count; ++i) {
        const std::size_t g = slices[w].first + i;
        const std::uint64_t n_syms = get_varint(seg[w]);
        for (std::uint64_t s = 0; s < n_syms; ++s) {
          const std::uint64_t wid = get_varint(seg[w]);
          const std::uint64_t len = get_varint(seg[w]);
          if (wid == 0 || wid > 0xffffffffull || len > (1u << 20))
            throw std::runtime_error("distributed: corrupt segment symbol");
          text.resize(len);
          read_exact(seg[w], text.data(), len);
          if (wid >= wmap[w].size()) wmap[w].resize(wid + 1, kEmptySymbol);
          wmap[w][wid] = global_symbols().intern(text);
        }
        const std::uint64_t n_records = get_varint(seg[w]);
        if (n_records > (1ull << 31))
          throw std::runtime_error("distributed: corrupt segment chunk");
        chunks[g].resize(n_records);
        read_exact(seg[w], chunks[g].data(),
                   n_records * sizeof(TraceRecord));
        for (TraceRecord& r : chunks[g]) {
          if (r.label == kEmptySymbol) continue;
          if (r.label >= wmap[w].size() || wmap[w][r.label] == kEmptySymbol)
            throw std::runtime_error("distributed: unmapped segment symbol");
          r.label = wmap[w][r.label];
        }
        records_seen += n_records;
      }
    }
    for (std::size_t a = 0; a < analyzers_.size(); ++a)
      for (std::size_t g = 0; g < n_groups; ++g)
        shards[a][g]->consume(chunks[g].data(), chunks[g].size());
    if (write_trace) {
      // Same maximal-run batching as the in-process stage B, so the
      // sink sees identical append_batch granularity and byte order.
      build_merge_plan(chunks, plan);
      const MergeRef* refs = plan.data();
      const std::size_t n = plan.size();
      for (std::size_t i = 0; i < n;) {
        const std::uint32_t group = refs[i].group;
        const std::uint32_t first = refs[i].offset;
        std::size_t j = i + 1;
        while (j < n && refs[j].group == group &&
               refs[j].offset == refs[j - 1].offset + 1)
          ++j;
        sink_->append_batch(&chunks[group][first], j - i);
        i = j;
      }
    }
    for (auto& chunk : chunks) chunk.clear();
  }
  for (std::size_t a = 0; a < analyzers_.size(); ++a) {
    for (std::size_t g = 0; g < n_groups; ++g)
      analyzers_[a]->merge_shard(*shards[a][g]);
    analyzers_[a]->finish();
  }

  for (std::size_t w = 0; w < n_workers; ++w) {
    ::close(seg[w]);
    seg[w] = -1;
    ::unlink(workers[w].segment_path.c_str());
  }
  ::rmdir(scratch.c_str());

  // --- Merge the per-worker reports. Per-group quantities sum; the
  // setup-replayed global quantities (bootstrap files, fault events,
  // cross-group GC) are identical in every worker — take rank 0's. The
  // first auto-response is the lexicographically first (barrier, group)
  // purge origin across workers, matching the in-process delivery order.
  SimulationReport rep;
  rep.users = config_.users;
  rep.horizon = static_cast<SimTime>(config_.days) * kDay;
  std::uint64_t best_barrier = ~0ull;
  std::uint64_t best_group = ~0ull;
  for (std::size_t w = 0; w < n_workers; ++w) {
    const std::vector<std::uint64_t>& c = workers[w].meta.counters;
    BackendStats stats;
    std::memcpy(static_cast<void*>(&stats), c.data(), sizeof(BackendStats));
    rep.backend += stats;
    rep.agent_wakeups += c[kCtrAgentWakeups];
    rep.ddos_attacks += c[kCtrDdosAttacks];
    rep.auto_purges += c[kCtrAutoPurges];
    records_flushed_ += c[kCtrRecords];
    worker_rss_kb_.push_back(c[kCtrPeakRssKb]);
    if (w == 0) {
      rep.bootstrap_files = c[kCtrBootstrapFiles];
      rep.fault_events = c[kCtrFaultEvents];
      cross_group_dead_blobs_ = c[kCtrCrossDead];
    }
    const std::uint64_t barrier = c[kCtrFirstPurgeBarrier];
    const std::uint64_t group = c[kCtrFirstPurgeGroup];
    if (barrier < best_barrier ||
        (barrier == best_barrier && group < best_group)) {
      best_barrier = barrier;
      best_group = group;
      rep.first_auto_response_delay = static_cast<SimTime>(c[kCtrFirstDelay]);
    }
  }
  if (records_seen != records_flushed_)
    throw std::runtime_error(
        "distributed: segment record count disagrees with worker manifests");
  return rep;
}

}  // namespace u1
