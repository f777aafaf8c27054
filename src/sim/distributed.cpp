#include "sim/distributed.hpp"

#include <limits.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "proto/wire.hpp"
#include "sim/trace_merge.hpp"
#include "trace/record.hpp"
#include "trace/symbols.hpp"

namespace u1 {
namespace {

// ---------------------------------------------------------------------------
// EINTR-safe socket plumbing. Every fd here is a blocking socket; every
// transfer loops over short results and retries EINTR, so a signal
// delivered mid-epoch can never shear a frame (the same robustness
// contract as net/client.cpp). Sends never raise SIGPIPE: a peer that
// went away is an error the caller reports, not a process kill.

/// Sends every byte of `iov[0, n)` (no entry may be empty), consuming
/// the array as it goes.
void send_all(int fd, iovec* iov, std::size_t n) {
  while (n > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = std::min<std::size_t>(n, IOV_MAX);
    const ssize_t k = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("distributed: write failed: ") +
                               std::strerror(errno));
    }
    if (k == 0) throw std::runtime_error("distributed: write returned 0");
    for (auto left = static_cast<std::size_t>(k); left > 0;) {
      const std::size_t step = std::min(left, iov->iov_len);
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + step;
      iov->iov_len -= step;
      left -= step;
      if (iov->iov_len == 0) {
        ++iov;
        --n;
      }
    }
  }
}

void write_exact(int fd, const void* data, std::size_t n) {
  iovec v{const_cast<void*>(data), n};
  send_all(fd, &v, 1);
}

/// Reads up to `n` bytes; returns 0 only at end of stream.
std::size_t read_some(int fd, void* data, std::size_t n) {
  for (;;) {
    const ssize_t k = ::read(fd, data, n);
    if (k >= 0) return static_cast<std::size_t>(k);
    if (errno != EINTR)
      throw std::runtime_error(std::string("distributed: read failed: ") +
                               std::strerror(errno));
  }
}

void read_exact(int fd, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const std::size_t k = read_some(fd, p, n);
    if (k == 0) throw std::runtime_error("distributed: peer closed mid-frame");
    p += k;
    n -= k;
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
// Chunk-stream codec helpers (layout in distributed.hpp).

constexpr std::uint64_t kMaxLabelBytes = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxChunkRecords = std::uint64_t{1} << 31;

using wire::put_varint;

std::uint64_t get_varint(ByteSource& src) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    std::uint8_t byte = 0;
    src.read(&byte, 1);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  throw std::runtime_error("distributed: overlong varint in chunk stream");
}

[[noreturn]] void throw_truncated() {
  throw std::runtime_error("distributed: chunk stream truncated");
}

/// Buffered reads from one worker's chunk-stream socket. A read larger
/// than the buffer goes straight into the caller's memory once the
/// buffered bytes are used up, so record payloads are copied once:
/// socket to records vector.
class FdByteSource final : public ByteSource {
 public:
  explicit FdByteSource(int fd) : fd_(fd), buf_(kBufBytes) {}

  void read(void* dst, std::size_t n) override {
    if (n == 0) return;
    auto* out = static_cast<std::uint8_t*>(dst);
    for (;;) {
      const std::size_t take = std::min(n, end_ - pos_);
      std::memcpy(out, buf_.data() + pos_, take);
      pos_ += take;
      out += take;
      n -= take;
      if (n == 0) return;
      if (n >= buf_.size()) {
        for (; n > 0;) {
          const std::size_t k = fill(out, n);
          out += k;
          n -= k;
        }
        return;
      }
      pos_ = 0;
      end_ = fill(buf_.data(), buf_.size());
    }
  }

  /// True once the socket reported end of stream: the worker exited.
  bool ended() const noexcept { return eof_; }

 private:
  static constexpr std::size_t kBufBytes = std::size_t{1} << 16;

  std::size_t fill(std::uint8_t* dst, std::size_t n) {
    const std::size_t k = read_some(fd_, dst, n);
    if (k == 0) {
      eof_ = true;
      throw_truncated();
    }
    return k;
  }

  int fd_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
};

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
// global group order — the k-way feed merge and the chunk-stream merge
// both lean on it.

struct Slice {
  std::size_t first = 0;
  std::size_t count = 0;
};

/// Per-group load estimate for slice_groups, read off the setup draws:
/// each user's bootstrap file count (the dominant share of a group's
/// end-of-run footprint) plus an activity term for the trace window's
/// growth, and each DDoS attack's bot traffic on the abused account's
/// home group. The draws are freed on return, before the coordinator
/// forks. A poor estimate only degrades slice balance: the merged trace
/// is bit-identical for every contiguous split.
std::vector<double> slice_weights(const SimulationConfig& config) {
  const std::size_t n_groups = config.backend.shards;
  const auto group_of = [n_groups](UserId user) {
    return std::hash<UserId>{}(user) % n_groups;
  };
  std::vector<double> weights(n_groups, 0.0);
  /// Expected trace-window files per (session/day × day) unit, relative
  /// to one bootstrap file — a balance heuristic, not a contract.
  constexpr double kRunActivityWeight = 0.6;
  const SetupDraws draws = draw_setup(config);
  for (std::size_t i = 0; i < draws.users.size(); ++i) {
    const SetupDraws::User& user = draws.users[i];
    weights[group_of(UserId{i + 1})] +=
        static_cast<double>(user.bootstrap_files) +
        kRunActivityWeight * user.profile.activity *
            user.profile.sessions_per_day * config.days;
  }
  // DDoS attacks pin thousands of bot sessions — and attack-hour epoch
  // chunks — on the abused account's home group for the response
  // window. The schedule and the account ids are deterministic, so the
  // planner can keep the Jan-16 (245x) group out of the heaviest slice.
  if (config.enable_ddos) {
    /// Worker-RSS cost of one bot operation relative to one bootstrap
    /// file (records + session churn vs node + mirror + records).
    constexpr double kAttackOpWeight = 0.2;
    const double population_scale =
        static_cast<double>(config.users) / 10000.0;
    const auto schedule =
        paper_attack_schedule(config.ddos_bot_scale * population_scale);
    for (std::size_t a = 0; a < schedule.size(); ++a) {
      const DdosAttackSpec& spec = schedule[a];
      const double hours =
          static_cast<double>(spec.response_delay) / static_cast<double>(kHour);
      weights[group_of(UserId{kFirstAttackAccount + a})] +=
          kAttackOpWeight * spec.bots * spec.connects_per_hour * hours *
          (1.0 + spec.downloads_per_connection);
    }
  }
  return weights;
}

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
/// chunks over the chunk-stream socket. exchange() runs on the engine's
/// coordinator thread and write_chunk() on its flush tasks, one call at a
/// time; they touch disjoint sockets, so the two never race.
class WorkerPeer final : public EpochPeer {
 public:
  WorkerPeer(int control_fd, int stream_fd, std::uint32_t first_group)
      : fd_(control_fd), stream_fd_(stream_fd), first_group_(first_group) {}

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
      const std::vector<PageVector<TraceRecord>>& chunks,
      const std::vector<std::vector<std::pair<Symbol, std::string>>>&
          new_symbols,
      std::size_t first_group, std::size_t group_count) override {
    encode_chunk(chunk_seq_++, chunks, new_symbols, first_group, group_count,
                 meta_, parts_);
    iov_.clear();
    for (const std::span<const std::uint8_t> part : parts_)
      if (!part.empty())
        iov_.push_back(iovec{const_cast<std::uint8_t*>(part.data()),
                             part.size()});
    send_all(stream_fd_, iov_.data(), iov_.size());
  }

  std::uint64_t chunks_written() const noexcept { return chunk_seq_; }

 private:
  int fd_;
  int stream_fd_;
  std::uint32_t first_group_;
  std::uint64_t chunk_seq_ = 0;
  std::vector<std::uint8_t> rx_;
  std::vector<std::uint8_t> meta_;
  std::vector<std::span<const std::uint8_t>> parts_;
  std::vector<iovec> iov_;
};

/// Whole worker-process lifetime: run the engine in worker mode, ship
/// the manifest, wait for the shutdown frame, then _exit at once — the
/// engine's destructors would only free memory the exit frees anyway,
/// and the coordinator's waitpid would wait through them. Never throws:
/// a failure is reported to the coordinator as a Shutdown{1} frame and a
/// nonzero exit code.
[[noreturn]] void worker_main(const SimulationConfig& config,
                              std::size_t threads, const Slice& slice,
                              int fd, int stream_fd) noexcept {
  try {
    NullSink null;
    ParallelSimulation sim(config, null, threads);
    WorkerPeer peer(fd, stream_fd, static_cast<std::uint32_t>(slice.first));
    sim.enable_worker_mode(peer, slice.first, slice.count);
    const SimulationReport rep = sim.run();

    const ChunkMetaMsg meta = pack_meta(rep, sim, peer.chunks_written());
    send_frame(fd, ProtoOp::kChunkMeta, encode_chunk_meta(meta));

    std::vector<std::uint8_t> rx;
    std::span<const std::uint8_t> payload;
    ShutdownMsg bye;
    if (recv_frame(fd, rx, payload) != ProtoOp::kShutdown ||
        decode_shutdown(payload, bye) != Status::kOk)
      ::_exit(2);
    ::_exit(static_cast<int>(bye.code));
  } catch (const std::exception& e) {
    ShutdownMsg err;
    err.code = 1;
    err.message = e.what();
    try {
      send_frame(fd, ProtoOp::kShutdown, encode_shutdown(err));
    } catch (...) {
    }
  } catch (...) {
  }
  ::_exit(1);
}

// ---------------------------------------------------------------------------
// Coordinator side.

struct Worker {
  pid_t pid = -1;
  int fd = -1;         // control socket
  int stream_fd = -1;  // chunk stream
  Slice slice;
  ChunkMetaMsg meta;
};

/// Kills and reaps every still-live child on scope exit, so a throw in
/// the middle of the relay never leaks worker processes.
class ChildReaper {
 public:
  explicit ChildReaper(std::vector<Worker>& workers) : workers_(workers) {}
  ~ChildReaper() {
    for (Worker& w : workers_) {
      for (int* fd : {&w.fd, &w.stream_fd}) {
        if (*fd >= 0) ::close(*fd);
        *fd = -1;
      }
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

/// The coordinator's half of the chunk streams. One reader thread per
/// worker pulls whole chunks off that worker's socket as the bytes
/// arrive, holding at most `depth` decoded chunks (the workers' flush
/// ring K); the merge thread takes chunk b from every worker in rank
/// order, replays its symbols, feeds the analyzer shards and writes the
/// merged epoch to the sink. Neither thread ever waits on the barrier
/// relay, and the relay never waits on them (DESIGN.md §12 has the
/// deadlock-freedom argument). The first error from any thread — or the
/// relay's, via fail() — stops the rest and is rethrown by join().
class ChunkMerger {
 public:
  ChunkMerger(const std::vector<Worker>& workers, std::size_t n_groups,
              std::uint64_t chunks, std::size_t depth, TraceSink* sink,
              std::vector<std::vector<std::unique_ptr<AnalyzerShard>>>& shards)
      : workers_(workers),
        n_groups_(n_groups),
        chunks_(chunks),
        depth_(depth),
        sink_(sink),
        shards_(shards),
        inbox_(workers.size()) {
    decoders_.reserve(workers.size());
    for (const Worker& w : workers) decoders_.emplace_back(w.slice.count);
  }

  ChunkMerger(const ChunkMerger&) = delete;
  ChunkMerger& operator=(const ChunkMerger&) = delete;

  ~ChunkMerger() {
    stop();
    join_threads();
  }

  void start() {
    for (std::size_t w = 0; w < workers_.size(); ++w)
      readers_.emplace_back([this, w] { read_loop(w); });
    merger_ = std::thread([this] { merge_loop(); });
  }

  /// Every worker's manifest is in, so every chunk is already on its
  /// way: a stream that ended short is now an error, not a race with
  /// the relay's own report of the worker's failure.
  void relay_done() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      relay_done_ = true;
    }
    cv_.notify_all();
  }

  /// Records `error` unless an earlier one is recorded, and stops the
  /// readers and the merge. Each worker's next chunk send then fails, so
  /// it reports Shutdown{1} and exits, and the relay throws at its next
  /// frame from that worker.
  void fail(std::exception_ptr error) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = error;
    }
    stop();
  }

  /// Waits for the readers and the merge; rethrows the first error.
  void join() {
    join_threads();
    if (error_) std::rethrow_exception(error_);
  }

  std::uint64_t records() const noexcept { return records_; }

 private:
  struct Inbox {
    std::deque<WireChunk> ready;
    bool ended = false;  // the worker closed its stream (exited)
  };

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      stop_ = true;
    }
    cv_.notify_all();
    // A reader parked in read() sees end of stream; a worker's send fails.
    for (const Worker& w : workers_) ::shutdown(w.stream_fd, SHUT_RDWR);
  }

  void join_threads() {
    for (std::thread& t : readers_)
      if (t.joinable()) t.join();
    if (merger_.joinable()) merger_.join();
  }

  void read_loop(std::size_t w) {
    try {
      read_chunks(w);
    } catch (...) {
      fail(std::current_exception());
    }
  }

  void read_chunks(std::size_t w) {
    FdByteSource src(workers_[w].stream_fd);
    try {
      for (std::uint64_t b = 0; b < chunks_; ++b) {
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, [&] {
            return stop_ || broken_ || inbox_[w].ready.size() < depth_;
          });
          if (stop_) return;
        }
        WireChunk chunk;
        decoders_[w].read(src, chunk);
        {
          const std::lock_guard<std::mutex> lock(mu_);
          inbox_[w].ready.push_back(std::move(chunk));
        }
        cv_.notify_all();
      }
    } catch (const std::runtime_error&) {
      if (!src.ended()) throw;
      // The worker exited short of its last chunk. Its own failure
      // report is on the control socket; lift the buffering cap so the
      // others can never stall the relay before it reads that report.
      {
        const std::lock_guard<std::mutex> lock(mu_);
        inbox_[w].ended = true;
        broken_ = true;
      }
      cv_.notify_all();
    }
  }

  /// Next chunk from worker `w`; false once stopped.
  bool pop(std::size_t w, std::uint64_t b, WireChunk& out) {
    std::unique_lock<std::mutex> lock(mu_);
    Inbox& in = inbox_[w];
    cv_.wait(lock, [&] {
      return stop_ || !in.ready.empty() || (in.ended && relay_done_);
    });
    if (stop_) return false;
    if (in.ready.empty())
      throw std::runtime_error("distributed: worker " + std::to_string(w) +
                               " chunk stream ended before chunk " +
                               std::to_string(b));
    out = std::move(in.ready.front());
    in.ready.pop_front();
    lock.unlock();
    cv_.notify_all();
    return true;
  }

  void merge_loop() {
    try {
      // Per chunk, resolving each worker's groups in (rank, local group)
      // order == global group order replays the oracle's global-symbol
      // interning sequence exactly, so remapped labels — and every
      // Symbol-keyed analyzer sketch — match the in-process run bit for
      // bit.
      std::vector<WireChunk> wire(workers_.size());
      std::vector<std::vector<TraceRecord>> chunks(n_groups_);
      std::vector<MergeRef> plan;
      for (std::uint64_t b = 0; b < chunks_; ++b) {
        for (std::size_t w = 0; w < workers_.size(); ++w) {
          if (!pop(w, b, wire[w])) return;
          records_ += decoders_[w].resolve(wire[w], global_symbols());
          for (std::size_t i = 0; i < wire[w].groups.size(); ++i)
            chunks[workers_[w].slice.first + i] =
                std::move(wire[w].groups[i].records);
        }
        for (auto& per_group : shards_)
          for (std::size_t g = 0; g < n_groups_; ++g)
            per_group[g]->consume(chunks[g].data(), chunks[g].size());
        if (sink_ != nullptr) {
          build_merge_plan(chunks, plan);
          write_merged(chunks, plan, *sink_);
        }
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }

  const std::vector<Worker>& workers_;
  std::size_t n_groups_;
  std::uint64_t chunks_;
  std::size_t depth_;
  TraceSink* sink_;  // nullptr: analysis only
  std::vector<std::vector<std::unique_ptr<AnalyzerShard>>>& shards_;
  std::vector<ChunkStreamDecoder> decoders_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Inbox> inbox_;     // mu_
  bool stop_ = false;            // mu_
  bool broken_ = false;          // mu_: a stream ended early
  bool relay_done_ = false;      // mu_
  std::exception_ptr error_;     // mu_; read by join() after the joins
  std::uint64_t records_ = 0;    // merge thread; read after join()

  std::vector<std::thread> readers_;
  std::thread merger_;
};

/// Barrier relay: B non-tail barriers (one per engine epoch) and the two
/// run-tail exchanges; every worker hits every barrier in lockstep, and
/// the reply carries the cluster-wide replay set. Returns once every
/// worker's ChunkMeta manifest is in, each counting `total_chunks` chunks
/// sent. Never waits on the chunk streams.
void relay_barriers(std::vector<Worker>& workers, std::size_t n_groups,
                    bool guard_on, std::uint64_t non_tail,
                    std::uint64_t total_barriers, std::uint64_t total_chunks) {
  const std::size_t n_workers = workers.size();
  AnomalyGuard guard;
  std::vector<std::unordered_set<UserId>> purge_seen(n_groups);
  std::vector<std::size_t> group_rank(n_groups);
  for (std::size_t w = 0; w < n_workers; ++w)
    for (std::size_t i = 0; i < workers[w].slice.count; ++i)
      group_rank[workers[w].slice.first + i] = w;
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

  // --- Collect the manifests.
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
    if (const Status s = decode_chunk_meta(payload, w.meta);
        s != Status::kOk)
      throw_status("ChunkMeta decode", s);
    if (w.meta.counters.size() != kCtrCount ||
        w.meta.counters[kCtrChunks] != total_chunks)
      throw std::runtime_error("distributed: bad ChunkMeta manifest");
  }
}

}  // namespace

void encode_chunk(
    std::uint64_t seq, const std::vector<PageVector<TraceRecord>>& chunks,
    const std::vector<std::vector<std::pair<Symbol, std::string>>>&
        new_symbols,
    std::size_t first_group, std::size_t group_count,
    std::vector<std::uint8_t>& meta,
    std::vector<std::span<const std::uint8_t>>& parts) {
  // First pass: every varint and label into `meta`, remembering where
  // each group's record payload goes; spans into `meta` are taken only
  // once it has stopped growing.
  meta.clear();
  parts.clear();
  put_varint(meta, seq);
  std::vector<std::size_t> cuts;
  cuts.reserve(group_count);
  for (std::size_t i = 0; i < group_count; ++i) {
    const std::size_t g = first_group + i;
    put_varint(meta, new_symbols[g].size());
    for (const auto& [sym, label] : new_symbols[g]) {
      put_varint(meta, sym);
      put_varint(meta, label.size());
      meta.insert(meta.end(), label.begin(), label.end());
    }
    put_varint(meta, chunks[g].size());
    cuts.push_back(meta.size());
  }
  std::size_t from = 0;
  for (std::size_t i = 0; i < group_count; ++i) {
    const PageVector<TraceRecord>& records = chunks[first_group + i];
    parts.emplace_back(meta.data() + from, cuts[i] - from);
    parts.emplace_back(reinterpret_cast<const std::uint8_t*>(records.data()),
                       records.size() * sizeof(TraceRecord));
    from = cuts[i];
  }
}

void SpanByteSource::read(void* dst, std::size_t n) {
  if (n > bytes_.size()) throw_truncated();
  if (n == 0) return;
  std::memcpy(dst, bytes_.data(), n);
  bytes_ = bytes_.subspan(n);
}

void ChunkStreamDecoder::read(ByteSource& src, WireChunk& out) {
  const std::uint64_t seq = get_varint(src);
  if (seq != next_seq_)
    throw std::runtime_error("distributed: chunk " + std::to_string(seq) +
                             " out of order, expected " +
                             std::to_string(next_seq_));
  ++next_seq_;
  out.groups.resize(group_count_);
  for (WireChunk::Group& group : out.groups) {
    const std::uint64_t n_syms = get_varint(src);
    group.symbols.clear();
    for (std::uint64_t s = 0; s < n_syms; ++s) {
      const std::uint64_t id = get_varint(src);
      if (id == 0 || id > std::numeric_limits<std::uint32_t>::max())
        throw std::runtime_error("distributed: chunk symbol id " +
                                 std::to_string(id) + " out of range");
      const std::uint64_t len = get_varint(src);
      if (len > kMaxLabelBytes)
        throw std::runtime_error("distributed: chunk label of " +
                                 std::to_string(len) +
                                 " bytes exceeds 1 MiB");
      std::string label(len, '\0');
      src.read(label.data(), len);
      group.symbols.emplace_back(static_cast<std::uint32_t>(id),
                                 std::move(label));
    }
    const std::uint64_t n_records = get_varint(src);
    if (n_records > kMaxChunkRecords)
      throw std::runtime_error("distributed: chunk of " +
                               std::to_string(n_records) +
                               " records exceeds 2^31");
    group.records.resize(n_records);
    src.read(group.records.data(), n_records * sizeof(TraceRecord));
  }
}

std::uint64_t ChunkStreamDecoder::resolve(WireChunk& chunk,
                                          SymbolTable& symbols) {
  std::uint64_t records = 0;
  for (WireChunk::Group& group : chunk.groups) {
    for (const auto& [id, label] : group.symbols) {
      if (id >= map_.size()) map_.resize(std::size_t{id} + 1, kEmptySymbol);
      map_[id] = symbols.intern(label);
    }
    for (TraceRecord& r : group.records) {
      if (r.label == kEmptySymbol) continue;
      if (r.label >= map_.size() || map_[r.label] == kEmptySymbol)
        throw std::runtime_error("distributed: chunk record label " +
                                 std::to_string(r.label) +
                                 " was never defined");
      r.label = map_[r.label];
    }
    records += group.records.size();
  }
  return records;
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
      procs_(procs),
      threads_(threads == 0 ? 1 : threads) {
  if (procs == 0)
    throw std::invalid_argument("DistributedSimulation: procs must be >= 1");
  if (config.users == 0 || config.days <= 0 || config.backend.shards == 0)
    throw std::invalid_argument(
        "DistributedSimulation: users, days and shards must be > 0");
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
  return procs_ == 1 ? run_inline() : run_forked();
}

SimulationReport DistributedSimulation::run_inline() {
  ParallelSimulation sim(config_, *sink_, threads_);
  for (ShardedAnalyzer* a : analyzers_) sim.attach_analyzer(*a);
  const SimulationReport rep = sim.run();
  records_flushed_ = sim.records_flushed();
  worker_rss_kb_ = {peak_rss_kb()};
  return rep;
}

SimulationReport DistributedSimulation::run_forked() {
  const std::size_t n_groups = config_.backend.shards;
  const std::size_t n_workers = procs_;
  const std::vector<Slice> slices =
      slice_groups(n_groups, n_workers, slice_weights(config_));

  std::vector<Worker> workers(n_workers);
  ChildReaper reaper(workers);

  // Fork the fleet FIRST — before any engine state exists in this
  // process — so each child starts from a near-empty heap and its peak
  // RSS reflects only its own slice's steady state (plus the shared
  // setup replay). The coordinator never builds a simulation, and starts
  // its merge threads only once every child is forked.
  for (std::size_t w = 0; w < n_workers; ++w) {
    workers[w].slice = slices[w];
    int ctl[2];
    int stream[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, ctl) != 0)
      throw std::runtime_error("distributed: socketpair failed");
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, stream) != 0) {
      ::close(ctl[0]);
      ::close(ctl[1]);
      throw std::runtime_error("distributed: socketpair failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (const int fd : {ctl[0], ctl[1], stream[0], stream[1]}) ::close(fd);
      throw std::runtime_error("distributed: fork failed");
    }
    if (pid == 0) {
      // Child: drop every parent-side fd inherited so far, then run the
      // worker to completion. worker_main _exits — no atexit/static
      // teardown; the coordinator owns the process-wide resources.
      ::close(ctl[0]);
      ::close(stream[0]);
      for (std::size_t p = 0; p < w; ++p) {
        ::close(workers[p].fd);
        ::close(workers[p].stream_fd);
      }
      worker_main(config_, threads_, slices[w], ctl[1], stream[1]);
    }
    ::close(ctl[1]);
    ::close(stream[1]);
    workers[w].pid = pid;
    workers[w].fd = ctl[0];
    workers[w].stream_fd = stream[0];
  }

  const SimTime horizon = static_cast<SimTime>(config_.days) * kDay;
  const SimTime epoch = epoch_length(config_);
  const auto non_tail =
      static_cast<std::uint64_t>((horizon + epoch - 1) / epoch);
  const std::uint64_t total_barriers = non_tail + 2;
  // Each worker sends one chunk per bootstrap window, one after each
  // non-tail barrier and the run tail's.
  const std::uint64_t total_chunks = bootstrap_windows(config_) + non_tail + 1;

  // --- Chunk merge: every worker's chunks, merged on the coordinator's
  // merge thread while the relay below keeps going.
  std::vector<std::vector<std::unique_ptr<AnalyzerShard>>> shards(
      analyzers_.size());
  for (std::size_t a = 0; a < analyzers_.size(); ++a) {
    shards[a].reserve(n_groups);
    for (std::size_t g = 0; g < n_groups; ++g)
      shards[a].push_back(analyzers_[a]->make_shard());
  }
  const bool write_trace = dynamic_cast<NullSink*>(sink_) == nullptr;
  ChunkMerger merger(workers, n_groups, total_chunks,
                     ParallelSimulation::kFlushDepth,
                     write_trace ? sink_ : nullptr, shards);
  merger.start();

  try {
    relay_barriers(workers, n_groups, config_.auto_countermeasures, non_tail,
                   total_barriers, total_chunks);
    merger.relay_done();
    for (Worker& w : workers)
      send_frame(w.fd, ProtoOp::kShutdown, encode_shutdown(ShutdownMsg{}));
  } catch (...) {
    merger.fail(std::current_exception());
  }
  merger.join();  // rethrows the first error; the reaper kills the fleet

  for (Worker& w : workers) {
    ::close(w.fd);
    ::close(w.stream_fd);
    w.fd = -1;
    w.stream_fd = -1;
    int status = 0;
    const pid_t pid = w.pid;
    w.pid = -1;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
      throw std::runtime_error("distributed: worker exited abnormally");
  }
  for (std::size_t a = 0; a < analyzers_.size(); ++a) {
    for (std::size_t g = 0; g < n_groups; ++g)
      analyzers_[a]->merge_shard(*shards[a][g]);
    analyzers_[a]->finish();
  }

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
  if (merger.records() != records_flushed_)
    throw std::runtime_error(
        "distributed: chunk-stream record count disagrees with worker "
        "manifests");
  return rep;
}

}  // namespace u1
