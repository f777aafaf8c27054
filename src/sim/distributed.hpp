// Multi-process shard distribution (DESIGN.md §12): a coordinator that
// forks N worker processes, each running a ParallelSimulation in worker
// mode over a contiguous slice of the shard groups, synchronized at the
// engine's epoch barriers over the length-prefixed control plane
// (proto/control.hpp). Process and thread parallelism compose — each
// worker runs its slice with its own worker-thread pool — and the merged
// trace plus every sharded-analyzer figure is bit-identical to the
// in-process engine for ANY (procs, threads) split; the 1×1 run is the
// oracle.
//
// Topology per run (procs > 1), two socketpairs per worker:
//
//   coordinator ══ control + chunk stream ══ worker 0   groups [0, k0)
//              ╠═ control + chunk stream ══ worker 1   groups [k0, k1)
//              ╚═ control + chunk stream ══ worker W-1 groups [.., G)
//
// The coordinator forks before any heavy allocation and never builds an
// engine of its own; each worker replays the full deterministic setup
// (every master-RNG draw) and then frees the remote groups' state, so
// per-process peak RSS drops roughly 1/P once the month's live state
// dominates the setup replay. Each worker sends every finished trace
// chunk over its chunk-stream socket while it keeps simulating; a
// coordinator merge thread takes chunk b from every worker as soon as
// the slowest one has sent it, replays the chunk's new-symbol lists in
// group order so its global symbol ids match the oracle's bit for bit
// (analysis/file_types.cpp keys a sketch by raw Symbol id), feeds the
// analyzer shards and hands the merged epoch to the sink — all while the
// barrier relay keeps the workers going. Nothing touches the filesystem.
//
// Barrier sequence (one line per control frame; B = the epoch count,
// horizon / epoch_length(config)):
//
//   worker  ──EpochDone{seq, local logs+deltas, guard feed}──▶ coordinator
//   worker  ◀──EpochBegin{seq, ALL groups' logs+deltas}────── coordinator
//   worker  ◀──MailboxBatch{seq, purges routed to my lanes}── coordinator
//     × (B non-tail + 2 tail barriers)
//   worker  ──ChunkMeta{report counters, peak RSS, timings}─▶ coordinator
//   worker  ◀──Shutdown{0}───────────────────────────────── coordinator
//
// and, on the chunk-stream socket, at the worker's own pace:
//
//   worker  ══chunks 0..W-1 (bootstrap), chunk W+s after barrier s══▶ merge
//
// (W = bootstrap_windows(config): the bootstrap history flushes one
// epoch-long window per chunk, all before barrier 0; sim/simulation.hpp)
//
// The relay never waits on the merge thread. The merge thread's reader
// drains every stream as bytes arrive but buffers at most K complete
// chunks per worker (K = ParallelSimulation::kFlushDepth, the workers'
// flush-ring depth); DESIGN.md §12
// shows why that bound can never stall a worker the merge is waiting
// on. A worker exits (_exit, no engine teardown) as soon as it decodes
// Shutdown.
//
// The AnomalyGuard runs on the coordinator: workers ship the minimal
// observation feed (already in per-worker merged order), the coordinator
// k-way merges the feeds into the cluster-wide (t, group) order, runs
// detection, and routes each purge to the culprit's home worker — the
// same detection points and delivery barriers as the in-process engine.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "proto/control.hpp"
#include "sim/mailbox.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "trace/symbols.hpp"
#include "util/page_alloc.hpp"

namespace u1 {

/// Chunk-stream codec: one worker's finished trace chunks on its
/// chunk-stream socket, in chunk order, each laid out as
///
///   varint chunk_seq
///   per local group, ascending:
///     varint n_syms    then n_syms × (varint worker_global_id,
///                                     varint len, len raw bytes)
///     varint n_records then n_records × sizeof(TraceRecord) raw bytes
///
/// encode_chunk writes every varint and label into `meta` and lists the
/// chunk, in order, in `parts`: slices of `meta` interleaved with each
/// group's record payload, which is sent straight from the engine's
/// chunk buffer and never copied. The spans stay valid until `meta` or
/// `chunks` changes.
void encode_chunk(
    std::uint64_t seq, const std::vector<PageVector<TraceRecord>>& chunks,
    const std::vector<std::vector<std::pair<Symbol, std::string>>>&
        new_symbols,
    std::size_t first_group, std::size_t group_count,
    std::vector<std::uint8_t>& meta,
    std::vector<std::span<const std::uint8_t>>& parts);

/// What the chunk decoder pulls from. read() fills exactly `n` bytes or
/// throws std::runtime_error ("chunk stream truncated") when the stream
/// ends first.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual void read(void* dst, std::size_t n) = 0;
};

/// A ByteSource over bytes already in memory.
class SpanByteSource final : public ByteSource {
 public:
  explicit SpanByteSource(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}
  void read(void* dst, std::size_t n) override;
  std::size_t remaining() const noexcept { return bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
};

/// One chunk as it came off the wire: labels still in the worker's ids.
struct WireChunk {
  struct Group {
    std::vector<std::pair<std::uint32_t, std::string>> symbols;
    std::vector<TraceRecord> records;
  };
  std::vector<Group> groups;  // the worker's local groups, ascending
};

/// Decodes one worker's chunk stream in two halves. read() pulls the
/// next chunk from `src` and checks its framing; resolve() replays its
/// new symbols into `symbols` and remaps every label to `symbols`' ids.
/// Chunks must go through resolve() in stream order. The halves touch
/// disjoint state, so one thread may read ahead while another resolves.
/// Both throw std::runtime_error naming the cause: read() on truncation,
/// an out-of-order seq, a symbol id outside [1, 2^32 - 1], a label over
/// 1 MiB or more than 2^31 records in a group; resolve() on a label the
/// stream never defined.
class ChunkStreamDecoder {
 public:
  explicit ChunkStreamDecoder(std::size_t group_count)
      : group_count_(group_count) {}

  void read(ByteSource& src, WireChunk& out);
  /// Returns the number of records in the chunk.
  std::uint64_t resolve(WireChunk& chunk, SymbolTable& symbols);

 private:
  std::size_t group_count_;
  std::uint64_t next_seq_ = 0;             // read() side
  std::vector<Symbol> map_{kEmptySymbol};  // resolve() side: worker id -> ours
};

/// Bridges between the in-process EpochMailbox and the wire MailboxBatch
/// frame. drain_to_batch empties the mailbox into a batch (lane order,
/// ring before spill — the deterministic drain order); post_batch posts
/// every entry back, preserving order. Round-tripping through these is
/// how the coordinator's purge routing reaches a worker's mailbox.
MailboxBatchMsg drain_to_batch(EpochMailbox<UserId>& mail, std::uint64_t seq);
void post_batch(const MailboxBatchMsg& batch, EpochMailbox<UserId>& mail);

/// Coordinator front end. Mirrors ParallelSimulation's surface (run once,
/// attach analyzers before run, records_flushed for bench rates) and
/// delegates to a plain in-process ParallelSimulation when procs == 1.
class DistributedSimulation {
 public:
  /// `procs` is the worker-process count: >= 1 (0 throws
  /// std::invalid_argument), clamped to the group count. `threads` is the
  /// per-worker thread-pool size (1 = inline oracle schedule inside each
  /// worker).
  DistributedSimulation(const SimulationConfig& config, TraceSink& sink,
                        std::size_t procs, std::size_t threads = 1);

  DistributedSimulation(const DistributedSimulation&) = delete;
  DistributedSimulation& operator=(const DistributedSimulation&) = delete;

  /// Forks the workers, relays the barriers while merging their chunk
  /// streams into the sink, and returns the merged report. The sink is
  /// called from a coordinator merge thread, not the caller's. If the
  /// relay or the merge fails, every worker is reaped and the first
  /// error is rethrown. Call once.
  SimulationReport run();

  /// Registers a sharded analyzer (before run()). Shards are fed on the
  /// coordinator's merge thread, per group in chunk order — the same
  /// per-group streams, in the same order, as the in-process engine's
  /// stage A.
  void attach_analyzer(ShardedAnalyzer& analyzer);

  std::size_t proc_count() const noexcept { return procs_; }
  std::size_t threads() const noexcept { return threads_; }

  /// Total records the workers handed to their flush pipelines (== the
  /// in-process engine's records_flushed for the same config).
  std::uint64_t records_flushed() const noexcept { return records_flushed_; }

  /// Per-worker peak RSS (ru_maxrss, KiB) reported in each ChunkMeta;
  /// one entry per worker process (one entry for the whole process when
  /// procs == 1). The bench records these for the 1/P memory claim.
  const std::vector<std::uint64_t>& worker_peak_rss_kb() const noexcept {
    return worker_rss_kb_;
  }

 private:
  SimulationReport run_inline();
  SimulationReport run_forked();

  SimulationConfig config_;
  TraceSink* sink_;
  std::size_t procs_;
  std::size_t threads_;
  std::vector<ShardedAnalyzer*> analyzers_;
  std::uint64_t records_flushed_ = 0;
  std::vector<std::uint64_t> worker_rss_kb_;
  bool ran_ = false;
};

}  // namespace u1
