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
// Topology per run (procs > 1):
//
//   coordinator ── socketpair ── worker 0   groups [0, k0)
//              ├── socketpair ── worker 1   groups [k0, k1)
//              └── socketpair ── worker W-1 groups [.., G)
//
// The coordinator forks before any heavy allocation and never builds an
// engine of its own; each worker replays the full deterministic setup
// (every master-RNG draw) and then frees the remote groups' state, so
// per-process peak RSS drops roughly 1/P once the month's live state
// dominates the setup replay. Workers write their trace-chunk segments
// to local scratch files — only barrier control traffic and the final
// ChunkMeta manifest cross the sockets — and the coordinator k-way
// merges the segments at close, replaying each chunk's new-symbol lists
// in group order so its global symbol ids match the oracle's bit for
// bit (analysis/file_types.cpp keys a sketch by raw Symbol id).
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
// The AnomalyGuard runs on the coordinator: workers ship the minimal
// observation feed (already in per-worker merged order), the coordinator
// k-way merges the feeds into the cluster-wide (t, group) order, runs
// detection, and routes each purge to the culprit's home worker — the
// same detection points and delivery barriers as the in-process engine.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/control.hpp"
#include "sim/mailbox.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"
#include "trace/sink.hpp"

namespace u1 {

/// Worker-process count from U1SIM_PROCS (>= 1; unset/invalid -> 1).
std::size_t env_proc_count();

/// Bridges between the in-process EpochMailbox and the wire MailboxBatch
/// frame. drain_to_batch empties the mailbox into a batch (lane order,
/// ring before spill — the deterministic drain order); post_batch posts
/// every entry back, preserving order. Round-tripping through these is
/// how the coordinator's purge routing reaches a worker's mailbox.
MailboxBatchMsg drain_to_batch(EpochMailbox<UserId>& mail, std::uint64_t seq);
void post_batch(const MailboxBatchMsg& batch, EpochMailbox<UserId>& mail);

/// Coordinator front end. Mirrors ParallelSimulation's surface (run once,
/// attach analyzers before run, records_flushed for bench rates) and
/// delegates to a plain in-process ParallelSimulation when procs <= 1.
class DistributedSimulation {
 public:
  /// procs == 0 resolves U1SIM_PROCS (default 1); clamped to the group
  /// count. `threads` is the per-worker thread-pool size (1 = inline
  /// oracle schedule inside each worker).
  DistributedSimulation(const SimulationConfig& config, TraceSink& sink,
                        std::size_t procs = 0, std::size_t threads = 1);

  DistributedSimulation(const DistributedSimulation&) = delete;
  DistributedSimulation& operator=(const DistributedSimulation&) = delete;

  /// Forks the workers, relays the barriers, merges the trace segments
  /// into the sink and returns the merged report. Call once.
  SimulationReport run();

  /// Registers a sharded analyzer (before run()). Shards are fed on the
  /// coordinator during segment readback, per group in chunk order —
  /// the same per-group streams, in the same order, as the in-process
  /// engine's stage A.
  void attach_analyzer(ShardedAnalyzer& analyzer);

  std::size_t proc_count() const noexcept { return procs_; }
  std::size_t threads() const noexcept { return threads_; }

  /// Total records the workers handed to their flush pipelines (== the
  /// in-process engine's records_flushed for the same config).
  std::uint64_t records_flushed() const noexcept { return records_flushed_; }
  std::uint64_t cross_group_dead_blobs() const noexcept {
    return cross_group_dead_blobs_;
  }

  /// Per-worker peak RSS (ru_maxrss, KiB) reported in each ChunkMeta;
  /// one entry per worker process (one entry for the whole process when
  /// procs <= 1). The bench records these for the 1/P memory claim.
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
  std::uint64_t cross_group_dead_blobs_ = 0;
  std::vector<std::uint64_t> worker_rss_kb_;
  bool ran_ = false;
};

}  // namespace u1
