// Sharded streaming analysis: the in-worker fan-out contract between
// analyzers and the shard-parallel engine.
//
// The merged-stream path (every analyzer is a TraceSink fed by stage B)
// is exact but serial — one thread walks every record of the run, and
// per-entity state grows O(records). A ShardedAnalyzer instead hands the
// engine one AnalyzerShard per shard group; stage A feeds each shard its
// group's records (sorted, labels already remapped to global symbol
// ids) on the flush-pipeline threads, overlapping the next epoch's
// compute. At the end of the run the engine folds the shards back with
// merge_shard() in group-index order — a thread-count-independent order
// over thread-count-independent per-group streams, so the merged results
// are bit-identical at any worker count.
//
// Correctness lean: users, sessions and nodes are disjoint across shard
// groups (group_of hashes the user id, and every session/node belongs
// to one user), so per-entity state partitions exactly; only the
// sketch-backed distribution summaries carry approximation error, and
// the exact merged path stays the small-scale oracle (bench_analysis).
#pragma once

#include <cstdint>
#include <memory>

#include "trace/record.hpp"

namespace u1 {

/// One shard group's slice of an analyzer's state. Built by
/// ShardedAnalyzer::make_shard(), fed whole per-group chunks, folded
/// back with merge_shard(). Never touched by two threads at once: the
/// engine guarantees at most one stage A is in flight and each chunk is
/// claimed by exactly one prep thread.
class AnalyzerShard {
 public:
  virtual ~AnalyzerShard() = default;

  /// Consumes `count` records of this shard group's stream — sorted by
  /// timestamp within the chunk, chunks arriving in epoch order, labels
  /// already global.
  virtual void consume(const TraceRecord* records, std::size_t count) = 0;
};

/// An analyzer that can run sharded. Implementations typically also
/// derive from TraceSink (the exact merged-stream path); which path
/// filled the analyzer decides which accessors are exact vs
/// sketch-backed.
class ShardedAnalyzer {
 public:
  virtual ~ShardedAnalyzer() = default;

  /// A fresh, empty shard. Called once per shard group before the run.
  virtual std::unique_ptr<AnalyzerShard> make_shard() = 0;

  /// Folds one shard's state into the analyzer. The engine calls this
  /// exactly once per shard, in group-index order, after the last
  /// record has been consumed. The shard may be cannibalized (moved
  /// from).
  virtual void merge_shard(AnalyzerShard& shard) = 0;

  /// Called once after every shard has merged; close the books here
  /// (e.g. count still-open sessions).
  virtual void finish() {}
};

}  // namespace u1
