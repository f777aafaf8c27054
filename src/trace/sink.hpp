// Trace sinks. The back-end writes one record at a time; sinks decide what
// happens to it: keep in memory (tests, small runs), stream to analyzers
// (the production path — the real dataset is 758GB and must be reduced on
// the fly), fan out, count, or drop.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "trace/record.hpp"
#include "util/page_alloc.hpp"

namespace u1 {

/// Interface all record consumers implement.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void append(const TraceRecord& record) = 0;

  /// Delivers `count` consecutive records. Semantically identical to
  /// calling append() in order; exists so bulk producers (the parallel
  /// engine's stage-B writer hands over whole same-group runs of the
  /// merge permutation, read_logfiles hands over its k-way merge in
  /// batches of up to 65536 records) pay one virtual dispatch per run
  /// instead of one per record. Sinks with a cheaper bulk path may
  /// override.
  virtual void append_batch(const TraceRecord* records, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) append(records[i]);
  }
};

/// Keeps everything; for tests and small simulations, and each shard
/// group's epoch trace buffer in the parallel engine. The records live in
/// a PageVector, so a grown buffer's pages go back when it is freed.
class InMemorySink final : public TraceSink {
 public:
  void append(const TraceRecord& record) override {
    records_.push_back(record);
  }
  void append_batch(const TraceRecord* records, std::size_t count) override {
    records_.insert(records_.end(), records, records + count);
  }
  const PageVector<TraceRecord>& records() const noexcept {
    return records_;
  }
  /// Moves the records out, leaving the sink empty.
  PageVector<TraceRecord> take_records() noexcept {
    return std::move(records_);
  }
  void clear() noexcept { records_.clear(); }
  /// Records the backing store holds room for.
  std::size_t capacity() const noexcept { return records_.capacity(); }
  /// Exchanges the backing store with `other` — the double-buffer hook
  /// the parallel engine's flush pipeline uses to freeze an epoch's
  /// records while the next epoch keeps appending (both vectors keep
  /// their capacity, so steady state allocates nothing).
  void swap_records(PageVector<TraceRecord>& other) noexcept {
    records_.swap(other);
  }

 private:
  PageVector<TraceRecord> records_;
};

/// Fans a record out to several sinks (none owned).
class MultiSink final : public TraceSink {
 public:
  void add(TraceSink* sink);
  void append(const TraceRecord& record) override;
  std::size_t sink_count() const noexcept { return sinks_.size(); }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Counts per record type; cheap sanity probe.
class CountingSink final : public TraceSink {
 public:
  void append(const TraceRecord& record) override;
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t count(RecordType type) const noexcept;

 private:
  std::uint64_t total_ = 0;
  // Sized from the enum: a literal here once lost kFault its slot and
  // sent its counts past the end of the array.
  std::uint64_t by_type_[kRecordTypeCount] = {};
};

/// Adapts a lambda to the sink interface.
class CallbackSink final : public TraceSink {
 public:
  explicit CallbackSink(std::function<void(const TraceRecord&)> fn);
  void append(const TraceRecord& record) override { fn_(record); }

 private:
  std::function<void(const TraceRecord&)> fn_;
};

/// Drops everything.
class NullSink final : public TraceSink {
 public:
  void append(const TraceRecord&) override {}
};

}  // namespace u1
