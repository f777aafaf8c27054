// The four benchmark workloads and the trace-sink probe two of them share.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "trace/sink.hpp"

namespace u1b {

/// ParallelSimulation (2 threads) or DistributedSimulation (2 procs x 1
/// thread) writing the binary trace; checks the output directory SHA-1
/// against the 1-thread ParallelSimulation oracle.
Outcome run_month_generate(const Options& opt, bool distributed);
/// Generates the trace in set-up, then times read_logfiles into the nine
/// Table 1 analyzers plus extract_findings.
Outcome run_paper_replay(const Options& opt);
/// In-process U1dServer plus three closed-loop BlockingClient connections.
Outcome run_u1d_closedloop(const Options& opt);

/// Pass-through sink in front of a trace writer. Always counts records
/// and pre-window (t < 0) records; when `tracer` is enabled it also times
/// every sink call (wall and calling-thread CPU) and records one
/// `trace.write` span per epoch of records (epoch = simulated hour of the
/// batch's first record; pre-window records count as epoch 0).
class WriteProbe final : public u1::TraceSink {
 public:
  WriteProbe(u1::TraceSink& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Span the `trace.write` spans hang under.
  void set_parent(int span) noexcept { parent_ = span; }

  void append(const u1::TraceRecord& record) override {
    append_batch(&record, 1);
  }
  void append_batch(const u1::TraceRecord* records,
                    std::size_t count) override;
  /// Closes the last open epoch span. Call after the engine returned.
  void finish();

  std::uint64_t records() const noexcept { return records_; }
  std::uint64_t prewindow() const noexcept { return prewindow_; }
  std::uint64_t calls() const noexcept { return calls_; }
  double busy_s() const noexcept { return busy_s_; }
  double cpu_s() const noexcept { return cpu_s_; }
  /// Absolute time (now_s clock) of the first sink call; -1 if none.
  double first_call_at() const noexcept { return first_call_at_; }

 private:
  u1::TraceSink& inner_;
  Tracer& tracer_;
  int parent_ = -1;
  std::uint64_t records_ = 0;
  std::uint64_t prewindow_ = 0;
  std::uint64_t calls_ = 0;
  double busy_s_ = 0;
  double cpu_s_ = 0;
  double first_call_at_ = -1;
  // The open epoch span.
  std::int64_t epoch_ = -1;
  double span_start_ = 0;
  double span_end_ = 0;
};

}  // namespace u1b
