// Month-scale simulation config and report: the population, the 30-day
// window of diurnal, bursty client activity against the simulated U1
// back-end, the paper's three DDoS attacks with the manual operator
// response (or the AnomalyGuard countermeasure), and an optional fault
// plan. ParallelSimulation (sim/parallel.hpp) runs it and emits
// everything the back-end observes to a TraceSink in the U1 logfile
// shape, ready for the analyzers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault_plan.hpp"
#include "server/backend.hpp"
#include "sim/client_agent.hpp"
#include "improve/anomaly_guard.hpp"
#include "trace/sink.hpp"
#include "workload/ddos.hpp"

namespace u1 {

struct SimulationConfig {
  std::size_t users = 10000;
  int days = 30;  // the paper's window: 2014-01-11 .. 2014-02-10
  BackendConfig backend;
  UserModelParams user_model;
  BurstParams burst;
  DiurnalParams diurnal;
  /// Content duplication probability (drives the 0.171 dedup ratio).
  double content_duplicate_prob = 0.12;
  double content_zipf_s = 0.9;
  /// Mean pre-trace files per bootstrapped user.
  double bootstrap_files_mean = 14.0;
  bool enable_ddos = true;
  /// Bot population scale; 1.0 suits ~10k users.
  double ddos_bot_scale = 1.0;
  /// §9 extension: replace the manual operator response with the
  /// AnomalyGuard automatic countermeasure (detect + purge in-line).
  bool auto_countermeasures = false;
  /// Fault injection: empty plan = faults off (and the fault subsystem
  /// consumes zero randomness — traces are byte-identical to pre-fault
  /// builds). fault_seed 0 derives the stream from `seed`.
  FaultPlan faults;
  std::uint64_t fault_seed = 0;
  std::uint64_t seed = 20140111;
};

/// The RNG stream the fault schedule/injectors derive from.
inline std::uint64_t effective_fault_seed(const SimulationConfig& c) noexcept {
  return c.fault_seed != 0 ? c.fault_seed : (c.seed ^ 0xfa5e17);
}

/// Simulated length of one engine epoch, i.e. the time between two
/// barriers. AnomalyGuard purges detected in epoch e apply at the barrier
/// that closes epoch e+1, so with the guard on an epoch is one guard
/// observation window (a purge lands at most two windows after the
/// detecting records); otherwise one hour.
inline SimTime epoch_length(const SimulationConfig& c) noexcept {
  return c.auto_countermeasures ? AnomalyGuardConfig{}.window : kHour;
}

/// Bootstrap uploads start no earlier than this (draw_setup): the
/// pre-trace history reaches back at most four days.
inline constexpr SimTime kBootstrapStart = -4 * kDay;

/// Time windows the bootstrap history is flushed in: one epoch each, on
/// the grid from kBootstrapStart to 0, the first open below and the last
/// open above (a bootstrap op may finish after t = 0). Each window is one
/// flush, and in worker mode one chunk on the stream (DESIGN.md §7, §12).
inline std::size_t bootstrap_windows(const SimulationConfig& c) noexcept {
  return static_cast<std::size_t>(-kBootstrapStart / epoch_length(c));
}

struct SimulationReport {
  BackendStats backend;
  std::size_t users = 0;
  SimTime horizon = 0;
  std::uint64_t agent_wakeups = 0;
  std::uint64_t bootstrap_files = 0;
  std::uint64_t ddos_attacks = 0;
  /// Scheduled fault window edges (begins + ends) inside the horizon.
  std::uint64_t fault_events = 0;
  /// Automatic countermeasure bookkeeping (auto_countermeasures only).
  std::uint64_t auto_purges = 0;
  SimTime first_auto_response_delay = 0;
};

}  // namespace u1
