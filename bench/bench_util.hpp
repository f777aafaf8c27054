// Shared harness for the benches: runs the standard month-scale
// simulation once, streaming records into the caller's analyzers, and
// provides small printing helpers so every bench reports "paper vs
// measured" rows in the same format.
//
// Scale: the real trace covers 1.29M users; the default bench population
// is 8,000 (override with the U1SIM_USERS environment variable). All
// reproduced quantities are ratios, distributions and shapes, which are
// scale-free; absolute totals are reported per-user-normalized alongside.
//
// Threads: U1SIM_THREADS (default: hardware concurrency) picks the
// ParallelSimulation worker count. The trace, and so every printed
// figure, is byte-identical for every thread count; only the wall clock
// changes.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_mem.hpp"
#include "fault/fault_plan.hpp"
#include "fault/scenarios.hpp"
#include "sim/parallel.hpp"
#include "trace/sink.hpp"

namespace u1::bench {

inline std::size_t env_users(std::size_t fallback = 8000) {
  if (const char* v = std::getenv("U1SIM_USERS")) {
    const long n = std::atol(v);
    if (n > 10) return static_cast<std::size_t>(n);
  }
  return fallback;
}

inline int env_days(int fallback = 30) {
  if (const char* v = std::getenv("U1SIM_DAYS")) {
    const int n = std::atoi(v);
    if (n > 0) return n;
  }
  return fallback;
}

/// Worker threads: U1SIM_THREADS wins; otherwise `fallback` (0 meaning
/// "ask the hardware").
inline std::size_t env_threads(std::size_t fallback = 0) {
  if (const char* v = std::getenv("U1SIM_THREADS")) {
    const long n = std::atol(v);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  if (fallback != 0) return fallback;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Fault plan from the U1SIM_FAULTS environment knob: unset/""/"0" =
/// faults off; "1"/"standard" = the standard acceptance plan; a canned
/// incident-scenario name (optionally @-prefixed, e.g. "retry_storm" or
/// "@rolling_restart") = that scenario's plan; anything else = path to a
/// fault-plan file (same grammar as --fault-plan).
inline FaultPlan env_fault_plan() {
  const char* v = std::getenv("U1SIM_FAULTS");
  if (v == nullptr || *v == '\0' || std::string_view(v) == "0") return {};
  if (std::string_view(v) == "1" || std::string_view(v) == "standard")
    return standard_fault_plan();
  std::string_view name(v);
  if (!name.empty() && name.front() == '@') name.remove_prefix(1);
  if (const IncidentScenario* sc = find_incident_scenario(name))
    return parse_fault_plan(sc->plan_text);
  std::ifstream in(v);
  if (!in)
    throw std::runtime_error(std::string("U1SIM_FAULTS: cannot open ") + v);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_fault_plan(text.str());
}

/// Applies a canned scenario to a config: its fault plan plus the
/// backend posture it assumes (slow-start window, per-process cap).
inline void apply_incident_scenario(SimulationConfig& cfg,
                                    const IncidentScenario& sc) {
  cfg.faults = parse_fault_plan(sc.plan_text);
  cfg.backend.fleet.slow_start = sc.slow_start;
  cfg.backend.session_cap_per_process = sc.session_cap;
}

inline SimulationConfig standard_config(std::size_t users, int days,
                                        bool ddos = true) {
  SimulationConfig cfg;
  cfg.users = users;
  cfg.days = days;
  cfg.seed = 20140111;
  cfg.enable_ddos = ddos;
  cfg.faults = env_fault_plan();
  // A scenario name in U1SIM_FAULTS also sets the posture it assumes.
  if (const char* v = std::getenv("U1SIM_FAULTS")) {
    std::string_view name(v);
    if (!name.empty() && name.front() == '@') name.remove_prefix(1);
    if (const IncidentScenario* sc = find_incident_scenario(name)) {
      cfg.backend.fleet.slow_start = sc->slow_start;
      cfg.backend.session_cap_per_process = sc->session_cap;
    }
  }
  return cfg;
}

/// Runs the simulation, streaming every record into `sink`; returns the
/// engine, whose back-end state (contents(), stores()) outlives the run
/// for snapshots. threads == 0 defers to U1SIM_THREADS / hardware
/// concurrency.
inline std::unique_ptr<ParallelSimulation> run_into(
    TraceSink& sink, const SimulationConfig& cfg, std::size_t threads = 0) {
  if (threads == 0) threads = env_threads();
  std::printf("# u1sim | users=%zu days=%d seed=%llu ddos=%s faults=%s "
              "threads=%zu\n",
              cfg.users, cfg.days,
              static_cast<unsigned long long>(cfg.seed),
              cfg.enable_ddos ? "on" : "off",
              cfg.faults.empty()
                  ? "off"
                  : (std::to_string(cfg.faults.specs.size()) + "-spec plan")
                        .c_str(),
              threads);
  auto sim = std::make_unique<ParallelSimulation>(cfg, sink, threads);
  const SimulationReport report = sim->run();
  std::printf("# trace: %llu sessions, %llu uploads, %llu downloads, "
              "%llu rpcs\n",
              static_cast<unsigned long long>(report.backend.sessions_opened),
              static_cast<unsigned long long>(report.backend.uploads),
              static_cast<unsigned long long>(report.backend.downloads),
              static_cast<unsigned long long>(report.backend.rpcs));
  return sim;
}

inline void header(const char* figure, const char* title) {
  std::printf("\n================================================="
              "=============\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("==================================================="
              "===========\n");
}

/// A NaN `paper` is a row the paper gives no number for; it prints n/a.
inline void row(const char* metric, double paper, double measured,
                const char* unit = "") {
  char paper_text[32] = "n/a";
  if (!std::isnan(paper))
    std::snprintf(paper_text, sizeof(paper_text), "%.4g", paper);
  std::printf("  %-46s paper=%10s   measured=%10.4g %s\n", metric,
              paper_text, measured, unit);
}

inline void note(const std::string& text) {
  std::printf("  note: %s\n", text.c_str());
}

}  // namespace u1::bench
