// Month in the life of a personal cloud: runs the full 30-day simulation
// (the paper's trace window, Jan 11 - Feb 10 2014), writes the trace to
// U1-format logfiles, reads them back like the paper's collection pipeline
// did, and prints a daily operations report.
//
// Usage: month_in_the_life [users] [logfile-dir]
//   users       population size (default 3000)
//   logfile-dir where production-<machine>-<proc>-<date> logfiles go
//               (default: skip persistence, analyze in-process).
//               Set U1SIM_TRACE_FORMAT=bin for columnar .u1b files
//               instead of CSV.
#include <cstdio>
#include <cstdlib>

#include "analysis/ddos_detect.hpp"
#include "analysis/sessions.hpp"
#include "analysis/trace_summary.hpp"
#include "analysis/traffic.hpp"
#include "sim/parallel.hpp"
#include "trace/binlog.hpp"
#include "trace/logfile.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace u1;
  const std::size_t users =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 3000;
  const char* logdir = argc > 2 ? argv[2] : nullptr;

  SimulationConfig cfg;
  cfg.users = users;
  cfg.days = 30;
  const SimTime horizon = cfg.days * kDay;

  TrafficAnalyzer traffic(0, horizon);
  TraceSummaryAnalyzer summary(horizon);
  SessionAnalyzer sessions(0, horizon);
  DdosAnalyzer ddos(0, horizon);
  MultiSink fanout;
  fanout.add(&traffic);
  fanout.add(&summary);
  fanout.add(&sessions);
  fanout.add(&ddos);

  std::unique_ptr<LogfileSink> writer;
  if (logdir != nullptr) {
    writer = make_logfile_writer(logdir, trace_format_from_env());
    fanout.add(writer.get());
  }

  std::printf("simulating %zu users for 30 days (2014-01-11 .. "
              "2014-02-10)...\n", users);
  ParallelSimulation sim(cfg, fanout, 1);
  sim.run();
  if (writer != nullptr) {
    writer->close();
    // Round-trip through the logfiles exactly as the paper's pipeline.
    CountingSink reread;
    const ReadStats stats = read_logfiles(logdir, reread);
    std::printf("persisted and re-read %llu rows from %llu logfiles "
                "(%llu malformed)\n",
                static_cast<unsigned long long>(stats.rows),
                static_cast<unsigned long long>(stats.files),
                static_cast<unsigned long long>(stats.malformed));
  }

  const auto s = summary.summary();
  std::printf("\n=== month report ===\n");
  std::printf("unique users:   %llu\n",
              static_cast<unsigned long long>(s.unique_users));
  std::printf("unique files:   %llu\n",
              static_cast<unsigned long long>(s.unique_files));
  std::printf("sessions:       %llu (%.1f%% < 1s, %.1f%% active)\n",
              static_cast<unsigned long long>(s.sessions),
              100.0 * sessions.fraction_shorter_than(kSecond),
              100.0 * sessions.active_session_fraction());
  std::printf("transfer ops:   %llu\n",
              static_cast<unsigned long long>(s.transfer_ops));
  std::printf("traffic:        up=%s down=%s (R/W median %.2f)\n",
              format_bytes(static_cast<double>(s.upload_bytes)).c_str(),
              format_bytes(static_cast<double>(s.download_bytes)).c_str(),
              traffic.rw_boxplot().median);
  std::printf("update share:   %.1f%% of uploads, %.1f%% of traffic\n",
              100.0 * traffic.update_op_fraction(),
              100.0 * traffic.update_traffic_fraction());
  std::printf("auth failures:  %.2f%%\n",
              100.0 * sessions.auth_failure_fraction());
  std::printf("DDoS attacks:   %zu detected\n", ddos.attack_days());

  std::printf("\ndaily upload volume:\n");
  const auto& up = traffic.upload_bytes_hourly();
  for (int d = 0; d < cfg.days; ++d) {
    double day_bytes = 0;
    for (int h = 0; h < 24; ++h) {
      const std::size_t bin = static_cast<std::size_t>(d) * 24 +
                              static_cast<std::size_t>(h);
      if (bin < up.bins()) day_bytes += up.value(bin);
    }
    std::printf("  %s  %10s %s\n", trace_date(d * kDay).c_str(),
                format_bytes(day_bytes).c_str(),
                (d == 4 || d == 5 || d == 26) ? " <- DDoS day" : "");
  }
  return 0;
}
