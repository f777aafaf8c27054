// DDoS forensics (paper §5.4): injects the storage-leeching attacks into
// a simulated week, then plays incident responder — detect the anomaly,
// identify the abused account, and verify the (manual) countermeasure
// collapses the attack within the hour.
#include <cstdio>
#include <map>

#include "analysis/ddos_detect.hpp"
#include "sim/parallel.hpp"

int main() {
  using namespace u1;

  SimulationConfig cfg;
  cfg.users = 3000;
  cfg.days = 7;  // covers Jan 15 + Jan 16
  cfg.enable_ddos = true;
  const SimTime horizon = cfg.days * kDay;

  DdosAnalyzer detector(0, horizon);
  InMemorySink full_trace;
  MultiSink fanout;
  fanout.add(&detector);
  fanout.add(&full_trace);

  std::printf("simulating one week with the paper's Jan 15/16 attacks "
              "injected...\n\n");
  ParallelSimulation sim(cfg, fanout, 1);
  sim.run();

  std::printf("=== detection ===\n");
  const auto attacks = detector.detect();
  for (const auto& attack : attacks) {
    const SimTime start =
        detector.session_per_hour().bin_start(attack.first_hour);
    std::printf("anomaly: %s, %zuh long, session/auth %.1fx baseline, "
                "API %.1fx\n",
                format_timestamp(start).c_str(),
                attack.last_hour - attack.first_hour + 1,
                attack.peak_multiplier, attack.api_multiplier);

    // Forensics: who is behind the spike? Count session requests per user
    // in the attack window.
    std::map<std::uint64_t, std::uint64_t> suspects;
    const SimTime end =
        detector.session_per_hour().bin_start(attack.last_hour) + kHour;
    for (const auto& r : full_trace.records()) {
      if (r.type != RecordType::kSession || r.t < start || r.t >= end)
        continue;
      if (r.session_event == SessionEvent::kAuthRequest)
        suspects[r.user.value]++;
    }
    std::uint64_t worst_user = 0, worst_count = 0;
    std::uint64_t total = 0;
    for (const auto& [user, count] : suspects) {
      total += count;
      if (count > worst_count) {
        worst_count = count;
        worst_user = user;
      }
    }
    std::printf("  -> user %llu made %llu of %llu auth requests "
                "(%.0f%%) — shared-credential leeching\n",
                static_cast<unsigned long long>(worst_user),
                static_cast<unsigned long long>(worst_count),
                static_cast<unsigned long long>(total),
                100.0 * static_cast<double>(worst_count) /
                    static_cast<double>(total));
  }

  std::printf("\n=== response decay ===\n");
  std::printf("session requests per hour around the Jan 16 attack "
              "(09:00 start, response ~11:00):\n");
  const auto& sessions = detector.session_per_hour();
  for (std::size_t h = 5 * 24 + 6; h <= 5 * 24 + 16 && h < sessions.bins();
       ++h) {
    const double v = sessions.value(h);
    std::printf("  %s  %6.0f  %s\n",
                format_timestamp(sessions.bin_start(h)).c_str(), v,
                std::string(static_cast<std::size_t>(v / 200), '#').c_str());
  }
  std::printf("\npaper: engineers deleted the fraudulent account and its "
              "content; activity decays\nwithin one hour of the response "
              "— the same cliff visible above.\n");
  return 0;
}
