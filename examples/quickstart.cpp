// Quickstart: a 60-second tour of the u1sim public API.
//
//  1. Stand up the simulated U1 back-end (Fig. 1 of the paper).
//  2. Act as a desktop client: authenticate, create files, upload,
//     download, watch dedup do its thing.
//  3. Run a small population simulation and analyze its trace.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "analysis/trace_summary.hpp"
#include "server/backend.hpp"
#include "sim/parallel.hpp"
#include "util/sha1.hpp"
#include "util/strings.hpp"

int main() {
  using namespace u1;

  std::printf("== 1. One client against the simulated U1 back-end ==\n");
  BackendConfig config;
  config.auth_failure_rate = 0.0;  // keep the demo deterministic
  InMemorySink trace;
  U1Backend backend(config, trace);

  // Provision a user; the store creates the account and its root volume.
  const UserAccount alice = backend.register_user(UserId{1}, 0);

  // Authenticate and open a session (the paper's Table 2 flow).
  const auto session = backend.connect(UserId{1}, kMinute);
  std::printf("connected: session=%llu after %s\n",
              static_cast<unsigned long long>(session.session.value),
              format_duration(session.end - kMinute).c_str());

  // "touch" + upload a song (Make precedes PutContent).
  const auto make = backend.make_file(session.session, alice.root_volume,
                                      alice.root_dir, "a1b2c3d4", "mp3",
                                      session.end);
  const ContentId song = Sha1::of("99 red balloons");
  const auto upload = backend.upload(session.session, make.node, song,
                                     4 << 20, /*is_update=*/false, make.end);
  std::printf("uploaded 4MB in %s (dedup=%s)\n",
              format_duration(upload.end - make.end).c_str(),
              upload.deduplicated() ? "yes" : "no");

  // A second copy of the same song: file-based cross-user dedup kicks in.
  const auto make2 = backend.make_file(session.session, alice.root_volume,
                                       alice.root_dir, "e5f6a7b8", "mp3",
                                       upload.end);
  const auto dup = backend.upload(session.session, make2.node, song, 4 << 20,
                                  false, make2.end);
  std::printf("second copy transferred %llu bytes (dedup=%s) in %s\n",
              static_cast<unsigned long long>(dup.transferred_bytes),
              dup.deduplicated() ? "yes" : "no",
              format_duration(dup.end - make2.end).c_str());

  const auto download =
      backend.download(session.session, make.node, dup.end + kMinute);
  std::printf("downloaded it back: %s in %s\n",
              format_bytes(static_cast<double>(download.transferred_bytes))
                  .c_str(),
              format_duration(download.end - dup.end - kMinute).c_str());
  backend.disconnect(session.session, download.end);
  std::printf("back-end emitted %zu trace records; S3 now stores %s\n\n",
              trace.records().size(),
              format_bytes(static_cast<double>(
                  backend.s3().stored_bytes())).c_str());

  std::printf("== 2. A two-day, 500-user simulation ==\n");
  SimulationConfig sim_cfg;
  sim_cfg.users = 500;
  sim_cfg.days = 2;
  sim_cfg.enable_ddos = false;
  TraceSummaryAnalyzer summary(sim_cfg.days * kDay);
  ParallelSimulation sim(sim_cfg, summary, 1);
  const SimulationReport report = sim.run();

  const auto s = summary.summary();
  std::printf("simulated %zu users: %llu sessions, %llu transfer ops, "
              "up=%s down=%s\n",
              report.users,
              static_cast<unsigned long long>(s.sessions),
              static_cast<unsigned long long>(s.transfer_ops),
              format_bytes(static_cast<double>(s.upload_bytes)).c_str(),
              format_bytes(static_cast<double>(s.download_bytes)).c_str());
  std::printf("back-end dedup ratio so far: %.3f (paper: 0.171)\n",
              sim.contents().dedup_ratio());
  std::printf("\nNext: run build/bench/bench_paper to reproduce the "
              "paper's evaluation.\n");
  return 0;
}
