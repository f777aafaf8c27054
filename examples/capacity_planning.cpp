// Capacity planning: the paper's takeaway that a 20-node / 10-shard
// database cluster served 1.29M users without congestion. This example
// sweeps the population against a fixed cluster and watches the two
// health signals the paper analyzes: RPC tail latency (Fig. 12) and
// shard load balance (Fig. 14).
#include <cstdio>

#include "analysis/load_balance.hpp"
#include "analysis/rpc_perf.hpp"
#include "sim/parallel.hpp"

int main() {
  using namespace u1;
  std::printf("fixed cluster: 10 shards, 6 API machines — population "
              "sweep (7 simulated days)\n\n");
  std::printf("%-8s %14s %14s %14s %14s\n", "users", "write p50(ms)",
              "write p99(ms)", "shard cv(min)", "shard cv(month)");

  for (const std::size_t users : {500u, 2000u, 8000u, 20000u}) {
    SimulationConfig cfg;
    cfg.users = users;
    cfg.days = 7;
    cfg.enable_ddos = false;
    const SimTime horizon = cfg.days * kDay;

    RpcPerfAnalyzer rpcs;
    LoadBalanceAnalyzer load(0, horizon, cfg.backend.fleet.machines,
                             cfg.backend.shards);
    MultiSink fanout;
    fanout.add(&rpcs);
    fanout.add(&load);
    ParallelSimulation sim(cfg, fanout, 1);
    sim.run();

    const auto times = rpcs.service_times(RpcOp::kMakeFile);
    double p50 = 0, p99 = 0;
    if (times.size() > 100) {
      std::vector<double> sorted(times);
      std::sort(sorted.begin(), sorted.end());
      p50 = sorted[sorted.size() / 2] * 1e3;
      p99 = sorted[sorted.size() * 99 / 100] * 1e3;
    }
    std::printf("%-8zu %14.2f %14.2f %14.3f %14.3f\n", users, p50, p99,
                load.shard_short_term_cv(), load.shard_long_term_cv());
  }

  std::printf("\nreading the table:\n");
  std::printf("  - service times stay flat with population: the "
              "user-per-shard model scales\n    out (the paper saw no "
              "congestion at 1.29M users on this cluster);\n");
  std::printf("  - the short-window shard cv stays high at every scale "
              "(bursty users,\n    asymmetric ops) while the long-term cv "
              "falls with population — the paper's\n    4.9%% at 1.29M "
              "users.\n");
  return 0;
}
