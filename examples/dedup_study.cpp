// Dedup study (paper §5.3 + §9): how much storage and wire traffic does
// file-based cross-user deduplication actually save, and how is the
// saving distributed over content popularity? Sweeps the content
// duplication level and compares dedup-on vs dedup-off back-ends.
#include <algorithm>
#include <cstdio>

#include "analysis/dedup.hpp"
#include "sim/parallel.hpp"
#include "util/strings.hpp"

namespace {

struct Outcome {
  double dedup_ratio;
  double s3_bytes;
  double bill;
  double unique_fraction;
  double max_copies;
};

Outcome run(double duplicate_prob, bool enable_dedup) {
  using namespace u1;
  SimulationConfig cfg;
  cfg.users = 2000;
  cfg.days = 10;
  cfg.enable_ddos = false;
  cfg.content_duplicate_prob = duplicate_prob;
  cfg.backend.enable_dedup = enable_dedup;
  DedupAnalyzer analyzer;
  ParallelSimulation sim(cfg, analyzer, 1);
  sim.run();
  // One S3 store per shard group; the bill is linear in stored bytes.
  double s3_bytes = 0, bill = 0;
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    s3_bytes += static_cast<double>(sim.backend(g).s3().stored_bytes());
    bill += sim.backend(g).s3().monthly_bill_usd();
  }
  const auto copies = analyzer.copies_per_hash();
  const double max_copies =
      copies.empty() ? 0 : *std::max_element(copies.begin(), copies.end());
  return Outcome{analyzer.dedup_ratio(), s3_bytes, bill,
                 analyzer.unique_fraction(), max_copies};
}

}  // namespace

int main() {
  using namespace u1;
  std::printf("=== content duplication sweep (dedup enabled) ===\n");
  std::printf("%-10s %12s %12s %12s %12s\n", "p(dup)", "dedup ratio",
              "unique frac", "max copies", "S3 stored");
  for (const double p : {0.0, 0.1, 0.2, 0.35, 0.5}) {
    const Outcome o = run(p, true);
    std::printf("%-10.2f %12.3f %12.3f %12.0f %12s\n", p, o.dedup_ratio,
                o.unique_fraction, o.max_copies,
                format_bytes(o.s3_bytes).c_str());
  }
  std::printf("\npaper anchor: measured dr = 0.171 with ~80%% of hashes "
              "unique and a long\nduplicates tail (popular songs).\n");

  std::printf("\n=== dedup on vs off at the calibrated duplication level "
              "===\n");
  const Outcome on = run(0.2, true);
  const Outcome off = run(0.2, false);
  std::printf("S3 storage:   on=%s  off=%s  (saving %.1f%%)\n",
              format_bytes(on.s3_bytes).c_str(),
              format_bytes(off.s3_bytes).c_str(),
              100.0 * (1.0 - on.s3_bytes / off.s3_bytes));
  std::printf("monthly bill: on=$%.2f  off=$%.2f\n", on.bill, off.bill);
  std::printf("\npaper: 'a simple optimization like file-based "
              "deduplication could readily\nsave 17%% of the storage "
              "costs' — scaled to U1's ~$20k/month bill, that is\n"
              "~$3.4k/month.\n");
  return 0;
}
