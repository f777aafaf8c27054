// u1bench: the u1sim benchmark program (see ../README.md).
//
//   u1bench --workload NAME --seed N --seconds S --trace 0|1
//           --scratch DIR [--spans FILE] [--cache DIR]
//           [--users N --days D --ops N]              (scale overrides)
//           [--expect-sha HEX] [--corrupt]            (test hooks)
//
// Prints a human-readable report ('#' lines), then, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// An untraced run (--trace 0) reports every end-to-end metric, a traced
// run every per-layer metric. A failed correctness check shows as
// "correct": false (and a CHECK FAILED line on stderr); the exit status
// is 0 whenever a result was printed, 2 on bad usage or an error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

using namespace u1b;

int usage() {
  std::fprintf(stderr,
               "usage: u1bench --workload month_generate|month_generate_2p|"
               "paper_replay|u1d_closedloop --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--spans FILE] [--cache DIR] "
               "[--users N] "
               "[--days D] [--ops N] [--expect-sha HEX] "
               "[--corrupt]\n");
  return 2;
}

std::string unit_of(std::string_view name) {
  for (const auto* catalog : {&end_to_end_catalog(), &per_layer_catalog()})
    for (const auto& [n, unit] : *catalog)
      if (n == name) return unit;
  return "?";
}

void print_result(const Outcome& out, bool trace) {
  for (const Metric& m : out.metrics)
    std::printf("# metric %-32s %.17g %s\n", m.name.c_str(), m.value,
                unit_of(m.name).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  const auto& catalog = trace ? per_layer_catalog() : end_to_end_catalog();
  bool first = true;
  for (const auto& [name, unit] : catalog) {
    double v = out.get(name);
    if (!std::isfinite(v)) v = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string spans_file;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&]() -> const char* {
      ++i;
      return v;
    };
    if (arg == "--corrupt") {
      opt.corrupt = true;
    } else if (v == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      opt.workload = take();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(take(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(take());
    } else if (arg == "--trace") {
      opt.trace = std::string_view(take()) == "1";
    } else if (arg == "--scratch") {
      opt.scratch = take();
    } else if (arg == "--cache") {
      opt.cache = take();
    } else if (arg == "--spans") {
      spans_file = take();
    } else if (arg == "--users") {
      opt.users = static_cast<std::size_t>(std::atol(take()));
    } else if (arg == "--days") {
      opt.days = std::atoi(take());
    } else if (arg == "--ops") {
      opt.ops = static_cast<std::size_t>(std::atol(take()));
    } else if (arg == "--expect-sha") {
      opt.expect_sha = take();
    } else {
      return usage();
    }
  }
  if (opt.scratch.empty() || opt.seconds <= 0 || opt.users == 0 ||
      opt.days <= 0 || opt.ops == 0)
    return usage();

  try {
    Outcome out;
    if (opt.workload == "month_generate") {
      out = run_month_generate(opt, /*distributed=*/false);
    } else if (opt.workload == "month_generate_2p") {
      out = run_month_generate(opt, /*distributed=*/true);
    } else if (opt.workload == "paper_replay") {
      out = run_paper_replay(opt);
    } else if (opt.workload == "u1d_closedloop") {
      out = run_u1d_closedloop(opt);
    } else {
      return usage();
    }
    out.set("fail_frac", out.attempted > 0
                             ? static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted)
                             : 0.0);
    if (opt.trace && !spans_file.empty()) {
      write_spans(out.spans, spans_file);
      std::printf("# spans written to %s\n", spans_file.c_str());
    }
    print_result(out, opt.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "u1bench: %s\n", e.what());
    return 2;
  }
}
