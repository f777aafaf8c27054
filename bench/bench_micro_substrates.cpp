// Micro-benchmarks of the statistical/utility substrates (google-benchmark).
#include <benchmark/benchmark.h>

#include <vector>

#include "sim/event_queue.hpp"
#include "stats/acf.hpp"
#include "stats/ecdf.hpp"
#include "stats/gini.hpp"
#include "stats/powerlaw.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"
#include "util/sha1.hpp"
#include "util/uuid.hpp"

namespace {

using namespace u1;

void BM_Sha1(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::of(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_ParetoSample(benchmark::State& state) {
  Rng rng(2);
  ParetoDist d(1.5, 40.0);
  for (auto _ : state) benchmark::DoNotOptimize(d.sample(rng));
}
BENCHMARK(BM_ParetoSample);

void BM_UuidV4(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(Uuid::v4(rng));
}
BENCHMARK(BM_UuidV4);

void BM_EcdfConstruct(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> sample;
  for (int i = 0; i < state.range(0); ++i) sample.push_back(rng.uniform());
  for (auto _ : state) {
    std::vector<double> copy = sample;
    Ecdf e(std::move(copy));
    benchmark::DoNotOptimize(e.quantile(0.99));
  }
}
BENCHMARK(BM_EcdfConstruct)->Arg(1000)->Arg(100000);

void BM_Gini(benchmark::State& state) {
  Rng rng(5);
  ParetoDist d(1.2, 1.0);
  std::vector<double> sample;
  for (int i = 0; i < state.range(0); ++i) sample.push_back(d.sample(rng));
  for (auto _ : state) benchmark::DoNotOptimize(gini(sample));
}
BENCHMARK(BM_Gini)->Arg(10000);

void BM_Autocorrelation(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> series;
  for (int i = 0; i < 720; ++i) series.push_back(rng.uniform());
  for (auto _ : state)
    benchmark::DoNotOptimize(autocorrelation(series, 200));
}
BENCHMARK(BM_Autocorrelation);

void BM_PowerLawFit(benchmark::State& state) {
  Rng rng(7);
  ParetoDist d(1.54, 41.0);
  std::vector<double> sample;
  for (int i = 0; i < state.range(0); ++i) sample.push_back(d.sample(rng));
  for (auto _ : state) benchmark::DoNotOptimize(fit_power_law(sample));
}
BENCHMARK(BM_PowerLawFit)->Arg(20000);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue<int> q;
    Rng rng(8);
    for (int i = 0; i < 10000; ++i)
      q.push(static_cast<SimTime>(rng.below(1000000)), i);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueue);

void BM_EventQueueHold(benchmark::State& state) {
  // The classic "hold" model — a steady-state queue where each pop
  // schedules a successor — is the simulator's actual hot-loop shape
  // (agents re-arm their next wake-up on every event).
  EventQueue<int> q;
  Rng rng(9);
  for (int i = 0; i < 4096; ++i)
    q.push(static_cast<SimTime>(rng.below(kHour)), i);
  for (auto _ : state) {
    auto ev = q.pop();
    q.push(ev.t + static_cast<SimTime>(rng.below(kMinute)) + 1,
           ev.payload);
    benchmark::DoNotOptimize(ev);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold);

void BM_TraceRecordCsvRoundTrip(benchmark::State& state) {
  Rng rng(9);
  TraceRecord r;
  r.t = kHour;
  r.type = RecordType::kStorageDone;
  r.api_op = ApiOp::kPutContent;
  r.node = Uuid::v4(rng);
  r.volume = Uuid::v4(rng);
  r.content = Sha1::of("content");
  r.size_bytes = 123456;
  r.set_extension("mp3");
  for (auto _ : state) {
    const auto fields = r.to_csv();
    benchmark::DoNotOptimize(TraceRecord::from_csv(fields));
  }
}
BENCHMARK(BM_TraceRecordCsvRoundTrip);

void BM_TraceRecordAppendCsvRow(benchmark::State& state) {
  // The flush hot path: one reused buffer, no per-field strings.
  Rng rng(9);
  TraceRecord r;
  r.t = kHour;
  r.type = RecordType::kStorageDone;
  r.api_op = ApiOp::kPutContent;
  r.node = Uuid::v4(rng);
  r.volume = Uuid::v4(rng);
  r.content = Sha1::of("content");
  r.size_bytes = 123456;
  r.set_extension("mp3");
  std::string row;
  for (auto _ : state) {
    row.clear();
    r.append_csv_row(row);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordAppendCsvRow);

}  // namespace

BENCHMARK_MAIN();
