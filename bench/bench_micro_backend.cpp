// Micro-benchmarks of the back-end substrates: metadata store operations,
// the upload state machine, session establishment and notification
// fan-out (google-benchmark).
#include <benchmark/benchmark.h>

#include "server/backend.hpp"
#include "store/metadata_store.hpp"
#include "trace/sink.hpp"
#include "util/sha1.hpp"

namespace {

using namespace u1;

void BM_ShardRouting(benchmark::State& state) {
  MetadataStore store(10, 1);
  std::uint64_t u = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.shard_of(UserId{u++}));
  }
}
BENCHMARK(BM_ShardRouting);

void BM_StoreMakeFile(benchmark::State& state) {
  MetadataStore store(10, 2);
  const Volume root = store.create_user(UserId{1}, 0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.make_file(UserId{1}, root.id,
                                             root.root_dir,
                                             std::to_string(i++), "txt", 0));
  }
}
BENCHMARK(BM_StoreMakeFile);

void BM_StoreGetNode(benchmark::State& state) {
  MetadataStore store(10, 3);
  const Volume root = store.create_user(UserId{1}, 0);
  const Node node =
      store.make_file(UserId{1}, root.id, root.root_dir, "f", "txt", 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get_node(UserId{1}, node.id));
  }
}
BENCHMARK(BM_StoreGetNode);

void BM_StoreGetDelta(benchmark::State& state) {
  MetadataStore store(10, 4);
  const Volume root = store.create_user(UserId{1}, 0);
  for (int i = 0; i < state.range(0); ++i)
    store.make_file(UserId{1}, root.id, root.root_dir, std::to_string(i),
                    "c", 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.get_delta(UserId{1}, root.id,
                        static_cast<std::uint64_t>(state.range(0) - 8)));
  }
}
BENCHMARK(BM_StoreGetDelta)->Arg(100)->Arg(10000);

void BM_ContentRegistryDedup(benchmark::State& state) {
  ContentRegistry reg;
  const ContentId id = Sha1::of("blob");
  reg.insert(id, 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.lookup(id, 1024));
  }
}
BENCHMARK(BM_ContentRegistryDedup);

void BM_BackendConnectDisconnect(benchmark::State& state) {
  BackendConfig cfg;
  cfg.auth_failure_rate = 0.0;
  NullSink sink;
  U1Backend backend(cfg, sink);
  backend.register_user(UserId{1}, 0);
  SimTime t = 0;
  for (auto _ : state) {
    const auto conn = backend.connect(UserId{1}, t);
    t = backend.disconnect(conn.session, conn.end).end + kSecond;
  }
}
BENCHMARK(BM_BackendConnectDisconnect);

void BM_BackendSmallUpload(benchmark::State& state) {
  BackendConfig cfg;
  cfg.auth_failure_rate = 0.0;
  NullSink sink;
  U1Backend backend(cfg, sink);
  const auto acc = backend.register_user(UserId{1}, 0);
  const auto conn = backend.connect(UserId{1}, 0);
  SimTime t = kMinute;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto mk = backend.make_file(conn.session, acc.root_volume,
                                      acc.root_dir, std::to_string(i), "txt",
                                      t);
    const auto up = backend.upload(conn.session, mk.node,
                                   Sha1::of("v" + std::to_string(i++)),
                                   64 * 1024, false, mk.end);
    t = up.end;
  }
}
BENCHMARK(BM_BackendSmallUpload);

void BM_BackendMultipartUpload(benchmark::State& state) {
  BackendConfig cfg;
  cfg.auth_failure_rate = 0.0;
  NullSink sink;
  U1Backend backend(cfg, sink);
  const auto acc = backend.register_user(UserId{1}, 0);
  const auto conn = backend.connect(UserId{1}, 0);
  SimTime t = kMinute;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto mk = backend.make_file(conn.session, acc.root_volume,
                                      acc.root_dir, std::to_string(i), "zip",
                                      t);
    const auto up = backend.upload(conn.session, mk.node,
                                   Sha1::of("big" + std::to_string(i++)),
                                   32ull << 20, false, mk.end);
    t = up.end;
  }
}
BENCHMARK(BM_BackendMultipartUpload);

void BM_NotificationFanout(benchmark::State& state) {
  MessageQueue mq;
  std::uint64_t delivered = 0;
  for (std::size_t p = 1; p <= 72; ++p) {
    mq.subscribe(ProcessId{p},
                 [&delivered](const VolumeEvent&) { ++delivered; });
  }
  VolumeEvent event;
  event.origin_process = ProcessId{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mq.publish(event));
  }
}
BENCHMARK(BM_NotificationFanout);

}  // namespace

BENCHMARK_MAIN();
