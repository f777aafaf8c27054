// Parameterized property sweeps over the metadata store and service-time
// model: invariants must hold for every shard count and every RPC type.
#include <gtest/gtest.h>

#include <vector>

#include "stats/ecdf.hpp"
#include "store/metadata_store.hpp"
#include "store/service_time.hpp"
#include "util/sha1.hpp"

namespace u1 {
namespace {

// ---------------------------------------------------------------------------
// Routing: stable, in-range and balanced for any cluster size.
// ---------------------------------------------------------------------------
class ShardRouting : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardRouting, BalancedAndStable) {
  const std::size_t shards = GetParam();
  MetadataStore store(shards, 1);
  std::vector<int> counts(shards, 0);
  for (std::uint64_t u = 1; u <= 20000; ++u) {
    const ShardId s = store.shard_of(UserId{u});
    ASSERT_GE(s.value, 1u);
    ASSERT_LE(s.value, shards);
    ASSERT_EQ(s, store.shard_of(UserId{u}));
    counts[s.value - 1]++;
  }
  const double expected = 20000.0 / static_cast<double>(shards);
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, 5.0 * std::sqrt(expected));
  }
}

TEST_P(ShardRouting, UserDataStaysOnOneShard) {
  const std::size_t shards = GetParam();
  MetadataStore store(shards, 2);
  const Volume root = store.create_user(UserId{7}, 0);
  store.make_file(UserId{7}, root.id, root.root_dir, "a", "txt", 0);
  EXPECT_EQ(store.shards_touched().size(), 1u);
  store.create_udf(UserId{7}, 0);
  EXPECT_EQ(store.shards_touched().size(), 1u);
  store.get_delta(UserId{7}, root.id, 0);
  EXPECT_EQ(store.shards_touched().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, ShardRouting,
                         ::testing::Values(1u, 2u, 5u, 10u, 20u, 40u));

// ---------------------------------------------------------------------------
// Namespace invariant: create N files -> delta(0) returns all of them plus
// nothing else; unlink removes exactly what it should. Swept over sizes.
// ---------------------------------------------------------------------------
class NamespaceSize : public ::testing::TestWithParam<int> {};

TEST_P(NamespaceSize, DeltaAndCascadeConsistency) {
  const int n = GetParam();
  MetadataStore store(10, 3);
  const Volume root = store.create_user(UserId{1}, 0);
  const Node dir = store.make_dir(UserId{1}, root.id, root.root_dir, "d", 0);
  std::vector<NodeId> files;
  for (int i = 0; i < n; ++i) {
    files.push_back(store.make_file(UserId{1}, root.id, dir.id,
                                    std::to_string(i), "txt", 0)
                        .id);
  }
  // From scratch: root dir + dir + n files.
  EXPECT_EQ(store.get_from_scratch(UserId{1}, root.id).size(),
            static_cast<std::size_t>(n) + 2);
  // Attach content to every other file, then cascade-delete the dir.
  int with_content = 0;
  for (int i = 0; i < n; i += 2) {
    store.make_content(UserId{1}, files[static_cast<std::size_t>(i)],
                       Sha1::of("c" + std::to_string(i)), 10);
    ++with_content;
  }
  const auto dead = store.unlink_node(UserId{1}, dir.id);
  EXPECT_EQ(dead.size(), static_cast<std::size_t>(with_content));
  EXPECT_EQ(store.get_from_scratch(UserId{1}, root.id).size(), 1u);
  // Registry drained.
  EXPECT_EQ(store.contents().logical_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NamespaceSize,
                         ::testing::Values(0, 1, 7, 64, 500));

// ---------------------------------------------------------------------------
// Service-time model: for EVERY RPC op the sample distribution must honor
// the class ordering, the clamps and the tail-probability calibration.
// ---------------------------------------------------------------------------
class ServiceTimePerOp : public ::testing::TestWithParam<RpcOp> {};

TEST_P(ServiceTimePerOp, CalibrationInvariants) {
  const RpcOp op = GetParam();
  ServiceTimeModel model;
  Rng rng(static_cast<std::uint64_t>(op) + 100);
  std::vector<double> xs;
  for (int i = 0; i < 30000; ++i)
    xs.push_back(to_seconds(model.sample(op, rng)));
  Ecdf e(std::move(xs));
  // Clamps.
  EXPECT_GE(e.min(), 1e-4);
  EXPECT_LE(e.max(), 100.0);
  // Median within a factor 2 of the configured body median.
  const double target = to_seconds(model.median(op));
  EXPECT_GT(e.quantile(0.5), target / 2) << to_string(op);
  EXPECT_LT(e.quantile(0.5), target * 2) << to_string(op);
  // Long tail present: p99.5 well beyond the median (Fig. 12).
  EXPECT_GT(e.quantile(0.995), 5.0 * e.quantile(0.5)) << to_string(op);
  // Class floors: cascades are the slow family.
  if (rpc_class(op) == RpcClass::kCascade)
    EXPECT_GT(e.quantile(0.5), 0.02) << to_string(op);
  if (rpc_class(op) == RpcClass::kRead)
    EXPECT_LT(e.quantile(0.5), 0.01) << to_string(op);
}

INSTANTIATE_TEST_SUITE_P(
    AllRpcs, ServiceTimePerOp,
    ::testing::ValuesIn(all_rpc_ops().begin(), all_rpc_ops().end()),
    [](const ::testing::TestParamInfo<RpcOp>& info) {
      std::string name(to_string(info.param));
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

}  // namespace
}  // namespace u1
