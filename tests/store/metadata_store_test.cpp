#include "store/metadata_store.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "util/sha1.hpp"

namespace u1 {
namespace {

class MetadataStoreTest : public ::testing::Test {
 protected:
  MetadataStoreTest() : store_(10, 7) {}

  Volume add_user(std::uint64_t id) {
    return store_.create_user(UserId{id}, kHour);
  }

  MetadataStore store_;
};

TEST_F(MetadataStoreTest, RoutingIsStableAndBalanced) {
  std::vector<int> counts(10, 0);
  for (std::uint64_t u = 1; u <= 10000; ++u) {
    const ShardId s = store_.shard_of(UserId{u});
    ASSERT_GE(s.value, 1u);
    ASSERT_LE(s.value, 10u);
    EXPECT_EQ(s, store_.shard_of(UserId{u}));  // stable
    counts[s.value - 1]++;
  }
  // With 10k users over 10 shards each shard should get ~1000 +/- 15%.
  for (const int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(MetadataStoreMove, NodeExtensionSurvivesAMoveOfTheStore) {
  // Nodes view their shard's interner; shards live behind unique_ptrs,
  // so moving the store moves no shard and no view dangles.
  MetadataStore a(4, 7);
  const Volume v = a.create_user(UserId{1}, kHour);
  std::string ext = "a-long-extension-beyond-sso";
  const Node f = a.make_file(UserId{1}, v.id, v.root_dir, "f", ext, kHour);
  const Node g = a.make_file(UserId{1}, v.id, v.root_dir, "g", "jpg", kHour);
  ext.assign("changed");
  MetadataStore b = std::move(a);
  const auto got_f = b.get_node(UserId{1}, f.id);
  const auto got_g = b.get_node(UserId{1}, g.id);
  ASSERT_TRUE(got_f.has_value());
  ASSERT_TRUE(got_g.has_value());
  EXPECT_EQ(got_f->extension, "a-long-extension-beyond-sso");
  EXPECT_EQ(got_g->extension, "jpg");
  EXPECT_EQ(f.extension, "a-long-extension-beyond-sso");  // the old copy too
  MetadataStore c(2, 1);
  c = std::move(b);
  EXPECT_EQ(c.get_node(UserId{1}, g.id)->extension, "jpg");
}

TEST_F(MetadataStoreTest, CreateUserTouchesExactlyOneShard) {
  add_user(1);
  EXPECT_EQ(store_.shards_touched().size(), 1u);
  EXPECT_EQ(store_.shards_touched()[0], store_.shard_of(UserId{1}));
  EXPECT_TRUE(store_.has_user(UserId{1}));
  EXPECT_EQ(store_.total_users(), 1u);
}

TEST_F(MetadataStoreTest, ListVolumesIncludesUdfs) {
  add_user(1);
  store_.create_udf(UserId{1}, 2 * kHour);
  const auto vols = store_.list_volumes(UserId{1});
  ASSERT_EQ(vols.size(), 2u);
}

TEST_F(MetadataStoreTest, SharingIsCrossShard) {
  // Find two users on different shards.
  std::uint64_t u1 = 1, u2 = 2;
  while (store_.shard_of(UserId{u2}) == store_.shard_of(UserId{u1})) ++u2;
  const Volume va = add_user(u1);
  add_user(u2);
  store_.share_volume(UserId{u1}, va.id, UserId{u2}, kHour);
  EXPECT_EQ(store_.shards_touched().size(), 2u);

  const auto shares = store_.list_shares(UserId{u2});
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_EQ(shares[0].kind, VolumeKind::kShared);
  EXPECT_EQ(shares[0].owner, (UserId{u1}));
  EXPECT_EQ(shares[0].shared_to, (UserId{u2}));
  // list_shares resolved a foreign volume: two shards touched.
  EXPECT_EQ(store_.shards_touched().size(), 2u);
  // The shared volume also shows up in ListVolumes (Table 2).
  EXPECT_EQ(store_.list_volumes(UserId{u2}).size(), 2u);
}

TEST_F(MetadataStoreTest, NonSharingOpsStaySingleShard) {
  const Volume v = add_user(1);
  store_.make_file(UserId{1}, v.id, v.root_dir, "f", "txt", kHour);
  EXPECT_EQ(store_.shards_touched().size(), 1u);
  store_.get_delta(UserId{1}, v.id, 0);
  EXPECT_EQ(store_.shards_touched().size(), 1u);
}

TEST_F(MetadataStoreTest, MakeContentDeduplicates) {
  const Volume v = add_user(1);
  const Node f1 = store_.make_file(UserId{1}, v.id, v.root_dir, "f1", "mp3",
                                   kHour);
  const Node f2 = store_.make_file(UserId{1}, v.id, v.root_dir, "f2", "mp3",
                                   kHour);
  const ContentId c = Sha1::of("song");
  // First upload: content unknown.
  EXPECT_FALSE(store_.get_reusable_content(c, 1000).has_value());
  store_.make_content(UserId{1}, f1.id, c, 1000);
  // Second user uploads the same song: dedup hit, no transfer needed.
  EXPECT_TRUE(store_.get_reusable_content(c, 1000).has_value());
  store_.make_content(UserId{1}, f2.id, c, 1000);
  EXPECT_EQ(store_.contents().unique_bytes(), 1000u);
  EXPECT_EQ(store_.contents().logical_bytes(), 2000u);
  EXPECT_DOUBLE_EQ(store_.contents().dedup_ratio(), 0.5);
}

TEST_F(MetadataStoreTest, UpdateReleasesOldContent) {
  const Volume v = add_user(1);
  const Node f = store_.make_file(UserId{1}, v.id, v.root_dir, "f", "doc",
                                  kHour);
  store_.make_content(UserId{1}, f.id, Sha1::of("v1"), 10);
  const auto dead =
      store_.make_content(UserId{1}, f.id, Sha1::of("v2"), 12);
  ASSERT_TRUE(dead.has_value());  // v1 orphaned
  EXPECT_EQ(dead->id, Sha1::of("v1"));
}

TEST_F(MetadataStoreTest, UnlinkReportsDeadBlobs) {
  const Volume v = add_user(1);
  const Node f = store_.make_file(UserId{1}, v.id, v.root_dir, "f", "",
                                  kHour);
  store_.make_content(UserId{1}, f.id, Sha1::of("x"), 5);
  const auto dead = store_.unlink_node(UserId{1}, f.id);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].id, Sha1::of("x"));
}

TEST_F(MetadataStoreTest, SharedContentSurvivesOneUnlink) {
  const Volume v = add_user(1);
  const Node f1 = store_.make_file(UserId{1}, v.id, v.root_dir, "f1", "",
                                   kHour);
  const Node f2 = store_.make_file(UserId{1}, v.id, v.root_dir, "f2", "",
                                   kHour);
  const ContentId c = Sha1::of("shared");
  store_.make_content(UserId{1}, f1.id, c, 5);
  store_.make_content(UserId{1}, f2.id, c, 5);
  EXPECT_TRUE(store_.unlink_node(UserId{1}, f1.id).empty());
  const auto dead = store_.unlink_node(UserId{1}, f2.id);
  ASSERT_EQ(dead.size(), 1u);
}

TEST_F(MetadataStoreTest, DeleteVolumeCascade) {
  add_user(1);
  const Volume udf = store_.create_udf(UserId{1}, kHour);
  const Node f = store_.make_file(UserId{1}, udf.id, udf.root_dir, "f", "",
                                  kHour);
  store_.make_content(UserId{1}, f.id, Sha1::of("d"), 9);
  const auto dead = store_.delete_volume(UserId{1}, udf.id);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(store_.list_volumes(UserId{1}).size(), 1u);
}

TEST_F(MetadataStoreTest, UploadJobFlow) {
  const Volume v = add_user(1);
  const Node f = store_.make_file(UserId{1}, v.id, v.root_dir, "big", "zip",
                                  kHour);
  const UploadJob job = store_.make_uploadjob(UserId{1}, f.id,
                                              Sha1::of("big"), 20 << 20,
                                              kHour);
  store_.set_uploadjob_multipart_id(UserId{1}, job.id, "mpu-1");
  EXPECT_EQ(store_.add_part_to_uploadjob(UserId{1}, job.id, 5 << 20,
                                         kHour + kMinute),
            5u << 20);
  EXPECT_EQ(store_.add_part_to_uploadjob(UserId{1}, job.id, 5 << 20,
                                         kHour + 2 * kMinute),
            10u << 20);
  const auto fetched = store_.get_uploadjob(UserId{1}, job.id);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->parts, 2u);
  EXPECT_EQ(fetched->multipart_id, "mpu-1");
  store_.delete_uploadjob(UserId{1}, job.id);
  EXPECT_FALSE(store_.get_uploadjob(UserId{1}, job.id).has_value());
}

TEST_F(MetadataStoreTest, UploadJobGc) {
  const Volume v = add_user(1);
  const Node f = store_.make_file(UserId{1}, v.id, v.root_dir, "f", "",
                                  kHour);
  const UploadJob stale =
      store_.make_uploadjob(UserId{1}, f.id, Sha1::of("a"), 1, kDay);
  store_.set_uploadjob_multipart_id(UserId{1}, stale.id, "mpu-stale");
  const UploadJob fresh = store_.make_uploadjob(UserId{1}, f.id,
                                                Sha1::of("b"), 1, 10 * kDay);
  // GC with the paper's one-week cutoff; the collected rows come back so
  // the caller (U1Backend::maintenance) can abort their S3 multiparts.
  const auto collected = store_.gc_uploadjobs(9 * kDay);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].id, stale.id);
  EXPECT_EQ(collected[0].multipart_id, "mpu-stale");
  EXPECT_FALSE(store_.get_uploadjob(UserId{1}, stale.id).has_value());
  EXPECT_TRUE(store_.get_uploadjob(UserId{1}, fresh.id).has_value());
}

TEST_F(MetadataStoreTest, UploadJobGcCutoffIsStrict) {
  const Volume v = add_user(1);
  const Node f = store_.make_file(UserId{1}, v.id, v.root_dir, "f", "",
                                  kHour);
  // last_touched == cutoff survives: the GC predicate is strictly-older.
  const UploadJob at_cutoff =
      store_.make_uploadjob(UserId{1}, f.id, Sha1::of("a"), 1, kDay);
  EXPECT_TRUE(store_.gc_uploadjobs(kDay).empty());
  EXPECT_TRUE(store_.get_uploadjob(UserId{1}, at_cutoff.id).has_value());
  EXPECT_EQ(store_.gc_uploadjobs(kDay + 1).size(), 1u);
}

TEST_F(MetadataStoreTest, TouchedUploadJobSurvivesGcAndKeepsParts) {
  const Volume v = add_user(1);
  const Node f = store_.make_file(UserId{1}, v.id, v.root_dir, "f", "",
                                  kHour);
  const UploadJob job = store_.make_uploadjob(UserId{1}, f.id, Sha1::of("a"),
                                              20 << 20, kDay);
  store_.set_uploadjob_multipart_id(UserId{1}, job.id, "mpu-1");
  store_.add_part_to_uploadjob(UserId{1}, job.id, 5 << 20, kDay);
  // A resume touches the row; the job then outlives a cutoff that would
  // otherwise have collected it, parts intact.
  store_.touch_uploadjob(UserId{1}, job.id, 9 * kDay);
  EXPECT_TRUE(store_.gc_uploadjobs(8 * kDay).empty());
  const auto fetched = store_.get_uploadjob(UserId{1}, job.id);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->parts, 1u);
  EXPECT_EQ(fetched->bytes_received, 5u << 20);
}

TEST_F(MetadataStoreTest, UnknownIdsThrow) {
  add_user(1);
  Rng rng(1);
  EXPECT_THROW(store_.set_uploadjob_multipart_id(UserId{1}, Uuid::v4(rng),
                                                 "x"),
               std::out_of_range);
  EXPECT_THROW(store_.add_part_to_uploadjob(UserId{1}, Uuid::v4(rng), 1, 0),
               std::out_of_range);
  EXPECT_THROW(store_.touch_uploadjob(UserId{1}, Uuid::v4(rng), 0),
               std::out_of_range);
  EXPECT_THROW(store_.share_volume(UserId{1}, Uuid::v4(rng), UserId{2}, 0),
               std::out_of_range);
}

TEST_F(MetadataStoreTest, RejectsZeroShards) {
  EXPECT_THROW(MetadataStore(0), std::invalid_argument);
}

TEST_F(MetadataStoreTest, GetRootAndGetNode) {
  const Volume v = add_user(1);
  EXPECT_EQ(store_.get_root(UserId{1}), v.root_dir);
  const auto node = store_.get_node(UserId{1}, v.root_dir);
  ASSERT_TRUE(node.has_value());
  EXPECT_TRUE(node->is_dir());
  Rng rng(2);
  EXPECT_FALSE(store_.get_node(UserId{1}, Uuid::v4(rng)).has_value());
}

}  // namespace
}  // namespace u1
