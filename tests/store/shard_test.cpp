#include "store/shard.hpp"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "util/sha1.hpp"

namespace u1 {
namespace {

class ShardTest : public ::testing::Test {
 protected:
  ShardTest() : shard_(ShardId{1}), rng_(99) {}

  Volume& add_user(std::uint64_t id) {
    return shard_.create_user(UserId{id}, kHour, rng_);
  }

  Shard shard_;
  Rng rng_;
};

TEST_F(ShardTest, CreateUserMakesRootVolume) {
  const Volume& v = add_user(1);
  EXPECT_EQ(v.kind, VolumeKind::kRoot);
  EXPECT_EQ(v.owner, (UserId{1}));
  EXPECT_FALSE(v.root_dir.is_nil());
  EXPECT_TRUE(shard_.has_user(UserId{1}));
  const Node* root = shard_.find_node(v.root_dir);
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->is_dir());
  EXPECT_TRUE(root->parent.is_nil());
}

TEST_F(ShardTest, DuplicateUserThrows) {
  add_user(1);
  EXPECT_THROW(add_user(1), std::logic_error);
}

TEST_F(ShardTest, UnknownUserQueries) {
  EXPECT_FALSE(shard_.has_user(UserId{42}));
  EXPECT_FALSE(shard_.get_user(UserId{42}).has_value());
  EXPECT_THROW(shard_.root_volume(UserId{42}), std::out_of_range);
  EXPECT_THROW(shard_.create_udf(UserId{42}, 0, rng_), std::out_of_range);
}

TEST_F(ShardTest, MakeNodesAndChildren) {
  const Volume& v = add_user(1);
  Node& dir = shard_.make_node(UserId{1}, v.id, v.root_dir,
                               NodeKind::kDirectory, "d1", "", kHour, rng_);
  Node& file = shard_.make_node(UserId{1}, v.id, dir.id, NodeKind::kFile,
                                "f1", "jpg", kHour, rng_);
  EXPECT_EQ(file.extension, "jpg");
  EXPECT_EQ(file.parent, dir.id);
  const auto kids = shard_.children_of(dir.id);
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(kids[0], file.id);
  EXPECT_EQ(shard_.node_count(), 3u);  // root dir + d1 + f1
}

TEST_F(ShardTest, MakeNodeValidatesParent) {
  const Volume& v = add_user(1);
  Node& file = shard_.make_node(UserId{1}, v.id, v.root_dir, NodeKind::kFile,
                                "f", "txt", 0, rng_);
  // Parent must exist, be a directory and live in the same volume.
  EXPECT_THROW(shard_.make_node(UserId{1}, v.id, Uuid::v4(rng_),
                                NodeKind::kFile, "x", "", 0, rng_),
               std::out_of_range);
  EXPECT_THROW(shard_.make_node(UserId{1}, v.id, file.id, NodeKind::kFile,
                                "x", "", 0, rng_),
               std::invalid_argument);
  const Volume& udf = shard_.create_udf(UserId{1}, 0, rng_);
  EXPECT_THROW(shard_.make_node(UserId{1}, udf.id, v.root_dir,
                                NodeKind::kFile, "x", "", 0, rng_),
               std::invalid_argument);
}

TEST_F(ShardTest, GenerationsAdvancePerVolume) {
  const Volume& v = add_user(1);
  const Node& a = shard_.make_node(UserId{1}, v.id, v.root_dir,
                                   NodeKind::kFile, "a", "", 0, rng_);
  const Node& b = shard_.make_node(UserId{1}, v.id, v.root_dir,
                                   NodeKind::kFile, "b", "", 0, rng_);
  EXPECT_EQ(a.generation, 1u);
  EXPECT_EQ(b.generation, 2u);
  EXPECT_EQ(shard_.find_volume(v.id)->generation, 2u);
}

TEST_F(ShardTest, GetDeltaReturnsOnlyNewer) {
  const Volume& v = add_user(1);
  shard_.make_node(UserId{1}, v.id, v.root_dir, NodeKind::kFile, "a", "", 0,
                   rng_);
  const std::uint64_t checkpoint = shard_.find_volume(v.id)->generation;
  shard_.make_node(UserId{1}, v.id, v.root_dir, NodeKind::kFile, "b", "", 0,
                   rng_);
  const auto delta = shard_.get_delta(v.id, checkpoint);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].name_hash, Shard::name_hash_of("b"));
  // From scratch returns everything, including the root dir.
  EXPECT_EQ(shard_.get_from_scratch(v.id).size(), 3u);
}

TEST_F(ShardTest, SetNodeContentReturnsPrevious) {
  const Volume& v = add_user(1);
  Node& f = shard_.make_node(UserId{1}, v.id, v.root_dir, NodeKind::kFile,
                             "f", "", 0, rng_);
  const ContentId c1 = Sha1::of("v1");
  const ContentId c2 = Sha1::of("v2");
  EXPECT_EQ(shard_.set_node_content(f.id, c1, 10), ContentId{});
  EXPECT_EQ(shard_.set_node_content(f.id, c2, 20), c1);
  EXPECT_EQ(shard_.find_node(f.id)->size_bytes, 20u);
}

TEST_F(ShardTest, SetContentOnDirectoryThrows) {
  const Volume& v = add_user(1);
  EXPECT_THROW(shard_.set_node_content(v.root_dir, Sha1::of("x"), 1),
               std::invalid_argument);
}

TEST_F(ShardTest, UnlinkFileReleasesContent) {
  const Volume& v = add_user(1);
  Node& f = shard_.make_node(UserId{1}, v.id, v.root_dir, NodeKind::kFile,
                             "f", "", 0, rng_);
  const NodeId id = f.id;  // `f` dies with the unlink
  shard_.set_node_content(id, Sha1::of("data"), 10);
  const auto released = shard_.unlink_node(id);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], Sha1::of("data"));
  EXPECT_EQ(shard_.find_node(id), nullptr);
  EXPECT_TRUE(shard_.children_of(v.root_dir).empty());
}

TEST_F(ShardTest, UnlinkDirectoryCascades) {
  const Volume& v = add_user(1);
  Node& dir = shard_.make_node(UserId{1}, v.id, v.root_dir,
                               NodeKind::kDirectory, "d", "", 0, rng_);
  Node& sub = shard_.make_node(UserId{1}, v.id, dir.id, NodeKind::kDirectory,
                               "s", "", 0, rng_);
  Node& f1 = shard_.make_node(UserId{1}, v.id, dir.id, NodeKind::kFile, "f1",
                              "", 0, rng_);
  Node& f2 = shard_.make_node(UserId{1}, v.id, sub.id, NodeKind::kFile, "f2",
                              "", 0, rng_);
  shard_.set_node_content(f1.id, Sha1::of("1"), 1);
  shard_.set_node_content(f2.id, Sha1::of("2"), 2);
  const auto released = shard_.unlink_node(dir.id);
  EXPECT_EQ(released.size(), 2u);
  EXPECT_EQ(shard_.node_count(), 1u);  // only the volume root remains
}

TEST_F(ShardTest, UnlinkRootForbidden) {
  const Volume& v = add_user(1);
  EXPECT_THROW(shard_.unlink_node(v.root_dir), std::invalid_argument);
  EXPECT_THROW(shard_.unlink_node(Uuid::v4(rng_)), std::out_of_range);
}

TEST_F(ShardTest, MoveNodeReparents) {
  const Volume& v = add_user(1);
  Node& d1 = shard_.make_node(UserId{1}, v.id, v.root_dir,
                              NodeKind::kDirectory, "d1", "", 0, rng_);
  Node& d2 = shard_.make_node(UserId{1}, v.id, v.root_dir,
                              NodeKind::kDirectory, "d2", "", 0, rng_);
  Node& f = shard_.make_node(UserId{1}, v.id, d1.id, NodeKind::kFile, "f",
                             "", 0, rng_);
  shard_.move_node(f.id, d2.id);
  EXPECT_EQ(shard_.find_node(f.id)->parent, d2.id);
  EXPECT_TRUE(shard_.children_of(d1.id).empty());
  ASSERT_EQ(shard_.children_of(d2.id).size(), 1u);
}

TEST_F(ShardTest, MoveRejectsCycles) {
  const Volume& v = add_user(1);
  Node& d1 = shard_.make_node(UserId{1}, v.id, v.root_dir,
                              NodeKind::kDirectory, "d1", "", 0, rng_);
  Node& d2 = shard_.make_node(UserId{1}, v.id, d1.id, NodeKind::kDirectory,
                              "d2", "", 0, rng_);
  EXPECT_THROW(shard_.move_node(d1.id, d1.id), std::invalid_argument);
  EXPECT_THROW(shard_.move_node(d1.id, d2.id), std::invalid_argument);
}

TEST_F(ShardTest, MoveRejectsCrossVolumeAndFileParent) {
  const Volume& v = add_user(1);
  const Volume& udf = shard_.create_udf(UserId{1}, 0, rng_);
  Node& f = shard_.make_node(UserId{1}, v.id, v.root_dir, NodeKind::kFile,
                             "f", "", 0, rng_);
  Node& g = shard_.make_node(UserId{1}, v.id, v.root_dir, NodeKind::kFile,
                             "g", "", 0, rng_);
  EXPECT_THROW(shard_.move_node(f.id, udf.root_dir), std::invalid_argument);
  EXPECT_THROW(shard_.move_node(f.id, g.id), std::invalid_argument);
}

TEST_F(ShardTest, DeleteVolumeCascadesAndForbidsRoot) {
  const Volume& root = add_user(1);
  Volume& udf = shard_.create_udf(UserId{1}, 0, rng_);
  Node& f = shard_.make_node(UserId{1}, udf.id, udf.root_dir, NodeKind::kFile,
                             "f", "", 0, rng_);
  shard_.set_node_content(f.id, Sha1::of("x"), 5);
  const VolumeId udf_id = udf.id;  // `udf` dies with the volume
  const auto released = shard_.delete_volume(udf_id);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(shard_.find_volume(udf_id), nullptr);
  EXPECT_EQ(shard_.list_volumes(UserId{1}).size(), 1u);
  EXPECT_THROW(shard_.delete_volume(root.id), std::invalid_argument);
}

TEST_F(ShardTest, UploadJobLifecycle) {
  add_user(1);
  UploadJob& job = shard_.make_uploadjob(UserId{1}, Uuid::v4(rng_),
                                         Sha1::of("c"), 10 << 20, kHour, rng_);
  EXPECT_EQ(job.declared_size, 10u << 20);
  ASSERT_NE(shard_.find_uploadjob(job.id), nullptr);
  const UploadJobId id = job.id;
  shard_.delete_uploadjob(id);
  EXPECT_EQ(shard_.find_uploadjob(id), nullptr);
  EXPECT_THROW(shard_.delete_uploadjob(id), std::out_of_range);
}

TEST_F(ShardTest, StaleUploadJobs) {
  add_user(1);
  UploadJob& young = shard_.make_uploadjob(UserId{1}, Uuid::v4(rng_),
                                           Sha1::of("y"), 1, 10 * kDay, rng_);
  UploadJob& old = shard_.make_uploadjob(UserId{1}, Uuid::v4(rng_),
                                         Sha1::of("o"), 1, kDay, rng_);
  (void)young;
  const auto stale = shard_.stale_uploadjobs(8 * kDay);  // 1-week GC cutoff
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], old.id);
}

// Node holds no strings, so get_node and get_delta copy it as plain
// bytes; the budget keeps a setup's 10^5 nodes from quietly growing.
static_assert(std::is_trivially_copyable_v<Node>);
static_assert(sizeof(Node) <= 128, "Node outgrew its 128-byte budget");
// Nodes view their shard's extension interner: a copied shard would hand
// out views into the original.
static_assert(!std::is_copy_constructible_v<Shard>);
static_assert(!std::is_copy_assignable_v<Shard>);

TEST_F(ShardTest, ExtensionsViewOneInternedCopy) {
  const Volume& v = add_user(1);
  std::string ext = "a-long-extension-beyond-sso";
  const Node& a = shard_.make_node(UserId{1}, v.id, v.root_dir,
                                   NodeKind::kFile, "a", ext, 0, rng_);
  const Node& b = shard_.make_node(UserId{1}, v.id, v.root_dir,
                                   NodeKind::kFile, "b", ext, 0, rng_);
  ext.assign("changed");  // the caller's buffer is not what the nodes view
  EXPECT_EQ(a.extension, "a-long-extension-beyond-sso");
  EXPECT_EQ(a.extension.data(), b.extension.data());
  const Node& dir = shard_.make_node(UserId{1}, v.id, v.root_dir,
                                     NodeKind::kDirectory, "d", "", 0, rng_);
  EXPECT_TRUE(dir.extension.empty());
}

TEST_F(ShardTest, NameHashIsA64BitHashOfTheName) {
  const Volume& v = add_user(1);
  const Node& a = shard_.make_node(UserId{1}, v.id, v.root_dir,
                                   NodeKind::kFile, "3f2a9c1d", "", 0, rng_);
  EXPECT_EQ(a.name_hash, Shard::name_hash_of("3f2a9c1d"));
  EXPECT_NE(Shard::name_hash_of("3f2a9c1d"), Shard::name_hash_of("3f2a9c1e"));
  EXPECT_EQ(Shard::name_hash_of(""), 0xcbf29ce484222325ull);  // FNV-1a basis
}

TEST_F(ShardTest, ShareGrants) {
  add_user(1);
  const Volume& v = shard_.root_volume(UserId{1});
  shard_.add_share_grant(ShareGrant{v.id, UserId{1}, UserId{2}, kHour});
  const auto grants = shard_.share_grants(UserId{2});
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].shared_by, (UserId{1}));
  shard_.remove_grants_for_volume(v.id);
  EXPECT_TRUE(shard_.share_grants(UserId{2}).empty());
}

}  // namespace
}  // namespace u1
