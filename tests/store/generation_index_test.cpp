// Reference test for the Shard's per-volume generation index: random
// operation sequences are checked, after every step, against a brute-force
// scan of every node the test ever created (find_node on each id), so the
// index is compared with the node table itself and never with itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "store/shard.hpp"
#include "util/sha1.hpp"

namespace u1 {
namespace {

using NodeGen = std::pair<NodeId, std::uint64_t>;

class GenerationIndexTest : public ::testing::Test {
 protected:
  GenerationIndexTest() : shard_(ShardId{1}), ids_(99), pick_(2015) {}

  // --- operations, each recording what it creates ------------------------
  void add_user() {
    const UserId user{users_.size() + 1};
    users_.push_back(user);
    track_volume(shard_.create_user(user, kHour, ids_));
  }

  void add_udf(UserId user) {
    track_volume(shard_.create_udf(user, kHour, ids_));
  }

  void track_volume(const Volume& v) {
    volumes_.push_back(v.id);
    created_.push_back(v.root_dir);
  }

  Node& make(VolumeId volume, NodeId parent, NodeKind kind) {
    const std::string ext = kind == NodeKind::kFile ? "jpg" : "";
    Node& n = shard_.make_node(shard_.find_volume(volume)->owner, volume,
                               parent, kind, "h", ext, kHour, ids_);
    created_.push_back(n.id);
    return n;
  }

  void set_content(NodeId file) {
    shard_.set_node_content(file, Sha1::of(std::to_string(++blobs_)), 100);
  }

  // --- brute force over the node table -----------------------------------
  std::map<VolumeId, std::vector<const Node*>> live_by_volume() const {
    std::map<VolumeId, std::vector<const Node*>> out;
    for (const NodeId& id : created_)
      if (const Node* n = shard_.find_node(id)) out[n->volume].push_back(n);
    return out;
  }

  std::vector<const Node*> nodes_of_kind(NodeKind kind) const {
    std::vector<const Node*> out;
    for (const NodeId& id : created_)
      if (const Node* n = shard_.find_node(id); n && n->kind == kind)
        out.push_back(n);
    return out;
  }

  static std::vector<NodeGen> as_pairs(const std::vector<Node>& nodes) {
    std::vector<NodeGen> out;
    for (const Node& n : nodes) out.emplace_back(n.id, n.generation);
    return out;
  }

  static void expect_generation_order(const std::vector<Node>& nodes) {
    for (std::size_t i = 1; i < nodes.size(); ++i)
      EXPECT_LT(nodes[i - 1].generation, nodes[i].generation);
  }

  // Every query of every volume ever created against the brute force.
  void check_all() {
    std::size_t live_total = 0;
    const auto by_volume = live_by_volume();
    for (const VolumeId& vol : volumes_) {
      const auto found = by_volume.find(vol);
      const std::vector<const Node*> live =
          found == by_volume.end() ? std::vector<const Node*>{} : found->second;
      live_total += live.size();
      const Volume* v = shard_.find_volume(vol);
      const std::uint64_t gen = v ? v->generation : 0;

      const std::vector<std::uint64_t> sinces = {
          0, gen >= 8 ? gen - 8 : 0, gen >= 1 ? gen - 1 : 0,
          pick_.below(gen + 1), gen, gen + 5};
      for (const std::uint64_t since : sinces) {
        std::vector<NodeGen> want;
        for (const Node* n : live)
          if (n->generation > since) want.emplace_back(n->id, n->generation);
        const std::vector<Node> delta = shard_.get_delta(vol, since);
        expect_generation_order(delta);  // also rules out duplicates
        std::vector<NodeGen> got = as_pairs(delta);
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << "get_delta since " << since << " of " << gen;
      }

      std::vector<NodeGen> want_all;
      std::size_t files = 0, dirs = 0;
      for (const Node* n : live) {
        want_all.emplace_back(n->id, n->generation);
        if (v != nullptr && n->id == v->root_dir) continue;
        ++(n->is_dir() ? dirs : files);
      }
      const std::vector<Node> scratch = shard_.get_from_scratch(vol);
      expect_generation_order(scratch);
      std::vector<NodeGen> got_all = as_pairs(scratch);
      std::sort(want_all.begin(), want_all.end());
      std::sort(got_all.begin(), got_all.end());
      ASSERT_EQ(got_all, want_all) << "get_from_scratch";
      if (!live.empty()) {
        ASSERT_NE(v, nullptr);
        const auto is_root = [&](const Node& n) { return n.id == v->root_dir; };
        EXPECT_TRUE(std::any_of(scratch.begin(), scratch.end(), is_root))
            << "get_from_scratch must include the root";
      }
      ASSERT_EQ(shard_.count_nodes(vol), std::make_pair(files, dirs));
      EXPECT_LE(shard_.generation_index_size(vol), 2 * live.size());
    }
    ASSERT_EQ(shard_.node_count(), live_total);  // created_ covers nodes_
  }

  // One random step; returns false when the step had nothing to act on.
  bool random_step() {
    const auto files = nodes_of_kind(NodeKind::kFile);
    const auto dirs = nodes_of_kind(NodeKind::kDirectory);
    switch (pick_.below(100)) {
      case 0:
        if (users_.size() >= 6) return false;
        add_user();
        return true;
      case 1:
      case 2:
        add_udf(users_[pick_.below(users_.size())]);
        return true;
      case 3: {  // delete a user-defined volume
        std::vector<VolumeId> udfs;
        for (const VolumeId& vol : volumes_)
          if (const Volume* v = shard_.find_volume(vol);
              v && v->kind == VolumeKind::kUdf && !shed_.contains(v->owner))
            udfs.push_back(vol);
        if (udfs.empty()) return false;
        shard_.delete_volume(udfs[pick_.below(udfs.size())]);
        return true;
      }
      case 4: {  // rarely: shed a whole user namespace
        if (pick_.below(4) != 0 || users_.size() - shed_.size() < 2)
          return false;
        const UserId user = users_[pick_.below(users_.size())];
        if (shed_.contains(user)) return false;
        shard_.shed_user_namespace(user);
        shed_.insert(user);
        return true;
      }
      default:
        break;
    }
    if (dirs.empty()) return false;
    const Node* dir = dirs[pick_.below(dirs.size())];
    const std::uint64_t op = pick_.below(6);
    if (op == 0) {
      make(dir->volume, dir->id, NodeKind::kDirectory);
    } else if (op == 1) {
      make(dir->volume, dir->id, NodeKind::kFile);
    } else if (op == 2 && !files.empty()) {
      set_content(files[pick_.below(files.size())]->id);
    } else if (op == 3) {  // move any non-root node under a same-volume dir
      std::vector<const Node*> movable;
      for (const Node* n : files) movable.push_back(n);
      for (const Node* n : dirs)
        if (!n->parent.is_nil()) movable.push_back(n);
      if (movable.empty()) return false;
      const Node* n = movable[pick_.below(movable.size())];
      std::vector<const Node*> targets;
      for (const Node* d : dirs)
        if (d->volume == n->volume) targets.push_back(d);
      try {
        shard_.move_node(n->id, targets[pick_.below(targets.size())]->id);
      } catch (const std::invalid_argument&) {
        return false;  // into itself / its own subtree
      }
    } else if (op == 4 && !files.empty()) {
      shard_.unlink_node(files[pick_.below(files.size())]->id);
    } else if (op == 5 && !dir->parent.is_nil()) {
      shard_.unlink_node(dir->id);  // the whole subtree
    } else {
      return false;
    }
    return true;
  }

  Shard shard_;
  Rng ids_;   // node and volume ids, handed to the shard
  Rng pick_;  // the test's own choices
  std::vector<UserId> users_;
  std::set<UserId> shed_;
  std::vector<VolumeId> volumes_;
  std::vector<NodeId> created_;  // every node id ever created
  int blobs_ = 0;
};

TEST_F(GenerationIndexTest, RandomOperationsMatchBruteForceScan) {
  add_user();
  add_user();
  int steps = 0;
  for (int i = 0; i < 3000; ++i) {
    if (!random_step()) continue;
    ++steps;
    ASSERT_NO_FATAL_FAILURE(check_all()) << "after step " << i;
  }
  EXPECT_GT(steps, 1500);
  EXPECT_GT(shard_.node_count(), 20u);
}

TEST_F(GenerationIndexTest, NodeBumpedManyTimesAppearsOnceAcrossCompactions) {
  add_user();
  const VolumeId vol = volumes_[0];
  const NodeId root = shard_.find_volume(vol)->root_dir;
  const NodeId dir = make(vol, root, NodeKind::kDirectory).id;
  const NodeId hot = make(vol, root, NodeKind::kFile).id;
  for (int i = 0; i < 10; ++i) make(vol, dir, NodeKind::kFile);
  const std::size_t live = 13;  // root, dir, hot and ten files

  // Each bump leaves one stale entry; compaction runs whenever they
  // outnumber the live ones, so the index size cycles below 2 * live.
  std::size_t compactions = 0;
  std::size_t last_size = shard_.generation_index_size(vol);
  for (int i = 0; i < 200; ++i) {
    set_content(hot);
    if (i % 3 == 0) shard_.move_node(hot, i % 2 == 0 ? dir : root);
    const std::size_t size = shard_.generation_index_size(vol);
    if (size < last_size) ++compactions;
    last_size = size;
    ASSERT_LE(size, 2 * live);
    const std::vector<Node> delta = shard_.get_delta(vol, 0);
    ASSERT_EQ(std::count_if(delta.begin(), delta.end(),
                            [&](const Node& n) { return n.id == hot; }),
              1);
    ASSERT_EQ(delta.back().id, hot);  // the latest change comes last
    ASSERT_NO_FATAL_FAILURE(check_all());
  }
  EXPECT_GE(compactions, 5u);

  // Unlinking a subtree also leaves stale entries behind.
  shard_.move_node(hot, root);
  shard_.unlink_node(dir);
  ASSERT_NO_FATAL_FAILURE(check_all());
  EXPECT_EQ(shard_.generation_index_size(vol), 2u);  // compacted: root, hot
  const std::uint64_t gen = shard_.find_volume(vol)->generation;
  EXPECT_TRUE(shard_.get_delta(vol, gen - 1).empty());  // the unlink's bump
  EXPECT_EQ(shard_.count_nodes(vol), std::make_pair(std::size_t{1},
                                                    std::size_t{0}));
}

TEST_F(GenerationIndexTest, DeltaSinceCurrentGenerationIsEmpty) {
  add_user();
  const VolumeId vol = volumes_[0];
  const NodeId root = shard_.find_volume(vol)->root_dir;
  const NodeId file = make(vol, root, NodeKind::kFile).id;
  const std::uint64_t gen = shard_.find_volume(vol)->generation;
  EXPECT_TRUE(shard_.get_delta(vol, gen).empty());
  const std::vector<Node> last = shard_.get_delta(vol, gen - 1);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].id, file);
  // The root sits at generation 0: only a full listing returns it.
  EXPECT_EQ(shard_.get_delta(vol, 0).size(), 1u);
  EXPECT_EQ(shard_.get_from_scratch(vol).size(), 2u);
  EXPECT_TRUE(shard_.get_delta(VolumeId{}, 0).empty());
}

}  // namespace
}  // namespace u1
