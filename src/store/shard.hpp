// One shard of the U1 metadata store. The real cluster was 20 PostgreSQL
// servers in 10 master/slave shards; metadata of a user's files and folders
// always lives in one shard (§3.4), which makes single-shard operations
// lockless. A Shard owns the relational state for its users: volumes,
// nodes (with a children index for directory cascades), upload jobs and
// incoming share grants.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "proto/entities.hpp"
#include "proto/ids.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace u1 {

/// Server-side multipart upload state (appendix A, Fig. 17).
struct UploadJob {
  UploadJobId id;
  UserId user;
  NodeId node;
  ContentId content;
  std::uint64_t declared_size = 0;
  std::string multipart_id;  // assigned by the data store (S3)
  std::uint32_t parts = 0;
  std::uint64_t bytes_received = 0;
  SimTime created_at = 0;
  SimTime last_touched = 0;
};

/// A share grant visible to the recipient: (owner, volume) shared to user.
struct ShareGrant {
  VolumeId volume;
  UserId shared_by;
  UserId shared_to;
  SimTime granted_at = 0;
};

class Shard {
 public:
  explicit Shard(ShardId id) : id_(id) {}
  /// Nodes view this shard's extension interner, so a copy would leave
  /// them pointing into the original.
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// The 64-bit hash a node keeps of its client-side name (FNV-1a).
  static std::uint64_t name_hash_of(std::string_view name) noexcept;

  ShardId id() const noexcept { return id_; }

  // --- users ------------------------------------------------------------
  /// Registers a user and creates their root volume. Throws
  /// std::logic_error if the user already exists on this shard.
  Volume& create_user(UserId user, SimTime now, Rng& rng);
  bool has_user(UserId user) const noexcept;
  std::optional<User> get_user(UserId user) const;

  // --- volumes ----------------------------------------------------------
  Volume& create_udf(UserId user, SimTime now, Rng& rng);
  std::vector<Volume> list_volumes(UserId user) const;
  const Volume* find_volume(VolumeId id) const;
  Volume* find_volume(VolumeId id);
  /// Root volume of a user; throws std::out_of_range for unknown users.
  Volume& root_volume(UserId user);

  /// Deletes a volume and every node it contains (cascade). Returns the
  /// content ids of all deleted file nodes so the caller can release
  /// dedup references. Throws std::out_of_range for unknown volumes and
  /// std::invalid_argument when deleting the root volume (the protocol
  /// forbids it).
  std::vector<ContentId> delete_volume(VolumeId id);

  // --- nodes ------------------------------------------------------------
  Node& make_node(UserId user, VolumeId volume, NodeId parent, NodeKind kind,
                  std::string_view name, std::string_view extension,
                  SimTime now, Rng& rng);
  const Node* find_node(NodeId id) const;
  Node* find_node(NodeId id);
  /// Children of a directory (ids), empty for unknown/leaf nodes.
  std::vector<NodeId> children_of(NodeId dir) const;

  /// Removes a node; directories cascade into their subtree. Returns the
  /// content ids of all removed file nodes (possibly empty for fresh
  /// files). Throws std::out_of_range for unknown nodes.
  std::vector<ContentId> unlink_node(NodeId id);

  /// Reparents a node within the same volume. Throws std::out_of_range
  /// for unknown ids, std::invalid_argument for cross-volume moves, moving
  /// a node into itself/its own subtree, or onto a non-directory parent.
  void move_node(NodeId id, NodeId new_parent);

  /// Attaches content to a file node (dal.make_content) and bumps the
  /// volume generation. Returns the previous content id (all-zero if the
  /// node had none) so the caller can release the old reference.
  ContentId set_node_content(NodeId id, const ContentId& content,
                             std::uint64_t size_bytes);

  /// Nodes of a volume changed after `since_generation`, in generation
  /// order (dal.get_delta). O(log volume + changes).
  std::vector<Node> get_delta(VolumeId volume,
                              std::uint64_t since_generation) const;
  /// All nodes of a volume, its root included, in generation order
  /// (dal.get_from_scratch).
  std::vector<Node> get_from_scratch(VolumeId volume) const;

  // --- upload jobs --------------------------------------------------------
  UploadJob& make_uploadjob(UserId user, NodeId node, const ContentId& content,
                            std::uint64_t declared_size, SimTime now,
                            Rng& rng);
  UploadJob* find_uploadjob(UploadJobId id);
  void delete_uploadjob(UploadJobId id);
  /// Jobs not touched since `cutoff` — the weekly GC of appendix A.
  std::vector<UploadJobId> stale_uploadjobs(SimTime cutoff) const;
  std::size_t uploadjob_count() const noexcept { return uploadjobs_.size(); }

  // --- shares -----------------------------------------------------------
  /// Records an incoming grant on the *recipient's* shard.
  void add_share_grant(const ShareGrant& grant);
  std::vector<ShareGrant> share_grants(UserId user) const;
  void remove_grants_for_volume(VolumeId volume);

  /// Drops every node row of `user`'s volumes (including root dirs)
  /// WITHOUT releasing dedup references — the blobs stay live in the
  /// registry exactly as if the rows were still here. Worker processes
  /// of the distributed engine call this right after a remote user's
  /// bootstrap replay: the rows would otherwise sit as dead weight until
  /// release_remote_groups(), pinning the per-process setup RSS peak.
  /// The user/volume rows stay (tiny, and share grants resolve against
  /// them); never call this for a user that will run in this process.
  void shed_user_namespace(UserId user);

  // --- stats ------------------------------------------------------------
  /// Read-only iteration hooks for state-snapshot analyses (Fig. 10/11).
  const std::unordered_map<VolumeId, Volume>& volumes_map() const noexcept {
    return volumes_;
  }
  const std::unordered_map<UserId, User>& users_map() const noexcept {
    return users_;
  }
  /// (file count, directory count) of a volume, excluding its root dir.
  std::pair<std::size_t, std::size_t> count_nodes(VolumeId volume) const;

  /// Entries in a volume's generation index, stale ones included; 0 for
  /// an unknown volume. Compaction keeps it at most twice the volume's
  /// node count.
  std::size_t generation_index_size(VolumeId volume) const {
    const auto it = gen_index_.find(volume);
    return it == gen_index_.end() ? 0 : it->second.entries.size();
  }

  std::size_t user_count() const noexcept { return users_.size(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t volume_count() const noexcept { return volumes_.size(); }

 private:
  /// Per-volume generation index, the only per-volume view of `nodes_`.
  /// make_node and bump_generation append one (generation, node) entry,
  /// a volume's root enters at generation 0, so entries stay in
  /// ascending generation order. An entry is live while its node exists
  /// at that generation; a re-bumped or removed node leaves a stale entry
  /// behind, skipped on read and dropped by compaction once stale entries
  /// outnumber live ones. get_delta binary-searches its start, so a delta
  /// costs O(log n + changes) instead of a walk over the whole volume.
  using IndexEntry = std::pair<std::uint64_t, NodeId>;  // (generation, node)
  struct GenerationIndex {
    std::vector<IndexEntry> entries;
    std::size_t live = 0;
  };

  void bump_generation(Node& node);
  void index_append(VolumeId volume, std::uint64_t generation, NodeId node);
  /// The node an index entry points at, or nullptr for a stale entry.
  const Node* live_node(const IndexEntry& entry) const;
  /// Drops stale entries once they outnumber live ones.
  void maybe_compact(GenerationIndex& index);
  void collect_subtree(NodeId id, std::vector<NodeId>& out) const;
  /// Canonical copy of an extension string, which nodes view. Extensions
  /// come from the file model's small closed set, so the interner stays
  /// tiny; its entries are never erased and unordered_set nodes never
  /// move, so a view stays valid for the shard's lifetime.
  std::string_view intern_extension(std::string_view s);

  struct ExtensionHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  ShardId id_;
  std::unordered_set<std::string, ExtensionHash, std::equal_to<>> extensions_;
  std::unordered_map<UserId, User> users_;
  std::unordered_map<UserId, std::vector<VolumeId>> volumes_by_user_;
  std::unordered_map<VolumeId, Volume> volumes_;
  std::unordered_map<NodeId, Node> nodes_;
  std::unordered_map<NodeId, std::vector<NodeId>> children_;
  std::unordered_map<VolumeId, GenerationIndex> gen_index_;
  std::unordered_map<UploadJobId, UploadJob> uploadjobs_;
  std::unordered_map<UserId, std::vector<ShareGrant>> grants_;
};

}  // namespace u1
