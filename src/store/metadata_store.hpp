// The U1 metadata store facade: 10 master/slave shards behind a user-id
// router (§3.4), plus the global content-dedup registry. RPC workers call
// the typed operations below; each call records which shards it touched so
// the server layer can account load per shard (Fig. 14) and model
// single-shard (lockless) vs cross-shard (sharing) operations.
//
// Thread-safety: none — the simulator is a single-threaded discrete-event
// loop; this mirrors one logical timeline of the production system.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "proto/entities.hpp"
#include "store/content_registry.hpp"
#include "store/shard.hpp"
#include "util/rng.hpp"

namespace u1 {

class MetadataStore {
 public:
  /// n_shards defaults to the production cluster's 10 (paper §3.4).
  explicit MetadataStore(std::size_t n_shards = 10,
                         std::uint64_t seed = 0x5eed);

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// user-id -> shard routing, exactly the paper's "routes operations by
  /// user identifier to the appropriate shard".
  ShardId shard_of(UserId user) const noexcept;

  /// Shards touched by the most recent operation (1 for everything except
  /// share-related calls). Valid until the next operation.
  const std::vector<ShardId>& shards_touched() const noexcept {
    return touched_;
  }

  /// Clears the touched-shard list; callers issuing RPCs that bypass the
  /// store (e.g. auth.get_user_id_from_token) use this so stale shard info
  /// does not leak into their accounting.
  void clear_touched() noexcept { touched_.clear(); }

  // --- account ------------------------------------------------------------
  /// Registers a user and their root volume; returns the root volume.
  Volume create_user(UserId user, SimTime now);
  bool has_user(UserId user) const;

  // --- reads ---------------------------------------------------------------
  std::vector<Volume> list_volumes(UserId user);
  /// Shared volumes visible to `user` — may touch the owners' shards too.
  std::vector<Volume> list_shares(UserId user);
  std::optional<User> get_user_data(UserId user);
  std::optional<Node> get_node(UserId owner, NodeId id);
  NodeId get_root(UserId user);
  std::vector<Node> get_delta(UserId owner, VolumeId volume,
                              std::uint64_t since_generation);
  std::vector<Node> get_from_scratch(UserId owner, VolumeId volume);

  // --- namespace writes ------------------------------------------------------
  /// `name` is the client's (already anonymized) name; the node keeps
  /// its 64-bit hash.
  Node make_dir(UserId user, VolumeId volume, NodeId parent,
                std::string_view name, SimTime now);
  Node make_file(UserId user, VolumeId volume, NodeId parent,
                 std::string_view name, std::string_view extension,
                 SimTime now);
  /// Cascading unlink; returns content ids whose dedup refcount dropped to
  /// zero (dead blobs the API server must delete from the data store).
  std::vector<ContentInfo> unlink_node(UserId user, NodeId id);
  void move(UserId user, NodeId id, NodeId new_parent);
  Volume create_udf(UserId user, SimTime now);
  /// Cascading volume delete; returns dead blobs as unlink_node does.
  std::vector<ContentInfo> delete_volume(UserId user, VolumeId volume);

  // --- content & dedup -------------------------------------------------------
  /// dal.get_reusable_content: returns the existing blob if (hash, size)
  /// is already stored, enabling the client to skip the upload.
  std::optional<ContentInfo> get_reusable_content(const ContentId& content,
                                                  std::uint64_t size_bytes);
  /// Final step of blob garbage collection: once the API server has
  /// deleted a dead blob from the data store, drop its registry entry so
  /// dedup accounting reflects only live data.
  void purge_content(const ContentId& content);

  /// dal.make_content: attach content to a file node, registering the blob
  /// on first sight and maintaining dedup references. Returns the dead
  /// previous blob if this update orphaned one.
  std::optional<ContentInfo> make_content(UserId user, NodeId node,
                                          const ContentId& content,
                                          std::uint64_t size_bytes);

  // --- upload jobs ------------------------------------------------------------
  UploadJob make_uploadjob(UserId user, NodeId node, const ContentId& content,
                           std::uint64_t declared_size, SimTime now);
  std::optional<UploadJob> get_uploadjob(UserId user, UploadJobId id);
  void set_uploadjob_multipart_id(UserId user, UploadJobId id,
                                  std::string multipart_id);
  /// Returns the job's cumulative bytes after adding the part.
  std::uint64_t add_part_to_uploadjob(UserId user, UploadJobId id,
                                      std::uint64_t part_bytes, SimTime now);
  void touch_uploadjob(UserId user, UploadJobId id, SimTime now);
  void delete_uploadjob(UserId user, UploadJobId id);
  /// Weekly GC sweep (appendix A): deletes jobs idle since `cutoff`
  /// across all shards; returns the collected jobs so the caller can
  /// abort their in-flight S3 multipart uploads.
  std::vector<UploadJob> gc_uploadjobs(SimTime cutoff);

  // --- sharing ---------------------------------------------------------------
  /// Grants `to` access to an owner's volume (cross-shard when the two
  /// users live on different shards, as in the paper).
  void share_volume(UserId owner, VolumeId volume, UserId to, SimTime now);

  /// Shard-parallel worker hook: drops `user`'s node rows on their home
  /// shard without touching dedup refcounts (see Shard::shed_user_namespace).
  /// Does not count as an operation — shards_touched() is unaffected.
  void shed_user_namespace(UserId user) {
    shard_ref(shard_of(user)).shed_user_namespace(user);
  }

  /// Re-points every dedup operation (lookup/insert/link/unlink/erase) at
  /// an external index instead of the store-owned registry. The
  /// shard-parallel engine uses this to share one global dedup registry
  /// across per-group stores (live during sequential setup, epoch-overlay
  /// during the parallel run). nullptr restores the owned registry.
  void set_dedup_proxy(DedupProxy* proxy) noexcept { dedup_ = proxy; }

  // --- introspection -----------------------------------------------------------
  const ContentRegistry& contents() const noexcept { return contents_; }
  const Shard& shard(ShardId id) const;
  std::size_t total_nodes() const noexcept;
  std::size_t total_users() const noexcept;

 private:
  Shard& route(UserId user);
  Shard& shard_ref(ShardId id);
  void touch(ShardId id);
  void reset_touched() { touched_.clear(); }
  DedupProxy& dedup() noexcept {
    return dedup_ != nullptr ? *dedup_ : contents_;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  ContentRegistry contents_;
  DedupProxy* dedup_ = nullptr;
  Rng rng_;
  std::vector<ShardId> touched_;
};

}  // namespace u1
