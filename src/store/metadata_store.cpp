#include "store/metadata_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace u1 {

MetadataStore::MetadataStore(std::size_t n_shards, std::uint64_t seed)
    : rng_(seed) {
  if (n_shards == 0)
    throw std::invalid_argument("MetadataStore: n_shards == 0");
  touched_.reserve(4);  // 1 shard for most ops, a handful for share fan-out.
  shards_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i)
    shards_.push_back(std::make_unique<Shard>(ShardId{i + 1}));
}

ShardId MetadataStore::shard_of(UserId user) const noexcept {
  // Mixed hash so that sequential synthetic user ids spread evenly.
  const std::size_t h = std::hash<UserId>{}(user);
  return ShardId{h % shards_.size() + 1};
}

Shard& MetadataStore::shard_ref(ShardId id) {
  return *shards_[id.value - 1];
}

const Shard& MetadataStore::shard(ShardId id) const {
  if (id.value == 0 || id.value > shards_.size())
    throw std::out_of_range("MetadataStore::shard: bad shard id");
  return *shards_[id.value - 1];
}

Shard& MetadataStore::route(UserId user) { return shard_ref(shard_of(user)); }

void MetadataStore::touch(ShardId id) {
  if (std::find(touched_.begin(), touched_.end(), id) == touched_.end())
    touched_.push_back(id);
}

Volume MetadataStore::create_user(UserId user, SimTime now) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  return s.create_user(user, now, rng_);
}

bool MetadataStore::has_user(UserId user) const {
  const ShardId sid = shard_of(user);
  return shards_[sid.value - 1]->has_user(user);
}

std::vector<Volume> MetadataStore::list_volumes(UserId user) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  auto volumes = s.list_volumes(user);
  // Shared volumes appear in ListVolumes output too (paper Table 2: root,
  // user-defined, shared); resolving them touches the owners' shards.
  for (const ShareGrant& g : s.share_grants(user)) {
    Shard& owner_shard = route(g.shared_by);
    touch(owner_shard.id());
    if (const Volume* v = owner_shard.find_volume(g.volume))
      volumes.push_back(*v);
  }
  return volumes;
}

std::vector<Volume> MetadataStore::list_shares(UserId user) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  std::vector<Volume> out;
  for (const ShareGrant& g : s.share_grants(user)) {
    Shard& owner_shard = route(g.shared_by);
    touch(owner_shard.id());
    if (const Volume* v = owner_shard.find_volume(g.volume)) {
      Volume shared = *v;
      shared.kind = VolumeKind::kShared;
      shared.shared_to = user;
      out.push_back(shared);
    }
  }
  return out;
}

std::optional<User> MetadataStore::get_user_data(UserId user) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  return s.get_user(user);
}

std::optional<Node> MetadataStore::get_node(UserId owner, NodeId id) {
  reset_touched();
  Shard& s = route(owner);
  touch(s.id());
  const Node* n = s.find_node(id);
  if (n == nullptr) return std::nullopt;
  return *n;
}

NodeId MetadataStore::get_root(UserId user) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  return s.root_volume(user).root_dir;
}

std::vector<Node> MetadataStore::get_delta(UserId owner, VolumeId volume,
                                           std::uint64_t since_generation) {
  reset_touched();
  Shard& s = route(owner);
  touch(s.id());
  return s.get_delta(volume, since_generation);
}

std::vector<Node> MetadataStore::get_from_scratch(UserId owner,
                                                  VolumeId volume) {
  reset_touched();
  Shard& s = route(owner);
  touch(s.id());
  return s.get_from_scratch(volume);
}

Node MetadataStore::make_dir(UserId user, VolumeId volume, NodeId parent,
                             std::string_view name, SimTime now) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  return s.make_node(user, volume, parent, NodeKind::kDirectory,
                     name, {}, now, rng_);
}

Node MetadataStore::make_file(UserId user, VolumeId volume, NodeId parent,
                              std::string_view name,
                              std::string_view extension, SimTime now) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  return s.make_node(user, volume, parent, NodeKind::kFile,
                     name, extension, now, rng_);
}

std::vector<ContentInfo> MetadataStore::unlink_node(UserId user, NodeId id) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  std::vector<ContentInfo> dead;
  for (const ContentId& cid : s.unlink_node(id)) {
    if (auto info = dedup().unlink(cid)) dead.push_back(*info);
  }
  return dead;
}

void MetadataStore::move(UserId user, NodeId id, NodeId new_parent) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  s.move_node(id, new_parent);
}

Volume MetadataStore::create_udf(UserId user, SimTime now) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  return s.create_udf(user, now, rng_);
}

std::vector<ContentInfo> MetadataStore::delete_volume(UserId user,
                                                      VolumeId volume) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  std::vector<ContentInfo> dead;
  for (const ContentId& cid : s.delete_volume(volume)) {
    if (auto info = dedup().unlink(cid)) dead.push_back(*info);
  }
  return dead;
}

std::optional<ContentInfo> MetadataStore::get_reusable_content(
    const ContentId& content, std::uint64_t size_bytes) {
  reset_touched();
  // The dedup index is content-addressed; model it as hitting the shard
  // derived from the hash prefix (any shard can serve it).
  touch(ShardId{content.prefix64() % shards_.size() + 1});
  return dedup().lookup(content, size_bytes);
}

void MetadataStore::purge_content(const ContentId& content) {
  dedup().erase(content);
}

std::optional<ContentInfo> MetadataStore::make_content(
    UserId user, NodeId node, const ContentId& content,
    std::uint64_t size_bytes) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  dedup().insert(content, size_bytes);
  const ContentId previous = s.set_node_content(node, content, size_bytes);
  dedup().link(content);
  if (!(previous == ContentId{}) && !(previous == content)) {
    if (auto dead = dedup().unlink(previous)) return dead;
  }
  return std::nullopt;
}

UploadJob MetadataStore::make_uploadjob(UserId user, NodeId node,
                                        const ContentId& content,
                                        std::uint64_t declared_size,
                                        SimTime now) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  return s.make_uploadjob(user, node, content, declared_size, now, rng_);
}

std::optional<UploadJob> MetadataStore::get_uploadjob(UserId user,
                                                      UploadJobId id) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  UploadJob* job = s.find_uploadjob(id);
  if (job == nullptr) return std::nullopt;
  return *job;
}

void MetadataStore::set_uploadjob_multipart_id(UserId user, UploadJobId id,
                                               std::string multipart_id) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  UploadJob* job = s.find_uploadjob(id);
  if (job == nullptr)
    throw std::out_of_range("set_uploadjob_multipart_id: unknown job");
  job->multipart_id = std::move(multipart_id);
}

std::uint64_t MetadataStore::add_part_to_uploadjob(UserId user, UploadJobId id,
                                                   std::uint64_t part_bytes,
                                                   SimTime now) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  UploadJob* job = s.find_uploadjob(id);
  if (job == nullptr)
    throw std::out_of_range("add_part_to_uploadjob: unknown job");
  ++job->parts;
  job->bytes_received += part_bytes;
  job->last_touched = now;
  return job->bytes_received;
}

void MetadataStore::touch_uploadjob(UserId user, UploadJobId id, SimTime now) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  UploadJob* job = s.find_uploadjob(id);
  if (job == nullptr)
    throw std::out_of_range("touch_uploadjob: unknown job");
  job->last_touched = now;
}

void MetadataStore::delete_uploadjob(UserId user, UploadJobId id) {
  reset_touched();
  Shard& s = route(user);
  touch(s.id());
  s.delete_uploadjob(id);
}

std::vector<UploadJob> MetadataStore::gc_uploadjobs(SimTime cutoff) {
  reset_touched();
  std::vector<UploadJob> collected;
  for (auto& shard : shards_) {
    touch(shard->id());
    for (const UploadJobId& jid : shard->stale_uploadjobs(cutoff)) {
      if (const UploadJob* job = shard->find_uploadjob(jid))
        collected.push_back(*job);
      shard->delete_uploadjob(jid);
    }
  }
  return collected;
}

void MetadataStore::share_volume(UserId owner, VolumeId volume, UserId to,
                                 SimTime now) {
  reset_touched();
  Shard& owner_shard = route(owner);
  touch(owner_shard.id());
  if (owner_shard.find_volume(volume) == nullptr)
    throw std::out_of_range("share_volume: unknown volume");
  Shard& to_shard = route(to);
  touch(to_shard.id());
  if (!to_shard.has_user(to))
    throw std::out_of_range("share_volume: unknown recipient");
  to_shard.add_share_grant(ShareGrant{volume, owner, to, now});
}

std::size_t MetadataStore::total_nodes() const noexcept {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->node_count();
  return n;
}

std::size_t MetadataStore::total_users() const noexcept {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->user_count();
  return n;
}

}  // namespace u1
