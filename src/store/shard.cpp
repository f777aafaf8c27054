#include "store/shard.hpp"

#include <algorithm>
#include <stdexcept>

namespace u1 {

Volume& Shard::create_user(UserId user, SimTime now, Rng& rng) {
  if (users_.contains(user))
    throw std::logic_error("Shard::create_user: user already exists");
  users_.emplace(user, User{user, now});

  Volume vol;
  vol.id = Uuid::v4(rng);
  vol.owner = user;
  vol.kind = VolumeKind::kRoot;
  vol.created_at = now;

  Node root;
  root.id = Uuid::v4(rng);
  root.volume = vol.id;
  root.parent = Uuid::nil();
  root.kind = NodeKind::kDirectory;
  root.owner = user;
  root.created_at = now;
  vol.root_dir = root.id;

  nodes_.emplace(root.id, root);
  index_append(vol.id, 0, root.id);
  children_[root.id];  // materialize empty child list
  auto [it, _] = volumes_.emplace(vol.id, vol);
  volumes_by_user_[user].push_back(vol.id);
  return it->second;
}

bool Shard::has_user(UserId user) const noexcept {
  return users_.contains(user);
}

std::optional<User> Shard::get_user(UserId user) const {
  const auto it = users_.find(user);
  if (it == users_.end()) return std::nullopt;
  return it->second;
}

Volume& Shard::create_udf(UserId user, SimTime now, Rng& rng) {
  if (!users_.contains(user))
    throw std::out_of_range("Shard::create_udf: unknown user");
  Volume vol;
  vol.id = Uuid::v4(rng);
  vol.owner = user;
  vol.kind = VolumeKind::kUdf;
  vol.created_at = now;

  Node root;
  root.id = Uuid::v4(rng);
  root.volume = vol.id;
  root.parent = Uuid::nil();
  root.kind = NodeKind::kDirectory;
  root.owner = user;
  root.created_at = now;
  vol.root_dir = root.id;

  nodes_.emplace(root.id, root);
  index_append(vol.id, 0, root.id);
  children_[root.id];
  auto [it, _] = volumes_.emplace(vol.id, vol);
  volumes_by_user_[user].push_back(vol.id);
  return it->second;
}

std::vector<Volume> Shard::list_volumes(UserId user) const {
  std::vector<Volume> out;
  const auto it = volumes_by_user_.find(user);
  if (it == volumes_by_user_.end()) return out;
  out.reserve(it->second.size());
  for (const VolumeId& vid : it->second) {
    const auto vit = volumes_.find(vid);
    if (vit != volumes_.end()) out.push_back(vit->second);
  }
  return out;
}

const Volume* Shard::find_volume(VolumeId id) const {
  const auto it = volumes_.find(id);
  return it == volumes_.end() ? nullptr : &it->second;
}

Volume* Shard::find_volume(VolumeId id) {
  const auto it = volumes_.find(id);
  return it == volumes_.end() ? nullptr : &it->second;
}

Volume& Shard::root_volume(UserId user) {
  const auto it = volumes_by_user_.find(user);
  if (it == volumes_by_user_.end() || it->second.empty())
    throw std::out_of_range("Shard::root_volume: unknown user");
  // The root volume is always the first created.
  return volumes_.at(it->second.front());
}

void Shard::collect_subtree(NodeId id, std::vector<NodeId>& out) const {
  out.push_back(id);
  const auto it = children_.find(id);
  if (it == children_.end()) return;
  for (const NodeId& child : it->second) collect_subtree(child, out);
}

std::vector<ContentId> Shard::delete_volume(VolumeId id) {
  const auto vit = volumes_.find(id);
  if (vit == volumes_.end())
    throw std::out_of_range("Shard::delete_volume: unknown volume");
  if (vit->second.kind == VolumeKind::kRoot)
    throw std::invalid_argument("Shard::delete_volume: cannot delete root");

  std::vector<ContentId> released;
  if (const auto iit = gen_index_.find(id); iit != gen_index_.end()) {
    for (const auto& entry : iit->second.entries) {
      const Node* node = live_node(entry);
      if (node == nullptr) continue;
      if (node->kind == NodeKind::kFile && !(node->content == ContentId{}))
        released.push_back(node->content);
      children_.erase(entry.second);
      nodes_.erase(entry.second);
    }
    gen_index_.erase(iit);
  }
  auto& user_vols = volumes_by_user_[vit->second.owner];
  user_vols.erase(std::remove(user_vols.begin(), user_vols.end(), id),
                  user_vols.end());
  remove_grants_for_volume(id);
  volumes_.erase(vit);
  return released;
}

void Shard::shed_user_namespace(UserId user) {
  const auto vols = volumes_by_user_.find(user);
  if (vols == volumes_by_user_.end()) return;
  for (const VolumeId& vol : vols->second) {
    const auto it = gen_index_.find(vol);
    if (it == gen_index_.end()) continue;
    // Straight row surgery: no dedup release, no generation bumps — the
    // registry must end up byte-identical to an engine that kept the rows.
    for (const auto& entry : it->second.entries) {
      if (live_node(entry) == nullptr) continue;
      nodes_.erase(entry.second);
      children_.erase(entry.second);
    }
    gen_index_.erase(it);
  }
}

std::uint64_t Shard::name_hash_of(std::string_view name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

Node& Shard::make_node(UserId user, VolumeId volume, NodeId parent,
                       NodeKind kind, std::string_view name,
                       std::string_view extension, SimTime now, Rng& rng) {
  const auto vit = volumes_.find(volume);
  if (vit == volumes_.end())
    throw std::out_of_range("Shard::make_node: unknown volume");
  const auto pit = nodes_.find(parent);
  if (pit == nodes_.end())
    throw std::out_of_range("Shard::make_node: unknown parent");
  if (pit->second.kind != NodeKind::kDirectory)
    throw std::invalid_argument("Shard::make_node: parent is not a dir");
  if (pit->second.volume != volume)
    throw std::invalid_argument("Shard::make_node: parent in other volume");

  Node node;
  node.id = Uuid::v4(rng);
  node.volume = volume;
  node.parent = parent;
  node.kind = kind;
  node.owner = user;
  node.name_hash = name_hash_of(name);
  node.extension = intern_extension(extension);
  node.created_at = now;
  node.generation = ++vit->second.generation;

  auto [it, _] = nodes_.emplace(node.id, node);
  index_append(volume, it->second.generation, it->first);
  auto& siblings = children_[parent];
  if (siblings.capacity() == 0) siblings.reserve(8);
  siblings.push_back(it->first);
  if (kind == NodeKind::kDirectory) children_[it->first];
  return it->second;
}

std::string_view Shard::intern_extension(std::string_view s) {
  if (s.empty()) return {};
  auto it = extensions_.find(s);
  if (it == extensions_.end()) it = extensions_.emplace(s).first;
  return *it;
}

const Node* Shard::find_node(NodeId id) const {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

Node* Shard::find_node(NodeId id) {
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<NodeId> Shard::children_of(NodeId dir) const {
  const auto it = children_.find(dir);
  return it == children_.end() ? std::vector<NodeId>{} : it->second;
}

std::vector<ContentId> Shard::unlink_node(NodeId id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end())
    throw std::out_of_range("Shard::unlink_node: unknown node");
  if (it->second.parent.is_nil())
    throw std::invalid_argument("Shard::unlink_node: cannot unlink a volume root");

  // Bump the volume generation so deltas notice the removal.
  const auto vit = volumes_.find(it->second.volume);
  if (vit != volumes_.end()) ++vit->second.generation;

  std::vector<NodeId> subtree;
  collect_subtree(id, subtree);

  // Detach from parent's child list.
  auto& siblings = children_[it->second.parent];
  siblings.erase(std::remove(siblings.begin(), siblings.end(), id),
                 siblings.end());

  std::vector<ContentId> released;
  // Removed nodes leave their index entries stale; no search needed.
  GenerationIndex& index = gen_index_.at(it->second.volume);
  for (const NodeId& nid : subtree) {
    const auto nit = nodes_.find(nid);
    if (nit == nodes_.end()) continue;
    if (nit->second.kind == NodeKind::kFile &&
        !(nit->second.content == ContentId{}))
      released.push_back(nit->second.content);
    children_.erase(nid);
    nodes_.erase(nit);
    --index.live;
  }
  maybe_compact(index);
  return released;
}

void Shard::move_node(NodeId id, NodeId new_parent) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end())
    throw std::out_of_range("Shard::move_node: unknown node");
  const auto pit = nodes_.find(new_parent);
  if (pit == nodes_.end())
    throw std::out_of_range("Shard::move_node: unknown parent");
  if (pit->second.kind != NodeKind::kDirectory)
    throw std::invalid_argument("Shard::move_node: parent is not a dir");
  if (pit->second.volume != it->second.volume)
    throw std::invalid_argument("Shard::move_node: cross-volume move");
  if (id == new_parent)
    throw std::invalid_argument("Shard::move_node: node into itself");
  // Reject moving a directory under its own subtree.
  for (NodeId cursor = new_parent; !cursor.is_nil();) {
    if (cursor == id)
      throw std::invalid_argument("Shard::move_node: into own subtree");
    const auto cit = nodes_.find(cursor);
    if (cit == nodes_.end()) break;
    cursor = cit->second.parent;
  }

  auto& old_siblings = children_[it->second.parent];
  old_siblings.erase(std::remove(old_siblings.begin(), old_siblings.end(), id),
                     old_siblings.end());
  it->second.parent = new_parent;
  children_[new_parent].push_back(id);
  bump_generation(it->second);
}

ContentId Shard::set_node_content(NodeId id, const ContentId& content,
                                  std::uint64_t size_bytes) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end())
    throw std::out_of_range("Shard::set_node_content: unknown node");
  if (it->second.kind != NodeKind::kFile)
    throw std::invalid_argument("Shard::set_node_content: not a file");
  const ContentId previous = it->second.content;
  it->second.content = content;
  it->second.size_bytes = size_bytes;
  bump_generation(it->second);
  return previous;
}

std::vector<Node> Shard::get_delta(VolumeId volume,
                                   std::uint64_t since_generation) const {
  std::vector<Node> out;
  const auto vit = gen_index_.find(volume);
  if (vit == gen_index_.end()) return out;
  const auto& entries = vit->second.entries;
  const auto first = std::upper_bound(
      entries.begin(), entries.end(), since_generation,
      [](std::uint64_t since, const IndexEntry& entry) {
        return since < entry.first;
      });
  for (auto e = first; e != entries.end(); ++e)
    if (const Node* node = live_node(*e)) out.push_back(*node);
  return out;
}

std::vector<Node> Shard::get_from_scratch(VolumeId volume) const {
  std::vector<Node> out;
  const auto vit = gen_index_.find(volume);
  if (vit == gen_index_.end()) return out;
  out.reserve(vit->second.live);
  for (const auto& entry : vit->second.entries)
    if (const Node* node = live_node(entry)) out.push_back(*node);
  return out;
}

UploadJob& Shard::make_uploadjob(UserId user, NodeId node,
                                 const ContentId& content,
                                 std::uint64_t declared_size, SimTime now,
                                 Rng& rng) {
  UploadJob job;
  job.id = Uuid::v4(rng);
  job.user = user;
  job.node = node;
  job.content = content;
  job.declared_size = declared_size;
  job.created_at = now;
  job.last_touched = now;
  auto [it, _] = uploadjobs_.emplace(job.id, std::move(job));
  return it->second;
}

UploadJob* Shard::find_uploadjob(UploadJobId id) {
  const auto it = uploadjobs_.find(id);
  return it == uploadjobs_.end() ? nullptr : &it->second;
}

void Shard::delete_uploadjob(UploadJobId id) {
  if (uploadjobs_.erase(id) == 0)
    throw std::out_of_range("Shard::delete_uploadjob: unknown job");
}

std::vector<UploadJobId> Shard::stale_uploadjobs(SimTime cutoff) const {
  std::vector<UploadJobId> out;
  for (const auto& [jid, job] : uploadjobs_)
    if (job.last_touched < cutoff) out.push_back(jid);
  return out;
}

void Shard::add_share_grant(const ShareGrant& grant) {
  grants_[grant.shared_to].push_back(grant);
}

std::vector<ShareGrant> Shard::share_grants(UserId user) const {
  const auto it = grants_.find(user);
  return it == grants_.end() ? std::vector<ShareGrant>{} : it->second;
}

void Shard::remove_grants_for_volume(VolumeId volume) {
  for (auto& [user, grants] : grants_) {
    grants.erase(std::remove_if(grants.begin(), grants.end(),
                                [&](const ShareGrant& g) {
                                  return g.volume == volume;
                                }),
                 grants.end());
  }
}

std::pair<std::size_t, std::size_t> Shard::count_nodes(
    VolumeId volume) const {
  std::size_t files = 0, dirs = 0;
  const auto it = gen_index_.find(volume);
  if (it == gen_index_.end()) return {0, 0};
  const Volume* vol = find_volume(volume);
  for (const auto& entry : it->second.entries) {
    const Node* node = live_node(entry);
    if (node == nullptr) continue;
    if (vol != nullptr && node->id == vol->root_dir) continue;  // root
    if (node->kind == NodeKind::kDirectory) {
      ++dirs;
    } else {
      ++files;
    }
  }
  return {files, dirs};
}

void Shard::bump_generation(Node& node) {
  const auto vit = volumes_.find(node.volume);
  if (vit == volumes_.end()) return;
  node.generation = ++vit->second.generation;
  // The node's previous entry goes stale; the live count is unchanged.
  GenerationIndex& index = gen_index_.at(node.volume);
  index.entries.emplace_back(node.generation, node.id);
  maybe_compact(index);
}

void Shard::index_append(VolumeId volume, std::uint64_t generation,
                         NodeId node) {
  GenerationIndex& index = gen_index_[volume];
  index.entries.emplace_back(generation, node);
  ++index.live;
}

const Node* Shard::live_node(const IndexEntry& entry) const {
  const auto it = nodes_.find(entry.second);
  return it != nodes_.end() && it->second.generation == entry.first
             ? &it->second
             : nullptr;
}

void Shard::maybe_compact(GenerationIndex& index) {
  if (index.entries.size() - index.live <= index.live) return;
  std::erase_if(index.entries, [this](const auto& entry) {
    return live_node(entry) == nullptr;
  });
}

}  // namespace u1
