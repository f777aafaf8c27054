#include "store/dedup_overlay.hpp"

#include <algorithm>
#include <stdexcept>

#include "proto/wire.hpp"

namespace u1 {

DedupOverlay::View& DedupOverlay::view_of(const ContentId& id) const {
  const auto it = views_.find(id);
  if (it != views_.end()) return it->second;
  View v;
  if (const ContentInfo* info = global_->find(id)) {
    v.present = true;
    v.refcount = info->refcount;
    v.size_bytes = info->size_bytes;
  }
  return views_.emplace(id, v).first->second;
}

std::optional<ContentInfo> DedupOverlay::lookup(
    const ContentId& id, std::uint64_t size_bytes) const {
  const View& v = view_of(id);
  if (!v.present || v.size_bytes != size_bytes) return std::nullopt;
  return ContentInfo{id, v.size_bytes, v.refcount};
}

bool DedupOverlay::insert(const ContentId& id, std::uint64_t size_bytes) {
  View& v = view_of(id);
  if (v.present) return false;
  v.present = true;
  v.refcount = 0;
  v.size_bytes = size_bytes;
  log_.push_back(Op{OpKind::kInsert, id, size_bytes});
  return true;
}

void DedupOverlay::link(const ContentId& id) {
  View& v = view_of(id);
  if (!v.present) throw std::out_of_range("DedupOverlay::link: unknown content");
  ++v.refcount;
  log_.push_back(Op{OpKind::kLink, id, v.size_bytes});
}

std::optional<ContentInfo> DedupOverlay::unlink(const ContentId& id) {
  View& v = view_of(id);
  if (!v.present)
    throw std::out_of_range("DedupOverlay::unlink: unknown content");
  if (v.refcount == 0)
    throw std::logic_error("DedupOverlay::unlink: refcount already zero");
  --v.refcount;
  log_.push_back(Op{OpKind::kUnlink, id, v.size_bytes});
  if (v.refcount == 0) return ContentInfo{id, v.size_bytes, 0};
  return std::nullopt;
}

void DedupOverlay::erase(const ContentId& id) {
  View& v = view_of(id);
  if (!v.present) throw std::out_of_range("DedupOverlay::erase: unknown content");
  if (v.refcount != 0)
    throw std::logic_error("DedupOverlay::erase: still referenced");
  v.present = false;
  log_.push_back(Op{OpKind::kErase, id, v.size_bytes});
}

SharedDedup::SharedDedup(std::size_t groups) {
  overlays_.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g)
    overlays_.push_back(
        std::unique_ptr<DedupOverlay>(new DedupOverlay(&global_)));
}

void SharedDedup::replay_op(DedupOverlay::OpKind kind, const ContentId& id,
                            std::uint64_t size_bytes) {
  // The replay is tolerant of cross-group interleavings the overlays
  // could not see: two groups inserting the same blob, or jointly
  // dropping a blob's last references.
  switch (kind) {
    case DedupOverlay::OpKind::kInsert:
      global_.insert(id, size_bytes);
      break;
    case DedupOverlay::OpKind::kLink:
      // Re-materialize if another group erased it this epoch (the
      // overlay validated the link against its own frozen view).
      if (global_.find(id) == nullptr) global_.insert(id, size_bytes);
      global_.link(id);
      break;
    case DedupOverlay::OpKind::kUnlink: {
      const ContentInfo* info = global_.find(id);
      if (info == nullptr || info->refcount == 0) break;  // already dead
      // Nobody observed the death in-line (the final references were
      // spread over several groups): GC it here.
      if (global_.unlink(id)) global_.erase(id);
      break;
    }
    case DedupOverlay::OpKind::kErase: {
      const ContentInfo* info = global_.find(id);
      if (info != nullptr && info->refcount == 0) global_.erase(id);
      break;
    }
  }
}

void SharedDedup::merge_epoch() {
  // Replay in fixed group order.
  for (auto& overlay : overlays_) {
    for (const DedupOverlay::Op& op : overlay->log_)
      replay_op(op.kind, op.id, op.size_bytes);
    overlay->log_.clear();
    overlay->views_.clear();
  }
}

std::vector<std::uint8_t> SharedDedup::extract_log(std::size_t group) {
  DedupOverlay& overlay = *overlays_[group];
  std::vector<std::uint8_t> out;
  out.reserve(16 + overlay.log_.size() * 26);
  wire::put_varint(out, overlay.log_.size());
  for (const DedupOverlay::Op& op : overlay.log_) {
    out.push_back(static_cast<std::uint8_t>(op.kind));
    wire::put_raw(out, op.id.bytes.data(), op.id.bytes.size());
    wire::put_varint(out, op.size_bytes);
  }
  overlay.log_.clear();
  overlay.views_.clear();
  return out;
}

void SharedDedup::apply_log(std::span<const std::uint8_t> bytes) {
  wire::Cursor c{bytes.data(), bytes.data() + bytes.size()};
  const std::uint64_t n = c.varint();
  for (std::uint64_t i = 0; c.ok && i < n; ++i) {
    const std::uint8_t kind = c.u8();
    if (kind > static_cast<std::uint8_t>(DedupOverlay::OpKind::kErase)) {
      c.ok = false;
      break;
    }
    ContentId id;
    if (const std::uint8_t* p = c.take(id.bytes.size()))
      std::copy(p, p + id.bytes.size(), id.bytes.begin());
    const std::uint64_t size_bytes = c.varint();
    if (!c.ok) break;
    replay_op(static_cast<DedupOverlay::OpKind>(kind), id, size_bytes);
  }
  if (!c.ok || c.p != c.end)
    throw std::runtime_error("SharedDedup::apply_log: malformed op log");
}

}  // namespace u1
