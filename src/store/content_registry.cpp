#include "store/content_registry.hpp"

#include <stdexcept>

namespace u1 {

std::optional<ContentInfo> ContentRegistry::lookup(
    const ContentId& id, std::uint64_t size_bytes) const {
  const auto it = table_.find(id);
  if (it == table_.end()) return std::nullopt;
  if (it->second.size_bytes != size_bytes) return std::nullopt;
  return it->second;
}

bool ContentRegistry::insert(const ContentId& id, std::uint64_t size_bytes) {
  const auto [it, inserted] =
      table_.try_emplace(id, ContentInfo{id, size_bytes, 0});
  if (inserted) unique_bytes_ += size_bytes;
  return inserted;
}

void ContentRegistry::link(const ContentId& id) {
  auto& info = table_.at(id);
  ++info.refcount;
  logical_bytes_ += info.size_bytes;
}

std::optional<ContentInfo> ContentRegistry::unlink(const ContentId& id) {
  auto& info = table_.at(id);
  if (info.refcount == 0)
    throw std::logic_error("ContentRegistry::unlink: refcount already zero");
  --info.refcount;
  logical_bytes_ -= info.size_bytes;
  if (info.refcount == 0) return info;
  return std::nullopt;
}

void ContentRegistry::erase(const ContentId& id) {
  const auto it = table_.find(id);
  if (it == table_.end())
    throw std::out_of_range("ContentRegistry::erase: unknown content");
  if (it->second.refcount != 0)
    throw std::logic_error("ContentRegistry::erase: still referenced");
  unique_bytes_ -= it->second.size_bytes;
  table_.erase(it);
}

std::uint64_t ContentRegistry::refcount_of(const ContentId& id) const noexcept {
  const ContentInfo* info = find(id);
  return info == nullptr ? 0 : info->refcount;
}

const ContentInfo* ContentRegistry::find(const ContentId& id) const noexcept {
  const auto it = table_.find(id);
  return it == table_.end() ? nullptr : &it->second;
}

double ContentRegistry::dedup_ratio() const noexcept {
  if (logical_bytes_ == 0) return 0.0;
  if (unique_bytes_ >= logical_bytes_) return 0.0;
  return 1.0 - static_cast<double>(unique_bytes_) /
                   static_cast<double>(logical_bytes_);
}

}  // namespace u1
