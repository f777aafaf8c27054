#include "improve/content_cache.hpp"

#include <stdexcept>

namespace u1 {

ContentCache::ContentCache(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  if (capacity_bytes == 0)
    throw std::invalid_argument("ContentCache: zero capacity");
}

bool ContentCache::access(const ContentId& id, std::uint64_t size_bytes) {
  const auto it = map_.find(id);
  if (it != map_.end()) {
    ++hits_;
    hit_bytes_ += size_bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  ++misses_;
  if (size_bytes > capacity_) return false;  // never admit whales
  lru_.push_front(Entry{id, size_bytes});
  map_[id] = lru_.begin();
  used_ += size_bytes;
  while (used_ > capacity_ && !lru_.empty()) {
    used_ -= lru_.back().size;
    map_.erase(lru_.back().id);
    lru_.pop_back();
  }
  return false;
}

double ContentCache::hit_rate() const noexcept {
  const std::uint64_t total = hits_ + misses_;
  return total > 0 ? static_cast<double>(hits_) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace u1
