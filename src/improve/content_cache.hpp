// Server-side content cache (paper §5.2/§9): RAR inter-arrival times are
// short and reads-per-file are long-tailed, so a Memcached-style cache in
// front of Amazon S3 absorbs a large share of GETs. Byte-capacity LRU
// keyed by content hash.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "proto/ids.hpp"

namespace u1 {

class ContentCache {
 public:
  explicit ContentCache(std::uint64_t capacity_bytes);

  /// Records an access; returns true on a hit. A miss inserts the entry
  /// (read-through) and evicts LRU entries past capacity. Objects larger
  /// than the whole cache are never admitted.
  bool access(const ContentId& id, std::uint64_t size_bytes);

  std::uint64_t capacity_bytes() const noexcept { return capacity_; }
  std::uint64_t used_bytes() const noexcept { return used_; }
  std::size_t entries() const noexcept { return map_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t hit_bytes() const noexcept { return hit_bytes_; }
  double hit_rate() const noexcept;

 private:
  struct Entry {
    ContentId id;
    std::uint64_t size;
  };

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<ContentId, std::list<Entry>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t hit_bytes_ = 0;
};

}  // namespace u1
