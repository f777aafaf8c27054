// Indirection seam in front of the content-dedup registry. The metadata
// store talks to its dedup index exclusively through this interface so an
// execution engine can substitute a different implementation — notably the
// shard-parallel engine, which gives every shard group an epoch-consistent
// overlay over one shared global registry (see store/dedup_overlay.hpp).
#pragma once

#include <cstdint>
#include <optional>

#include "proto/ids.hpp"

namespace u1 {

struct ContentInfo;

class DedupProxy {
 public:
  virtual ~DedupProxy() = default;

  /// dal.get_reusable_content: is this (hash, size) already stored?
  virtual std::optional<ContentInfo> lookup(const ContentId& id,
                                            std::uint64_t size_bytes) const = 0;
  /// Registers new content; false if it already existed.
  virtual bool insert(const ContentId& id, std::uint64_t size_bytes) = 0;
  /// Adds one node reference.
  virtual void link(const ContentId& id) = 0;
  /// Drops one reference; returns the blob when the count hits zero.
  virtual std::optional<ContentInfo> unlink(const ContentId& id) = 0;
  /// Physically removes a zero-refcount entry (post data-store delete).
  virtual void erase(const ContentId& id) = 0;
};

}  // namespace u1
