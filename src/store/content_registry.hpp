// Content-addressed registry behind U1's file-based cross-user
// deduplication (§3.3): clients send the SHA-1 of a file before uploading;
// if the content already exists, the new file is logically linked to it and
// no data is transferred. Reference counts decide when the blob can be
// garbage-collected from the data store.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "proto/ids.hpp"
#include "store/dedup_proxy.hpp"

namespace u1 {

struct ContentInfo {
  ContentId id;
  std::uint64_t size_bytes = 0;
  /// Number of live file nodes pointing at this content.
  std::uint64_t refcount = 0;
};

class ContentRegistry final : public DedupProxy {
 public:
  /// dal.get_reusable_content: is this (hash, size) already stored?
  /// Matching requires both hash and size to agree (a defensive check the
  /// real service performs against hash collisions / truncated uploads).
  std::optional<ContentInfo> lookup(const ContentId& id,
                                    std::uint64_t size_bytes) const override;

  /// Registers new content (refcount starts at 0; link() attaches nodes).
  /// Returns false if the content already existed (caller should link()
  /// instead of uploading).
  bool insert(const ContentId& id, std::uint64_t size_bytes) override;

  /// Adds one reference. Throws std::out_of_range for unknown content.
  void link(const ContentId& id) override;

  /// Drops one reference; returns the content's ContentInfo when the count
  /// hits zero (the caller must then delete the S3 object), nullopt
  /// otherwise. Throws std::out_of_range for unknown content and
  /// std::logic_error if the refcount is already zero.
  std::optional<ContentInfo> unlink(const ContentId& id) override;

  /// Physically removes an entry whose refcount is zero (post-S3-delete).
  /// Throws std::logic_error if still referenced.
  void erase(const ContentId& id) override;

  /// Refcount as stored (0 for unknown ids) — used by the epoch overlay.
  std::uint64_t refcount_of(const ContentId& id) const noexcept;

  /// Raw entry pointer (nullptr for unknown ids) — used by the epoch
  /// overlay to snapshot frozen state without the size check of lookup().
  const ContentInfo* find(const ContentId& id) const noexcept;

  std::size_t unique_contents() const noexcept { return table_.size(); }
  /// Bytes of unique data (the D_unique of the paper's dedup ratio).
  std::uint64_t unique_bytes() const noexcept { return unique_bytes_; }
  /// Bytes as-if stored without dedup (the D_total): sum over links.
  std::uint64_t logical_bytes() const noexcept { return logical_bytes_; }
  /// dr = 1 - D_unique / D_total (0 when empty).
  double dedup_ratio() const noexcept;

 private:
  std::unordered_map<ContentId, ContentInfo> table_;
  std::uint64_t unique_bytes_ = 0;
  std::uint64_t logical_bytes_ = 0;
};

}  // namespace u1
