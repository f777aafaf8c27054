// Epoch-consistent shared dedup for the shard-parallel engine.
//
// U1's content registry is the one genuinely cross-shard structure: any
// user's upload may dedup against a blob first stored by a user on a
// different shard (§3.3 is explicit that dedup is cross-user and global).
// A naive shared registry would make parallel runs schedule-dependent —
// whether shard group A's insert lands before group B's lookup would
// depend on thread timing.
//
// SharedDedup instead freezes the global registry for the duration of one
// simulated epoch. Each shard group works through its own DedupOverlay: a
// copy-on-read view that sees (frozen global state) + (the group's own
// writes this epoch) and records an op log. At the epoch barrier the
// engine replays the logs into the global registry in fixed group order —
// a deterministic function of the per-group streams, so the outcome is
// bit-identical for any worker-thread count, including one.
//
// The price is bounded staleness: a blob first uploaded by group A in
// epoch e becomes visible to other groups' dedup checks at e+1 (at most
// one simulated hour later). Within a group there is no lag at all.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "store/content_registry.hpp"
#include "store/dedup_proxy.hpp"

namespace u1 {

class SharedDedup;

/// One shard group's epoch-scoped view of the shared registry. Exact
/// ContentRegistry semantics (including the throwing contracts) against
/// frozen-global + own-writes state.
class DedupOverlay final : public DedupProxy {
 public:
  std::optional<ContentInfo> lookup(const ContentId& id,
                                    std::uint64_t size_bytes) const override;
  bool insert(const ContentId& id, std::uint64_t size_bytes) override;
  void link(const ContentId& id) override;
  std::optional<ContentInfo> unlink(const ContentId& id) override;
  void erase(const ContentId& id) override;

  std::size_t pending_ops() const noexcept { return log_.size(); }

 private:
  friend class SharedDedup;

  enum class OpKind : std::uint8_t { kInsert, kLink, kUnlink, kErase };
  struct Op {
    OpKind kind;
    ContentId id;
    std::uint64_t size_bytes = 0;
  };
  /// Lazily materialized view of one content id (frozen global + deltas).
  struct View {
    bool present = false;
    std::uint64_t refcount = 0;
    std::uint64_t size_bytes = 0;
  };

  explicit DedupOverlay(const ContentRegistry* global) : global_(global) {}
  View& view_of(const ContentId& id) const;

  const ContentRegistry* global_;
  mutable std::unordered_map<ContentId, View> views_;
  std::vector<Op> log_;
};

class SharedDedup {
 public:
  explicit SharedDedup(std::size_t groups);

  /// The live global registry. Mutable access is only sound between
  /// epochs (setup / merge); workers must go through their overlay.
  ContentRegistry& global() noexcept { return global_; }
  const ContentRegistry& global() const noexcept { return global_; }

  DedupOverlay& overlay(std::size_t group) { return *overlays_[group]; }
  std::size_t group_count() const noexcept { return overlays_.size(); }

  /// Replays every group's op log into the global registry in group
  /// order, then clears the overlays for the next epoch. Sequential —
  /// call only at an epoch barrier.
  void merge_epoch();

  /// Distributed barrier support (DESIGN.md §12): serializes one
  /// overlay's epoch op log and clears the overlay — the worker-side
  /// half of merge_epoch. Wire format: varint op count, then per op
  /// kind:u8, id:20B raw, size:varint. Blobs are keyed by id alone, so
  /// no S3 key travels.
  std::vector<std::uint8_t> extract_log(std::size_t group);
  /// Replays one serialized op log into the global registry with
  /// merge_epoch's tolerant cross-group semantics. Every process applies
  /// every group's blob in group order, so the replicas stay identical.
  /// The channel is trusted (same-binary workers over a socketpair);
  /// throws std::runtime_error on a malformed blob.
  void apply_log(std::span<const std::uint8_t> bytes);

 private:
  void replay_op(DedupOverlay::OpKind kind, const ContentId& id,
                 std::uint64_t size_bytes);

  ContentRegistry global_;
  std::vector<std::unique_ptr<DedupOverlay>> overlays_;
};

}  // namespace u1
