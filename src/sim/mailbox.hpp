// Bounded MPSC inter-epoch mailbox (the ROADMAP's "lock-free inter-epoch
// mailbox"). One lane per shard group; producers post cross-group
// commands from any thread during an epoch or a pipelined flush, and the
// coordinator drains everything at the barrier.
//
// post() is wait-free on the common path: an atomic fetch_add claims a
// slot in the lane's fixed-capacity ring. A lane that overflows its ring
// spills to a mutex-guarded vector — commands are never dropped, the
// bound only caps the lock-free fast path.
//
// drain() is single-consumer by construction (the epoch barrier): it
// visits lanes in index order, ring before spill, each in production
// order. Delivery order is therefore a pure function of the per-lane
// production orders — deterministic whenever each lane's producer is
// (in this engine: flush stage A's guard scan, which walks the merged
// trace in its deterministic total order).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace u1 {

template <typename T>
class EpochMailbox {
 public:
  EpochMailbox() = default;
  explicit EpochMailbox(std::size_t lanes, std::size_t lane_capacity = 64) {
    reset(lanes, lane_capacity);
  }

  /// (Re)shapes the mailbox; discards anything pending. Not thread-safe.
  void reset(std::size_t lanes, std::size_t lane_capacity = 64) {
    lanes_.clear();
    lanes_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
      auto lane = std::make_unique<Lane>();
      lane->ring.resize(lane_capacity);
      lanes_.push_back(std::move(lane));
    }
  }

  std::size_t lanes() const noexcept { return lanes_.size(); }
  std::size_t lane_capacity() const noexcept {
    return lanes_.empty() ? 0 : lanes_.front()->ring.size();
  }

  /// Thread-safe. Posts `value` to `lane`; wait-free unless the lane's
  /// ring is full (then a mutex-guarded spill keeps the value).
  void post(std::size_t lane_index, T value) {
    Lane& lane = *lanes_[lane_index];
    const std::size_t slot =
        lane.claimed.fetch_add(1, std::memory_order_acq_rel);
    if (slot < lane.ring.size()) {
      lane.ring[slot] = std::move(value);
    } else {
      const std::lock_guard<std::mutex> lock(lane.spill_mu);
      lane.spill.push_back(std::move(value));
    }
  }

  /// Single-consumer, at the barrier (all producers quiesced). Calls
  /// fn(lane_index, value) for every pending value — lanes in index
  /// order, ring slots before spill, each in production order — then
  /// leaves the mailbox empty.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      Lane& lane = *lanes_[i];
      const std::size_t claimed = lane.claimed.load(std::memory_order_acquire);
      const std::size_t in_ring = std::min(claimed, lane.ring.size());
      for (std::size_t s = 0; s < in_ring; ++s)
        fn(i, std::move(lane.ring[s]));
      if (claimed > lane.ring.size()) {
        const std::lock_guard<std::mutex> lock(lane.spill_mu);
        for (T& value : lane.spill) fn(i, std::move(value));
        lane.spill.clear();
      }
      lane.claimed.store(0, std::memory_order_release);
    }
  }

  /// Pending values across all lanes (single-consumer context only).
  std::size_t pending() const noexcept {
    std::size_t n = 0;
    for (const auto& lane : lanes_)
      n += lane->claimed.load(std::memory_order_acquire);
    return n;
  }

 private:
  struct Lane {
    std::vector<T> ring;  // fixed capacity; slots claimed atomically
    std::atomic<std::size_t> claimed{0};
    std::mutex spill_mu;
    std::vector<T> spill;  // overflow beyond the ring, in post order
  };
  // unique_ptr: lanes hold an atomic + mutex and must stay address-stable.
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace u1
