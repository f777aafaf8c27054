// Discrete-event core: a time-ordered queue with deterministic FIFO
// tie-breaking (events at equal timestamps pop in insertion order, so a
// simulation is reproducible bit-for-bit given a seed).
//
// The queue is a classic calendar queue (Brown '88): B = 2^k unsorted
// buckets of width W simulated time; an event with timestamp t lives in
// bucket (t/W) mod B. The cursor walks bucket-by-bucket through the
// current "year"; pops scan only the current bucket for the minimum
// (t, seq). With the self-tuning resize policy keeping ~1-2 events per
// bucket, push and pop are amortized O(1) — no log-factor in the
// simulator's hottest loop. Degenerate inputs (millions of events at one
// timestamp) degrade to a linear bucket scan; the DES workload has
// continuous timestamps where that does not occur. Tests check the pop
// order against a binary-heap reference, FIFO ties included.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/sim_time.hpp"

namespace u1 {

template <typename Payload>
class EventQueue {
 public:
  struct Event {
    SimTime t;
    std::uint64_t seq;
    Payload payload;
  };

  /// Lifetime calendar-bucket statistics.
  /// Unlike scan_cost_/finds_ — which the self-tuning policy resets —
  /// these only grow, so scanned/finds is the true average number of
  /// events inspected per minimum-location over the whole run.
  struct CalendarStats {
    std::uint64_t rebuilds = 0;  // bucket-array resizes / re-estimates
    std::uint64_t finds = 0;     // minimum locations (next_time/pop)
    std::uint64_t scanned = 0;   // events inspected across all finds
  };
  CalendarStats calendar_stats() const noexcept { return stats_; }

  void push(SimTime t, Payload payload) {
    cal_push(Event{t, next_seq_++, std::move(payload)});
  }

  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  /// Timestamp of the next event; only valid when !empty(). (Locating
  /// the minimum advances the cursor, hence non-const; the result is
  /// cached for the following pop.)
  SimTime next_time() {
    cal_find_min();
    return buckets_[min_bucket_][min_index_].t;
  }

  /// Pops the earliest event (moved out of the store, never copied).
  Event pop() { return cal_pop(); }

 private:
  struct Sooner {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;
    }
  };

  static std::int64_t fdiv(SimTime t, SimTime w) noexcept {
    return t >= 0 ? t / w : -((-t + w - 1) / w);
  }
  std::size_t bucket_of(std::int64_t div) const noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(div) &
                                    (buckets_.size() - 1));
  }

  void cal_push(Event ev) {
    if (buckets_.empty()) {
      buckets_.resize(kMinBuckets);
      cur_div_ = fdiv(ev.t, width_);
    }
    const std::int64_t d = fdiv(ev.t, width_);
    if (d < cur_div_) cur_div_ = d;  // earlier than the cursor: back up
    auto& bucket = buckets_[bucket_of(d)];
    if (min_valid_ && ev.t < buckets_[min_bucket_][min_index_].t) {
      // New global minimum; equal timestamps keep the cached event (its
      // seq is necessarily smaller).
      min_bucket_ = bucket_of(d);
      min_index_ = bucket.size();
    }
    bucket.push_back(std::move(ev));
    ++count_;
    if (count_ > buckets_.size() * 2) cal_rebuild(buckets_.size() * 2);
  }

  /// Locates (and caches) the minimum (t, seq) event. Walks due buckets
  /// from the cursor; if a whole calendar year is empty the queue is
  /// sparse relative to the bucket width — fall back to a direct scan
  /// and jump the cursor to the minimum.
  void cal_find_min() {
    if (min_valid_) return;
    ++finds_;
    ++stats_.finds;
    const std::size_t n_buckets = buckets_.size();
    for (std::size_t pass = 0; pass < n_buckets; ++pass) {
      const std::int64_t d = cur_div_ + static_cast<std::int64_t>(pass);
      const auto& bucket = buckets_[bucket_of(d)];
      scan_cost_ += bucket.size() + 1;
      stats_.scanned += bucket.size() + 1;
      std::size_t best = bucket.size();
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        if (fdiv(bucket[i].t, width_) != d) continue;
        if (best == bucket.size() || Sooner{}(bucket[i], bucket[best]))
          best = i;
      }
      if (best != bucket.size()) {
        cur_div_ = d;
        min_bucket_ = bucket_of(d);
        min_index_ = best;
        min_valid_ = true;
        return;
      }
    }
    std::size_t bb = 0, bi = 0;
    bool have = false;
    for (std::size_t b = 0; b < n_buckets; ++b) {
      scan_cost_ += buckets_[b].size();
      stats_.scanned += buckets_[b].size();
      for (std::size_t i = 0; i < buckets_[b].size(); ++i) {
        if (!have || Sooner{}(buckets_[b][i], buckets_[bb][bi])) {
          bb = b;
          bi = i;
          have = true;
        }
      }
    }
    cur_div_ = fdiv(buckets_[bb][bi].t, width_);
    min_bucket_ = bb;
    min_index_ = bi;
    min_valid_ = true;
  }

  Event cal_pop() {
    cal_find_min();
    auto& bucket = buckets_[min_bucket_];
    Event out = std::move(bucket[min_index_]);
    // Buckets are unsorted, so swap-remove is order-neutral.
    if (min_index_ + 1 != bucket.size())
      bucket[min_index_] = std::move(bucket.back());
    bucket.pop_back();
    --count_;
    min_valid_ = false;
    cur_div_ = fdiv(out.t, width_);
    if (buckets_.size() > kMinBuckets && count_ < buckets_.size() / 4) {
      cal_rebuild(buckets_.size() / 2);
    } else if (finds_ >= 4096) {
      // Scans are averaging too many inspected events per find: the
      // width no longer matches the event density — re-estimate.
      if (scan_cost_ > finds_ * 8) cal_rebuild(buckets_.size());
      scan_cost_ = 0;
      finds_ = 0;
    }
    return out;
  }

  /// Rebuilds with `new_buckets` buckets and a width re-estimated from
  /// the event gaps at the head of the queue (Brown's heuristic: ~3x the
  /// mean gap among the nearest events), so one bucket holds a handful
  /// of events regardless of how the workload's time scale drifts.
  void cal_rebuild(std::size_t new_buckets) {
    ++stats_.rebuilds;
    std::vector<Event> all;
    all.reserve(count_);
    for (auto& bucket : buckets_) {
      for (auto& ev : bucket) all.push_back(std::move(ev));
      bucket.clear();
    }
    SimTime min_t = 0;
    if (all.size() >= 2) {
      std::vector<SimTime> times;
      times.reserve(all.size());
      for (const Event& ev : all) times.push_back(ev.t);
      const std::size_t sample = std::min<std::size_t>(times.size(), 64);
      std::nth_element(times.begin(),
                       times.begin() + static_cast<std::ptrdiff_t>(sample - 1),
                       times.end());
      const SimTime head_max = times[sample - 1];
      min_t = *std::min_element(
          times.begin(), times.begin() + static_cast<std::ptrdiff_t>(sample));
      width_ = std::max<SimTime>(
          1, 3 * (head_max - min_t) / static_cast<SimTime>(sample - 1));
    } else if (!all.empty()) {
      min_t = all.front().t;
    }
    buckets_.assign(std::max<std::size_t>(new_buckets, kMinBuckets), {});
    for (auto& ev : all) {
      const SimTime t = ev.t;
      buckets_[bucket_of(fdiv(t, width_))].push_back(std::move(ev));
    }
    count_ = all.size();
    cur_div_ = fdiv(min_t, width_);
    min_valid_ = false;
    scan_cost_ = 0;
    finds_ = 0;
  }

  static constexpr std::size_t kMinBuckets = 8;  // power of two

  std::uint64_t next_seq_ = 0;
  std::vector<std::vector<Event>> buckets_;
  SimTime width_ = kSecond;
  std::int64_t cur_div_ = 0;  // floor(t/width) of the cursor bucket
  std::size_t count_ = 0;
  bool min_valid_ = false;  // cached minimum location (next_time -> pop)
  std::size_t min_bucket_ = 0;
  std::size_t min_index_ = 0;
  std::uint64_t scan_cost_ = 0;  // events inspected since last re-estimate
  std::uint64_t finds_ = 0;
  CalendarStats stats_;  // cumulative, never reset
};

}  // namespace u1
