// SharedDedup's two barrier paths must agree: merge_epoch replays the
// overlays' op logs in-process, extract_log/apply_log ship them as bytes
// between the distributed engine's processes. The log carries content
// ids and sizes only (blobs are keyed by ContentId).
#include "store/dedup_overlay.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/sha1.hpp"

namespace u1 {
namespace {

ContentId cid(const char* s) { return Sha1::of(s); }

const char* const kIds[] = {"x", "y", "z", "w"};

// Epoch 1: both groups store x (a cross-group duplicate insert), group 0
// stores y and lets it die in-line, group 1 stores z with two references.
void epoch_one(SharedDedup& d) {
  DedupOverlay& g0 = d.overlay(0);
  DedupOverlay& g1 = d.overlay(1);
  g0.insert(cid("x"), 10);
  g0.link(cid("x"));
  g1.insert(cid("x"), 10);
  g1.link(cid("x"));
  g0.insert(cid("y"), 20);
  g0.link(cid("y"));
  ASSERT_TRUE(g0.unlink(cid("y")).has_value());
  g0.erase(cid("y"));
  g1.insert(cid("z"), 30);
  g1.link(cid("z"));
  g1.link(cid("z"));
}

// Epoch 2: z's two references drop in different groups, so neither sees
// it die and the replay must collect it; x gains a reference, w arrives.
void epoch_two(SharedDedup& d) {
  DedupOverlay& g0 = d.overlay(0);
  DedupOverlay& g1 = d.overlay(1);
  EXPECT_FALSE(g0.unlink(cid("z")).has_value());
  EXPECT_FALSE(g1.unlink(cid("z")).has_value());
  g0.link(cid("x"));
  g1.insert(cid("w"), 1ull << 40);  // a size that needs a long varint
  g1.link(cid("w"));
}

struct Outcome {
  std::vector<std::uint64_t> refcounts, sizes;
  std::vector<bool> present;
  std::uint64_t unique_bytes = 0, logical_bytes = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome(const SharedDedup& d) {
  Outcome o;
  for (const char* id : kIds) {
    const ContentInfo* info = d.global().find(cid(id));
    o.present.push_back(info != nullptr);
    o.refcounts.push_back(info ? info->refcount : 0);
    o.sizes.push_back(info ? info->size_bytes : 0);
  }
  o.unique_bytes = d.global().unique_bytes();
  o.logical_bytes = d.global().logical_bytes();
  return o;
}

TEST(SharedDedup, LogRoundTripEqualsMergeEpoch) {
  SharedDedup merged(2);
  epoch_one(merged);
  merged.merge_epoch();
  epoch_two(merged);
  merged.merge_epoch();

  SharedDedup shipped(2);
  for (const auto epoch : {epoch_one, epoch_two}) {
    epoch(shipped);
    // Every group's log is extracted before any is applied, as the
    // coordinator gathers them, then replayed in group order.
    std::vector<std::vector<std::uint8_t>> logs;
    for (std::size_t g = 0; g < 2; ++g) logs.push_back(shipped.extract_log(g));
    EXPECT_EQ(shipped.overlay(0).pending_ops(), 0u);
    for (const auto& log : logs) shipped.apply_log(log);
  }

  const Outcome want = outcome(merged);
  EXPECT_EQ(outcome(shipped), want);
  EXPECT_EQ(want.refcounts[0], 3u);  // x: one link per group, then one more
  EXPECT_FALSE(want.present[1]);     // y died in-line
  EXPECT_FALSE(want.present[2]);     // z died across groups, GC'd by the replay
  EXPECT_EQ(want.sizes[3], 1ull << 40);
}

TEST(SharedDedup, TruncatedLogThrows) {
  SharedDedup source(2);
  epoch_one(source);
  const std::vector<std::uint8_t> log = source.extract_log(1);
  // kind + 20-byte id + one-byte size per op, after the op count.
  EXPECT_EQ(log.size(), 1u + 5u * (1u + 20u + 1u));
  for (std::size_t cut = 0; cut < log.size(); ++cut) {
    SharedDedup sink(2);
    EXPECT_THROW(sink.apply_log({log.data(), cut}), std::runtime_error)
        << "cut at " << cut;
  }
  std::vector<std::uint8_t> trailing = log;
  trailing.push_back(0);
  SharedDedup sink(2);
  EXPECT_THROW(sink.apply_log(trailing), std::runtime_error);
}

}  // namespace
}  // namespace u1
