#include "store/content_registry.hpp"

#include <gtest/gtest.h>

#include "util/sha1.hpp"

namespace u1 {
namespace {

ContentId cid(const char* s) { return Sha1::of(s); }

TEST(ContentRegistry, InsertAndLookup) {
  ContentRegistry reg;
  EXPECT_TRUE(reg.insert(cid("a"), 100));
  const auto hit = reg.lookup(cid("a"), 100);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size_bytes, 100u);
  EXPECT_EQ(hit->id, cid("a"));
}

TEST(ContentRegistry, LookupRequiresMatchingSize) {
  ContentRegistry reg;
  reg.insert(cid("a"), 100);
  EXPECT_FALSE(reg.lookup(cid("a"), 101).has_value());
  EXPECT_FALSE(reg.lookup(cid("b"), 100).has_value());
}

TEST(ContentRegistry, DoubleInsertReturnsFalse) {
  ContentRegistry reg;
  EXPECT_TRUE(reg.insert(cid("a"), 100));
  EXPECT_FALSE(reg.insert(cid("a"), 100));
  EXPECT_EQ(reg.unique_contents(), 1u);
  EXPECT_EQ(reg.unique_bytes(), 100u);
}

TEST(ContentRegistry, LinkUnlinkRefcounting) {
  ContentRegistry reg;
  reg.insert(cid("a"), 50);
  reg.link(cid("a"));
  reg.link(cid("a"));
  EXPECT_EQ(reg.logical_bytes(), 100u);
  EXPECT_FALSE(reg.unlink(cid("a")).has_value());  // 1 ref remains
  const auto dead = reg.unlink(cid("a"));
  ASSERT_TRUE(dead.has_value());  // dropped to zero
  EXPECT_EQ(dead->id, cid("a"));
  EXPECT_EQ(reg.logical_bytes(), 0u);
}

TEST(ContentRegistry, UnlinkBelowZeroThrows) {
  ContentRegistry reg;
  reg.insert(cid("a"), 50);
  EXPECT_THROW(reg.unlink(cid("a")), std::logic_error);
}

TEST(ContentRegistry, UnknownContentThrows) {
  ContentRegistry reg;
  EXPECT_THROW(reg.link(cid("missing")), std::out_of_range);
  EXPECT_THROW(reg.unlink(cid("missing")), std::out_of_range);
  EXPECT_THROW(reg.erase(cid("missing")), std::out_of_range);
}

TEST(ContentRegistry, EraseRequiresZeroRefcount) {
  ContentRegistry reg;
  reg.insert(cid("a"), 50);
  reg.link(cid("a"));
  EXPECT_THROW(reg.erase(cid("a")), std::logic_error);
  reg.unlink(cid("a"));
  reg.erase(cid("a"));
  EXPECT_EQ(reg.unique_contents(), 0u);
  EXPECT_EQ(reg.unique_bytes(), 0u);
}

TEST(ContentRegistry, DedupRatioMatchesDefinition) {
  // dr = 1 - D_unique / D_total. Three logical copies of one 100-byte
  // blob plus one unique 100-byte blob: D_unique=200, D_total=400.
  ContentRegistry reg;
  reg.insert(cid("popular"), 100);
  reg.link(cid("popular"));
  reg.link(cid("popular"));
  reg.link(cid("popular"));
  reg.insert(cid("unique"), 100);
  reg.link(cid("unique"));
  EXPECT_DOUBLE_EQ(reg.dedup_ratio(), 0.5);
}

TEST(ContentRegistry, EmptyRegistryRatioZero) {
  ContentRegistry reg;
  EXPECT_DOUBLE_EQ(reg.dedup_ratio(), 0.0);
}

TEST(ContentRegistry, PaperLikeDedupRatio) {
  // Build a population with dr ≈ 0.171 (the paper's measured ratio):
  // 829 unique 1KB blobs with one link each + enough extra links.
  ContentRegistry reg;
  for (int i = 0; i < 829; ++i) {
    const auto id = cid(("blob" + std::to_string(i)).c_str());
    reg.insert(id, 1024);
    reg.link(id);
  }
  // Add 171 duplicate links spread over the first blobs.
  for (int i = 0; i < 171; ++i) {
    reg.link(cid(("blob" + std::to_string(i % 829)).c_str()));
  }
  EXPECT_NEAR(reg.dedup_ratio(), 0.171, 1e-9);
}

}  // namespace
}  // namespace u1
