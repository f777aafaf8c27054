#include "cloudstore/object_store.hpp"

#include <gtest/gtest.h>

#include "util/sha1.hpp"

namespace u1 {
namespace {

// Blobs are keyed by their content id, as the back-end stores them.
ContentId cid(const char* s) { return Sha1::of(s); }

TEST(ObjectStore, PutGetRemove) {
  ObjectStore s3;
  s3.put(cid("k1"), 100, kHour);
  const auto obj = s3.get(cid("k1"));
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->size_bytes, 100u);
  EXPECT_EQ(obj->stored_at, kHour);
  EXPECT_TRUE(s3.exists(cid("k1")));
  EXPECT_TRUE(s3.remove(cid("k1")));
  EXPECT_FALSE(s3.exists(cid("k1")));
  EXPECT_FALSE(s3.remove(cid("k1")));
  EXPECT_FALSE(s3.get(cid("k1")).has_value());
}

TEST(ObjectStore, OverwriteAdjustsBytes) {
  ObjectStore s3;
  s3.put(cid("k"), 100, 0);
  s3.put(cid("k"), 40, 1);
  EXPECT_EQ(s3.object_count(), 1u);
  EXPECT_EQ(s3.stored_bytes(), 40u);
  const auto obj = s3.get(cid("k"));
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->size_bytes, 40u);
  EXPECT_EQ(obj->stored_at, 1);
  // Growing an object back adds the difference.
  s3.put(cid("k"), 90, 2);
  EXPECT_EQ(s3.stored_bytes(), 90u);
}

TEST(ObjectStore, ByteAccounting) {
  ObjectStore s3;
  s3.put(cid("a"), 10, 0);
  s3.put(cid("b"), 20, 0);
  EXPECT_EQ(s3.stored_bytes(), 30u);
  s3.remove(cid("a"));
  EXPECT_EQ(s3.stored_bytes(), 20u);
}

TEST(ObjectStore, MultipartHappyPath) {
  ObjectStore s3;
  const std::string id = s3.initiate_multipart(cid("big"), 0);
  EXPECT_EQ(s3.open_multiparts(), 1u);
  s3.upload_part(id, kMultipartChunkBytes);
  s3.upload_part(id, kMultipartChunkBytes);
  s3.upload_part(id, 1024);  // final short part
  const auto state = s3.multipart_state(id);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->parts, 3u);
  EXPECT_EQ(state->content, cid("big"));
  EXPECT_FALSE(s3.exists(cid("big")));  // not stored until complete
  const auto obj = s3.complete_multipart(id, kHour);
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->size_bytes, 2 * kMultipartChunkBytes + 1024);
  EXPECT_EQ(obj->stored_at, kHour);
  EXPECT_TRUE(s3.exists(cid("big")));
  EXPECT_EQ(s3.get(cid("big"))->size_bytes, obj->size_bytes);
  EXPECT_EQ(s3.stored_bytes(), obj->size_bytes);
  EXPECT_EQ(s3.open_multiparts(), 0u);
  EXPECT_FALSE(s3.multipart_state(id).has_value());
}

TEST(ObjectStore, MultipartAbortDiscards) {
  ObjectStore s3;
  const std::string id = s3.initiate_multipart(cid("gone"), 0);
  s3.upload_part(id, 100);
  s3.put(cid("kept"), 7, 0);
  EXPECT_TRUE(s3.abort_multipart(id));
  EXPECT_FALSE(s3.exists(cid("gone")));
  EXPECT_TRUE(s3.exists(cid("kept")));
  s3.remove(cid("kept"));
  EXPECT_FALSE(s3.abort_multipart(id));
  EXPECT_EQ(s3.stored_bytes(), 0u);
}

TEST(ObjectStore, MultipartErrors) {
  // Bad multipart requests are status returns, not exceptions: injected
  // faults can race an upload with its own teardown, and the back-end's
  // hot path treats these as retryable service errors.
  ObjectStore s3;
  EXPECT_FALSE(s3.upload_part("nope", 10));
  EXPECT_FALSE(s3.complete_multipart("nope", 0).has_value());
  const std::string id = s3.initiate_multipart(cid("k"), 0);
  EXPECT_FALSE(s3.upload_part(id, 0));  // zero-sized part
  EXPECT_FALSE(s3.complete_multipart(id, 0).has_value());  // no parts
  // The failed complete leaves the upload open; parts can still land.
  EXPECT_TRUE(s3.upload_part(id, 100));
  EXPECT_TRUE(s3.complete_multipart(id, 0).has_value());
}

TEST(ObjectStore, DistinctUploadIds) {
  ObjectStore s3;
  const std::string a = s3.initiate_multipart(cid("k1"), 0);
  const std::string b = s3.initiate_multipart(cid("k2"), 0);
  EXPECT_NE(a, b);
}

TEST(ObjectStore, OperationCounters) {
  ObjectStore s3;
  s3.put(cid("a"), 1, 0);
  (void)s3.get(cid("a"));
  (void)s3.get(cid("missing"));
  s3.remove(cid("a"));
  EXPECT_EQ(s3.put_count(), 1u);
  EXPECT_EQ(s3.get_count(), 2u);
  EXPECT_EQ(s3.delete_count(), 1u);
}

TEST(ObjectStore, MonthlyBill) {
  ObjectStore s3;
  // 1 TB at $0.03/GB-month = $30.72.
  s3.put(cid("tb"), 1024ull * 1024 * 1024 * 1024, 0);
  EXPECT_NEAR(s3.monthly_bill_usd(), 30.72, 0.01);
}

}  // namespace
}  // namespace u1
