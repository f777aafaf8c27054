// Simulated Amazon S3 (us-east): the data store U1 outsources file
// contents to (§3.4). Exposes exactly the API surface the U1 back-end
// uses — simple put/get/delete plus the multipart upload protocol that
// drives the uploadjob state machine of appendix A. Objects carry sizes,
// not payloads: the paper's analyses never look inside file contents.
//
// Blobs are keyed by their ContentId. U1's S3 key is the id's hex
// (ContentId::hex()), rendered only where something prints it, so the
// store never holds the 40-character string.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "proto/ids.hpp"
#include "util/sim_time.hpp"

namespace u1 {

struct StoredObject {
  std::uint64_t size_bytes = 0;
  SimTime stored_at = 0;
};

/// An in-flight multipart upload (S3-side state).
struct MultipartUpload {
  std::string upload_id;
  ContentId content;
  std::uint32_t parts = 0;
  std::uint64_t bytes = 0;
  SimTime initiated_at = 0;
};

/// S3's multipart API requires every part except the last to be at least
/// 5MB; the U1 client uses exactly 5MB chunks (appendix A).
inline constexpr std::uint64_t kMultipartChunkBytes = 5ull * 1024 * 1024;

class ObjectStore {
 public:
  ObjectStore() = default;

  // --- simple objects -----------------------------------------------------
  /// Stores (or overwrites) an object.
  void put(const ContentId& content, std::uint64_t size_bytes, SimTime now);
  std::optional<StoredObject> get(const ContentId& content) const;
  /// Returns false if the object did not exist.
  bool remove(const ContentId& content);
  bool exists(const ContentId& content) const;

  // --- multipart upload (appendix A) ---------------------------------------
  /// InitiateMultipartUpload: returns the upload id.
  std::string initiate_multipart(const ContentId& content, SimTime now);
  /// UploadPart: false for unknown upload ids or zero-sized parts. Bad
  /// requests are service errors the caller retries or aborts — never a
  /// crash (an injected fault can race an upload with its own teardown).
  bool upload_part(const std::string& upload_id, std::uint64_t part_bytes);
  /// CompleteMultipartUpload: materializes the object; nullopt for
  /// unknown ids or uploads with no parts.
  std::optional<StoredObject> complete_multipart(const std::string& upload_id,
                                                 SimTime now);
  /// AbortMultipartUpload: discards state; false if id unknown.
  bool abort_multipart(const std::string& upload_id);
  std::optional<MultipartUpload> multipart_state(
      const std::string& upload_id) const;

  /// Drops all materialized objects while keeping the byte/op counters
  /// and any in-flight multipart uploads. Worker processes of the
  /// distributed engine call this for remote groups during setup replay:
  /// those objects are write-only there (downloads only happen inside
  /// the trace window, which remote groups never run locally), so the
  /// map is pure RSS dead weight. object_count() reads 0 afterwards.
  void shed_objects() {
    objects_.clear();
    objects_.rehash(0);
  }

  // --- accounting -----------------------------------------------------------
  std::size_t object_count() const noexcept { return objects_.size(); }
  std::uint64_t stored_bytes() const noexcept { return stored_bytes_; }
  std::size_t open_multiparts() const noexcept { return multiparts_.size(); }
  std::uint64_t put_count() const noexcept { return puts_; }
  std::uint64_t get_count() const noexcept { return gets_; }
  std::uint64_t delete_count() const noexcept { return deletes_; }

  /// Monthly storage bill at S3's (2014) ~$0.03/GB-month — the paper
  /// notes U1's ≈ $20k monthly S3 bill as a motivation for dedup.
  double monthly_bill_usd(double usd_per_gb_month = 0.03) const noexcept;

 private:
  std::unordered_map<ContentId, StoredObject> objects_;
  std::unordered_map<std::string, MultipartUpload> multiparts_;
  std::uint64_t stored_bytes_ = 0;
  std::uint64_t puts_ = 0;
  mutable std::uint64_t gets_ = 0;
  std::uint64_t deletes_ = 0;
  std::uint64_t next_upload_seq_ = 1;
};

}  // namespace u1
