#include "cloudstore/object_store.hpp"

namespace u1 {

void ObjectStore::put(const ContentId& content, std::uint64_t size_bytes,
                      SimTime now) {
  StoredObject& obj = objects_[content];
  stored_bytes_ += size_bytes - obj.size_bytes;
  obj = StoredObject{size_bytes, now};
  ++puts_;
}

std::optional<StoredObject> ObjectStore::get(const ContentId& content) const {
  ++gets_;
  const auto it = objects_.find(content);
  if (it == objects_.end()) return std::nullopt;
  return it->second;
}

bool ObjectStore::remove(const ContentId& content) {
  const auto it = objects_.find(content);
  if (it == objects_.end()) return false;
  stored_bytes_ -= it->second.size_bytes;
  objects_.erase(it);
  ++deletes_;
  return true;
}

bool ObjectStore::exists(const ContentId& content) const {
  return objects_.contains(content);
}

std::string ObjectStore::initiate_multipart(const ContentId& content,
                                            SimTime now) {
  const std::string upload_id = "mpu-" + std::to_string(next_upload_seq_++);
  multiparts_.emplace(upload_id,
                      MultipartUpload{upload_id, content, 0, 0, now});
  return upload_id;
}

bool ObjectStore::upload_part(const std::string& upload_id,
                              std::uint64_t part_bytes) {
  if (part_bytes == 0) return false;
  auto it = multiparts_.find(upload_id);
  if (it == multiparts_.end()) return false;
  ++it->second.parts;
  it->second.bytes += part_bytes;
  return true;
}

std::optional<StoredObject> ObjectStore::complete_multipart(
    const std::string& upload_id, SimTime now) {
  const auto it = multiparts_.find(upload_id);
  if (it == multiparts_.end()) return std::nullopt;
  if (it->second.parts == 0) return std::nullopt;
  const StoredObject obj{it->second.bytes, now};
  put(it->second.content, obj.size_bytes, now);
  multiparts_.erase(it);
  return obj;
}

bool ObjectStore::abort_multipart(const std::string& upload_id) {
  return multiparts_.erase(upload_id) > 0;
}

std::optional<MultipartUpload> ObjectStore::multipart_state(
    const std::string& upload_id) const {
  const auto it = multiparts_.find(upload_id);
  if (it == multiparts_.end()) return std::nullopt;
  return it->second;
}

double ObjectStore::monthly_bill_usd(double usd_per_gb_month) const noexcept {
  return static_cast<double>(stored_bytes_) / (1024.0 * 1024.0 * 1024.0) *
         usd_per_gb_month;
}

}  // namespace u1
