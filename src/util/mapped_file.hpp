// A whole file's bytes, read-only, for the decoders that read a file
// once, front to back (trace/logfile.cpp, trace/binlog.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

namespace u1 {

/// A file's bytes, from one open of it: memory-mapped where mmap is
/// available, so a decoder reads straight out of the page cache, and
/// read into a buffer otherwise. Unmapped or freed on destruction.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// Reads `path` in; false when it cannot be opened or is not a regular
  /// file. Call it once.
  bool open(const std::filesystem::path& path);

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* mapped_ = nullptr;            // the mapping, if mmap made one
  std::vector<std::uint8_t> buffer_;  // the bytes otherwise
};

}  // namespace u1
