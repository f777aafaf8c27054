#include "util/mapped_file.hpp"

#include <fstream>

#include "util/page_alloc.hpp"

#ifdef U1SIM_HAVE_MMAP
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace u1 {

MappedFile::~MappedFile() {
#ifdef U1SIM_HAVE_MMAP
  if (mapped_ != nullptr) ::munmap(mapped_, size_);
#endif
}

bool MappedFile::open(const std::filesystem::path& path) {
#ifdef U1SIM_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return false;
  }
  if (st.st_size == 0) {
    ::close(fd);
    return true;
  }
  const auto mapped_len = static_cast<std::size_t>(st.st_size);
  void* p = ::mmap(nullptr, mapped_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (p != MAP_FAILED) {
    mapped_ = p;
    data_ = static_cast<const std::uint8_t*>(p);
    size_ = mapped_len;
    return true;
  }
  // mmap failed: fall back to reading the file into a buffer.
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  in.seekg(0, std::ios::end);
  const auto len = static_cast<std::size_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  buffer_.resize(len);
  if (len > 0 && !in.read(reinterpret_cast<char*>(buffer_.data()),
                          static_cast<std::streamsize>(len)))
    return false;
  data_ = buffer_.data();
  size_ = len;
  return true;
}

}  // namespace u1
