// An allocator whose big blocks go back to the kernel when freed.
//
// glibc serves a request below its mmap threshold from a malloc arena,
// and a freed 16-33 MB buffer raises that threshold (up to 32 MB), so
// the next epoch's buffers land in the heap and stay resident after
// they are freed; per-thread arenas spread them further. The generate
// path's big transient buffers (the flush ring's trace chunks, the
// writer's stripe buffers) therefore allocate every block of
// kPageAllocBytes or more as its own anonymous mapping: only the pages
// touched are resident, and freeing the block unmaps them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define U1SIM_HAVE_MMAP 1
#endif

namespace u1 {

/// Blocks at least this large are mapped, smaller ones come from new.
inline constexpr std::size_t kPageAllocBytes = std::size_t{128} << 10;

template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() noexcept = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
#ifdef U1SIM_HAVE_MMAP
    if (mapped(n)) {
      if (n > static_cast<std::size_t>(-1) / sizeof(T))
        throw std::bad_array_new_length();
      void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      return static_cast<T*>(p);
    }
#endif
    return std::allocator<T>().allocate(n);
  }

  void deallocate(T* p, std::size_t n) noexcept {
#ifdef U1SIM_HAVE_MMAP
    if (mapped(n)) {
      ::munmap(p, n * sizeof(T));
      return;
    }
#endif
    std::allocator<T>().deallocate(p, n);
  }

  /// True when n elements take kPageAllocBytes or more.
  static constexpr bool mapped(std::size_t n) noexcept {
    return n >= (kPageAllocBytes + sizeof(T) - 1) / sizeof(T);
  }

  /// Stateless: any instance frees what any other allocated.
  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

/// Hands the whole pages under the first `end` bytes of a block of
/// `capacity` bytes at `data`, allocated by a PageAllocator, back to the
/// kernel while the block stays allocated: for a buffer read front to
/// back once and freed after, so its spent prefix stops counting before
/// the rest is read. Their contents are gone (Linux reads them back as
/// zero bytes), so only call it on bytes nothing reads again. `released`
/// is the byte offset earlier calls reached (start at 0); a call that
/// would return less than kPageAllocBytes waits for a later one. No-op
/// unless the block is a mapping of its own.
inline void release_pages(void* data, std::size_t capacity, std::size_t end,
                          std::size_t& released) noexcept {
#ifdef U1SIM_HAVE_MMAP
  if (!PageAllocator<unsigned char>::mapped(capacity)) return;
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  end = std::min(end, capacity) / page * page;
  if (end < released + kPageAllocBytes) return;
  ::madvise(static_cast<char*>(data) + released, end - released,
            MADV_DONTNEED);
  released = end;
#else
  (void)data;
  (void)capacity;
  (void)end;
  (void)released;
#endif
}

/// release_pages for the first n elements of v (at most its size).
template <typename T>
void release_prefix(PageVector<T>& v, std::size_t n,
                    std::size_t& released) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  release_pages(v.data(), v.capacity() * sizeof(T),
                std::min(n, v.size()) * sizeof(T), released);
}

}  // namespace u1
