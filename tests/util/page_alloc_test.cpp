// PageAllocator: blocks of kPageAllocBytes or more are anonymous mappings,
// smaller ones come from operator new; a PageVector behaves like any
// std::vector across the threshold.
#include "util/page_alloc.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>

namespace u1 {
namespace {

struct Twelve {  // 128 KiB is not a multiple of its size
  std::array<std::uint8_t, 12> bytes;
};
static_assert(sizeof(Twelve) == 12);

bool page_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) %
             static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE)) ==
         0;
}

/// Allocates n, writes every byte, checks them and frees the block.
template <typename T>
void round_trip(std::size_t n) {
  PageAllocator<T> alloc;
  T* p = alloc.allocate(n);
  ASSERT_TRUE(n == 0 || p != nullptr);
  if (n > 0) {
    std::memset(static_cast<void*>(p), 0xab, n * sizeof(T));
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(p);
    EXPECT_EQ(bytes[0], 0xab);
    EXPECT_EQ(bytes[n * sizeof(T) - 1], 0xab);
  }
#ifdef U1SIM_HAVE_MMAP
  if (PageAllocator<T>::mapped(n)) {
    EXPECT_TRUE(page_aligned(p)) << n;
  }
#endif
  alloc.deallocate(p, n);
}

TEST(PageAllocator, ThresholdIsInBytes) {
  constexpr std::size_t kBytes = kPageAllocBytes;
  EXPECT_EQ(kBytes, std::size_t{128} * 1024);
  EXPECT_FALSE(PageAllocator<std::uint8_t>::mapped(0));
  EXPECT_FALSE(PageAllocator<std::uint8_t>::mapped(kBytes - 1));
  EXPECT_TRUE(PageAllocator<std::uint8_t>::mapped(kBytes));
  EXPECT_TRUE(PageAllocator<std::uint8_t>::mapped(kBytes + 1));
  EXPECT_FALSE(PageAllocator<std::uint64_t>::mapped(kBytes / 8 - 1));
  EXPECT_TRUE(PageAllocator<std::uint64_t>::mapped(kBytes / 8));
  // 10922 * 12 = 131064 < 128 KiB <= 10923 * 12 = 131076.
  EXPECT_FALSE(PageAllocator<Twelve>::mapped(10922));
  EXPECT_TRUE(PageAllocator<Twelve>::mapped(10923));
}

TEST(PageAllocator, AllocatesBelowAtAndAboveTheThreshold) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kPageAllocBytes - 1, kPageAllocBytes,
        kPageAllocBytes + 1, 3 * kPageAllocBytes})
    round_trip<std::uint8_t>(n);
  for (const std::size_t n : {std::size_t{0}, std::size_t{10922},
                              std::size_t{10923}, std::size_t{10924}})
    round_trip<Twelve>(n);
}

TEST(PageAllocator, GrowthAcrossTheThresholdKeepsTheContents) {
  PageVector<std::uint32_t> v;
  const std::size_t n = 3 * kPageAllocBytes / sizeof(std::uint32_t);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(i * 7u);
  EXPECT_TRUE(PageAllocator<std::uint32_t>::mapped(v.capacity()));
  for (std::uint32_t i = 0; i < n; ++i) ASSERT_EQ(v[i], i * 7u) << i;
  // And back below it.
  v.resize(100);
  v.shrink_to_fit();
  EXPECT_FALSE(PageAllocator<std::uint32_t>::mapped(v.capacity()));
  for (std::uint32_t i = 0; i < 100; ++i) ASSERT_EQ(v[i], i * 7u) << i;
}

TEST(PageAllocator, SwapAndMoveHandOverTheBlocks) {
  PageVector<std::uint64_t> big(kPageAllocBytes / sizeof(std::uint64_t) + 5);
  std::iota(big.begin(), big.end(), std::uint64_t{1});
  PageVector<std::uint64_t> small{9, 8, 7};
  const std::uint64_t* big_data = big.data();
  const std::uint64_t* small_data = small.data();

  big.swap(small);
  EXPECT_EQ(big.data(), small_data);
  EXPECT_EQ(small.data(), big_data);
  EXPECT_EQ(big, (PageVector<std::uint64_t>{9, 8, 7}));
  EXPECT_EQ(small.back(), small.size());

  PageVector<std::uint64_t> moved(std::move(small));
  EXPECT_EQ(moved.data(), big_data);
  EXPECT_TRUE(small.empty());  // NOLINT(bugprone-use-after-move)
  PageVector<std::uint64_t> assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), big_data);
  EXPECT_EQ(assigned.front(), 1u);
  EXPECT_EQ(assigned.back(), assigned.size());
}

TEST(PageAllocator, AnyInstanceFreesWhatAnotherAllocated) {
  const PageAllocator<int> a;
  const PageAllocator<int> b;
  const PageAllocator<double> c(a);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a != b);
  EXPECT_TRUE(a == c);
  EXPECT_TRUE(c == PageAllocator<double>(b));

  PageAllocator<int> from;
  PageAllocator<int> to;
  const std::size_t n = 2 * kPageAllocBytes / sizeof(int);
  int* p = from.allocate(n);
  p[n - 1] = 42;
  to.deallocate(p, n);
  int* q = from.allocate(3);
  q[2] = 42;
  to.deallocate(q, 3);
}

#ifdef U1SIM_HAVE_MMAP
TEST(PageAllocator, ReleasePrefixReturnsWholePagesBehindTheReader) {
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t n = 4 * kPageAllocBytes / sizeof(std::uint64_t);
  PageVector<std::uint64_t> v(n, 7);
  std::size_t released = 0;
  // Less than kPageAllocBytes behind the reader: wait.
  release_prefix(v, kPageAllocBytes / sizeof(std::uint64_t) / 2, released);
  EXPECT_EQ(released, 0u);
  // A prefix that ends mid-page releases the whole pages before it.
  const std::size_t read = 2 * kPageAllocBytes / sizeof(std::uint64_t) + 3;
  release_prefix(v, read, released);
  EXPECT_EQ(released, 2 * kPageAllocBytes / page * page);
  EXPECT_EQ(released % page, 0u);
#ifdef __linux__
  for (std::size_t i = 0; i < released / sizeof(std::uint64_t); ++i)
    ASSERT_EQ(v[i], 0u) << i;  // handed back: reads as zeros
#endif
  for (std::size_t i = released / sizeof(std::uint64_t); i < n; ++i)
    ASSERT_EQ(v[i], 7u) << i;  // not yet read: intact
  // The watermark only moves forward, and never past the size.
  release_prefix(v, read / 2, released);
  EXPECT_EQ(released, 2 * kPageAllocBytes / page * page);
  release_prefix(v, 10 * n, released);
  EXPECT_EQ(released, n * sizeof(std::uint64_t) / page * page);
  // Heap-backed storage is never touched.
  PageVector<std::uint64_t> small(16, 7);
  std::size_t small_released = 0;
  release_prefix(small, small.size(), small_released);
  EXPECT_EQ(small_released, 0u);
  EXPECT_EQ(small.front(), 7u);
}
#endif

}  // namespace
}  // namespace u1
