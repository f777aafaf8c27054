// The one fork-join loop the read and analysis paths share.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace u1 {

/// Calls fn(i) once for every i in [0, n) on up to hardware_concurrency()
/// threads, the caller's included, and returns when every call has. Each
/// thread claims the next unclaimed index, in increasing order, so early
/// indices start first and a slow one never holds up the rest. With one
/// hardware thread (or n <= 1) no thread is started. fn must not throw:
/// a caller that can fail records the failure per index.
template <class Fn>
void parallel_for(std::size_t n, const Fn& fn) {
  std::atomic<std::size_t> next{0};
  const auto work = [&fn, &next, n] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  const std::size_t workers = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), n);
  std::vector<std::jthread> helpers;
  helpers.reserve(workers > 0 ? workers - 1 : 0);
  for (std::size_t i = 1; i < workers; ++i) helpers.emplace_back(work);
  work();
}

}  // namespace u1
