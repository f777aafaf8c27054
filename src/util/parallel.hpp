// The one fork-join loop the read and analysis paths share.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace u1 {

/// The threads parallel_for_with runs on, at most: one per hardware
/// thread.
inline std::size_t parallel_threads() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Calls fn(i, state) once for every i in [0, n) on up to
/// min(states.size(), hardware_concurrency()) threads, the caller's
/// included, and returns when every call has. The k-th thread hands
/// states[k] to every call it makes, so a state (a scratch buffer, say)
/// is reused across indices and across calls, and no two threads share
/// one. Each thread claims the next unclaimed index, in increasing
/// order, so early indices start first and a slow one never holds up the
/// rest. With one thread (or n <= 1) no thread is started. fn must not
/// throw: a caller that can fail records the failure per index.
template <class State, class Fn>
void parallel_for_with(std::vector<State>& states, std::size_t n,
                       const Fn& fn) {
  std::atomic<std::size_t> next{0};
  const auto work = [&fn, &next, n](State& state) {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i, state);
  };
  const std::size_t workers = std::min({parallel_threads(), states.size(), n});
  std::vector<std::jthread> helpers;
  helpers.reserve(workers > 0 ? workers - 1 : 0);
  for (std::size_t i = 1; i < workers; ++i)
    helpers.emplace_back(work, std::ref(states[i]));
  if (workers > 0) work(states[0]);
}

/// parallel_for_with without a state: calls fn(i).
template <class Fn>
void parallel_for(std::size_t n, const Fn& fn) {
  struct None {};
  std::vector<None> states(parallel_threads());
  parallel_for_with(states, n, [&fn](std::size_t i, None&) { fn(i); });
}

}  // namespace u1
