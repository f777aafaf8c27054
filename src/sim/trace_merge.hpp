// Epoch trace merging: turns the per-group epoch chunks into the single
// deterministic stream the sinks and analyzers see.
//
// Contract (the total order every engine build must reproduce): ascending
// timestamp; ties break by group index, then by within-group emission
// order. That is exactly what the original concat-in-group-order +
// stable_sort-by-timestamp produced, but a k-way merge over per-group
// sorted chunks is O(N log G) instead of O(N log N).
//
// The merge produces an index permutation — (group, offset) refs — not a
// record stream. Records stay where the workers wrote them; the
// AnomalyGuard scan (flush stage A) and the sink writes (flush stage B)
// each walk the same plan over the in-place chunks, so the two stages
// can run on different threads at different times without either pass
// copying or re-merging 128-byte records.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "util/page_alloc.hpp"

namespace u1 {

/// One entry of a merge plan: chunks[group][offset].
struct MergeRef {
  std::uint32_t group;
  std::uint32_t offset;
};

/// Stable-sorts one group's epoch chunk by timestamp, preserving the
/// emission order of equal-timestamp records. The common case — an
/// already-sorted chunk — costs one is_sorted scan and no moves.
/// Otherwise it sorts 16-byte (t, index) keys — the index breaks ties,
/// so the order is stable_sort's — and then moves each 128-byte record
/// once along the permutation's cycles, instead of merge-sorting the
/// records through a half-chunk temporary buffer.
template <typename Chunk>
void sort_trace_chunk(Chunk& chunk) {
  const auto by_time = [](const TraceRecord& a, const TraceRecord& b) {
    return a.t < b.t;
  };
  if (std::is_sorted(chunk.begin(), chunk.end(), by_time)) return;
  struct Key {
    SimTime t;
    std::size_t index;  // the record's position before the sort
  };
  const std::size_t n = chunk.size();
  PageVector<Key> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = Key{chunk[i].t, i};
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.t != b.t ? a.t < b.t : a.index < b.index;
  });
  // Position i takes the record at keys[i].index. Walk each cycle once,
  // marking filled positions with their own index.
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i].index == i) continue;
    const TraceRecord held = chunk[i];
    std::size_t hole = i;
    for (;;) {
      const std::size_t from = keys[hole].index;
      keys[hole].index = hole;
      if (from == i) break;
      chunk[hole] = chunk[from];
      hole = from;
    }
    chunk[hole] = held;
  }
}

/// K-way merge over per-group chunks, each individually stable-sorted by
/// timestamp (see sort_trace_chunk). Fills `plan` (cleared first;
/// capacity recycles across epochs) with one ref per record in the
/// contract order above. The chunks are never touched beyond reading
/// timestamps.
template <typename Chunks, typename Plan>
void build_merge_plan(const Chunks& chunks, Plan& plan) {
  plan.clear();
  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  plan.reserve(total);

  // Single-producer epoch (and the sequential tail): the plan is the
  // identity walk — skip the heap entirely.
  std::size_t non_empty = 0, only = 0;
  for (std::size_t g = 0; g < chunks.size(); ++g)
    if (!chunks[g].empty()) {
      ++non_empty;
      only = g;
    }
  if (non_empty == 0) return;
  if (non_empty == 1) {
    for (std::uint32_t i = 0; i < chunks[only].size(); ++i)
      plan.push_back(MergeRef{static_cast<std::uint32_t>(only), i});
    return;
  }

  struct Head {
    SimTime t;
    std::uint32_t group;
  };
  // Min-heap on (t, group): equal timestamps pop lowest group first, and
  // within one group the cursor preserves emission order — together the
  // (t, group, emission) total order of the old stable_sort.
  const auto later = [](const Head& a, const Head& b) noexcept {
    if (a.t != b.t) return a.t > b.t;
    return a.group > b.group;
  };
  std::vector<Head> heads;
  std::vector<std::uint32_t> cursor(chunks.size(), 0);
  heads.reserve(chunks.size());
  for (std::size_t g = 0; g < chunks.size(); ++g)
    if (!chunks[g].empty())
      heads.push_back(Head{chunks[g].front().t,
                           static_cast<std::uint32_t>(g)});
  std::make_heap(heads.begin(), heads.end(), later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    const std::uint32_t g = heads.back().group;
    heads.pop_back();
    plan.push_back(MergeRef{g, cursor[g]});
    if (++cursor[g] < chunks[g].size()) {
      heads.push_back(Head{chunks[g][cursor[g]].t, g});
      std::push_heap(heads.begin(), heads.end(), later);
    }
  }
}

/// Hands the records to `sink` in plan order. The plan is long runs of
/// consecutive offsets within one group (each run is one group's records
/// between two other-group timestamps), so each maximal run goes to the
/// sink as one append_batch and the per-record virtual call disappears
/// from the write path. Every engine writes through here, so each sink
/// sees the same batch boundaries. After each batch, `written(group,
/// end)` learns that the group's records before offset `end` are all
/// written (a group's offsets come in ascending order).
template <typename Chunks, typename Plan,
          typename Written = void (*)(std::uint32_t, std::uint32_t)>
void write_merged(const Chunks& chunks, const Plan& plan, TraceSink& sink,
                  Written&& written = [](std::uint32_t, std::uint32_t) {}) {
  const MergeRef* refs = plan.data();
  const std::size_t n = plan.size();
  for (std::size_t i = 0; i < n;) {
    const std::uint32_t group = refs[i].group;
    const std::uint32_t first = refs[i].offset;
    std::size_t j = i + 1;
    while (j < n && refs[j].group == group &&
           refs[j].offset == refs[j - 1].offset + 1)
      ++j;
    sink.append_batch(&chunks[group][first], j - i);
    written(group, refs[j - 1].offset + 1);
    i = j;
  }
}

/// Convenience for tests and one-pass callers: builds the plan and walks
/// it, calling emit(record) once per record in contract order.
template <typename Emit>
void merge_trace_chunks(std::vector<std::vector<TraceRecord>>& chunks,
                        Emit&& emit) {
  std::vector<MergeRef> plan;
  build_merge_plan(chunks, plan);
  for (const MergeRef ref : plan) emit(chunks[ref.group][ref.offset]);
}

}  // namespace u1
