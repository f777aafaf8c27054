// Symbol interning for trace records. The two string-valued trace columns
// (`ext`, `fault`) draw from tiny vocabularies — a few dozen file
// extensions from the workload catalog and one label pair per fault
// window — yet as std::string members they made every TraceRecord an
// allocation-carrying ~200-byte object that the chunk sort, k-way merge,
// guard scan and sink write copied 9M times per 30-day run. Interning
// turns the record into a fixed-size trivially-copyable struct; strings
// are resolved back only at the CSV/logfile serialization boundary, so
// the emitted bytes (and the trace SHA-1) are unchanged.
//
// Two layers:
//
//  - SymbolTable: the process-global id<->string store. Append-only,
//    mutex-guarded interning; resolution is lock-free and safe
//    concurrently with interning because storage is chunked and
//    pointer-stable (a published id's string never moves, and distinct
//    table slots never alias). Symbol 0 is the empty string.
//
//  - GroupSymbols: the per-backend front end. In eager mode (a
//    stand-alone back-end such as the u1d server, tests) it interns
//    straight into the global table and hands out global ids. In
//    deferred mode (one instance per shard group of the simulation
//    engine) it assigns dense group-local ids with no
//    locking at all on the emit hot path; at each epoch barrier the
//    engine publishes every group's new symbols into the global table in
//    group-index order — a deterministic merge, so the local->global
//    mapping (and the resolved trace) is identical for every worker
//    thread count — and flush stage A rewrites record labels through a
//    snapshot of that mapping before any consumer sees them.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace u1 {

/// Interned string id. 0 is always the empty string.
using Symbol = std::uint32_t;
inline constexpr Symbol kEmptySymbol = 0;

namespace detail {
/// Heterogeneous lookup so intern(string_view) never builds a temporary
/// std::string just to probe the map.
struct SymbolHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
struct SymbolEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};
}  // namespace detail

class SymbolTable {
 public:
  SymbolTable();

  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the id for `text`, interning it on first sight. Thread-safe
  /// (mutex); meant for serial contexts — barrier publication, sequential
  /// emit misses, CSV parsing — never a parallel hot loop.
  Symbol intern(std::string_view text);

  /// The string for a published id. Lock-free; safe concurrently with
  /// intern() for any id obtained before the call (chunked storage never
  /// moves a published string).
  std::string_view resolve(Symbol symbol) const noexcept;

  /// Number of distinct symbols (including the empty string).
  std::size_t size() const;

 private:
  // 4096 strings per chunk; the chunk directory is pre-sized so it never
  // reallocates (pointer-stability is what makes resolve lock-free).
  static constexpr std::size_t kChunkShift = 12;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 14;
  using Chunk = std::array<std::string, kChunkSize>;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Symbol, detail::SymbolHash,
                     detail::SymbolEq>
      index_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t count_ = 0;
};

/// The process-wide table every TraceRecord label ultimately resolves
/// through. A singleton on purpose: records are POD and cannot carry a
/// table pointer, and analyzers/serializers must agree on the id space.
SymbolTable& global_symbols();

class GroupSymbols {
 public:
  explicit GroupSymbols(SymbolTable* table = &global_symbols())
      : global_(table) {
    map_.push_back(kEmptySymbol);  // local 0 == global 0 == ""
  }

  /// Deferred mode: intern() assigns group-local ids (lock-free); the
  /// engine must publish() at every barrier and remap record labels via
  /// mapping(). Switch before any record is emitted.
  void set_deferred(bool deferred) noexcept { deferred_ = deferred; }
  bool deferred() const noexcept { return deferred_; }

  /// Id for `text` — global in eager mode, group-local in deferred mode.
  Symbol intern(std::string_view text) {
    if (text.empty()) return kEmptySymbol;
    const auto it = cache_.find(text);
    if (it != cache_.end()) return it->second;
    Symbol sym;
    if (deferred_) {
      locals_.emplace_back(text);
      sym = static_cast<Symbol>(locals_.size());  // locals are 1-based
    } else {
      sym = global_->intern(text);
    }
    cache_.emplace(std::string(text), sym);
    return sym;
  }

  /// Deferred mode: merges symbols interned since the last call into the
  /// global table and extends the local->global mapping. Call serially,
  /// in group-index order, at every epoch barrier — that fixed order is
  /// what makes the global id assignment thread-count-invariant.
  void publish() {
    for (std::size_t i = map_.size() - 1; i < locals_.size(); ++i)
      map_.push_back(global_->intern(locals_[i]));
  }

  /// local id -> global id, valid for every symbol interned before the
  /// last publish(). The engine copies this into a flush slot so stage-A
  /// remapping never races the next epoch's interning.
  const std::vector<Symbol>& mapping() const noexcept { return map_; }

 private:
  SymbolTable* global_;
  bool deferred_ = false;
  std::unordered_map<std::string, Symbol, detail::SymbolHash,
                     detail::SymbolEq>
      cache_;
  std::vector<std::string> locals_;  // locals_[i] has local id i+1
  std::vector<Symbol> map_;          // map_[local] == global
};

/// Dense per-logfile dictionary for the binary trace format
/// (trace/binlog.hpp): assigns file-local ids (1-based; 0 stays the
/// empty string) to global symbols in first-use order, so each `.u1b`
/// symbol sidecar lists exactly the strings that one logfile references
/// — the global table's id space never leaks to disk.
class SymbolDict {
 public:
  /// File-local id for a global symbol, assigning the next dense id on
  /// first sight.
  std::uint32_t local_id(Symbol global) {
    if (global == kEmptySymbol) return 0;
    const auto [it, fresh] = to_local_.try_emplace(
        global, static_cast<std::uint32_t>(globals_.size() + 1));
    if (fresh) globals_.push_back(global);
    return it->second;
  }
  /// Forgets the ids after the first `n`, as if only those had been
  /// assigned: the next new symbol gets local id n+1 again.
  void truncate(std::size_t n) {
    for (std::size_t i = n; i < globals_.size(); ++i)
      to_local_.erase(globals_[i]);
    if (n < globals_.size()) globals_.resize(n);
  }
  /// Global ids in local-id order: globals()[i] has local id i+1.
  const std::vector<Symbol>& globals() const noexcept { return globals_; }
  std::size_t size() const noexcept { return globals_.size(); }

 private:
  std::unordered_map<Symbol, std::uint32_t> to_local_;
  std::vector<Symbol> globals_;
};

}  // namespace u1
