#include "trace/logfile.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <stdexcept>
#include <system_error>

#include "trace/binlog.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/sim_time.hpp"

namespace u1 {

LogfileSink::LogfileSink(std::filesystem::path directory)
    : dir_(std::move(directory)) {
  std::filesystem::create_directories(dir_);
}

LogfileSink::~LogfileSink() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an explicit close() reports errors.
  }
}

void LogfileSink::append(const TraceRecord& record) {
  // Pre-trace bootstrap records (t < 0) go to day 0's files: trace_date()
  // names them all after the epoch, so they must share its file.
  const std::int64_t day = record.t < 0 ? 0 : record.t / kDay;
  if (day > day_) roll_over(day);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(record.machine.value) << 48) |
      (static_cast<std::uint64_t>(record.process.value) << 32) |
      static_cast<std::uint32_t>(day);
  auto it = files_.find(key);
  if (it == files_.end()) {
    std::string name = record.logname();
    std::unique_ptr<File> file = start(record, dir_ / name);
    it = files_.emplace(key, Slot{std::move(name), day, std::move(file)})
             .first;
  } else if (it->second.finished) {
    // A late record: its day rolled over. The finisher may still hold
    // the file, so it is joined before the file is touched.
    join_finisher();
    it->second.file->reopen();
    it->second.finished = false;
  }
  Slot& slot = it->second;
  const std::size_t held = slot.file->add(record);
  buffered_ = buffered_ - slot.buffered + held;
  slot.buffered = held;
  buffered_max_ = std::max(buffered_max_, buffered_);
  ++records_;
}

void LogfileSink::append_batch(const TraceRecord* records,
                               std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) append(records[i]);
}

std::vector<LogfileSink::Slot*> LogfileSink::unfinished_before(
    std::int64_t day) {
  std::vector<Slot*> out;
  for (auto& [key, slot] : files_)
    if (!slot.finished && slot.day < day) out.push_back(&slot);
  std::sort(out.begin(), out.end(),
            [](const Slot* a, const Slot* b) { return a->name < b->name; });
  return out;
}

void LogfileSink::roll_over(std::int64_t day) {
  join_finisher();
  day_ = day;
  std::vector<Slot*> done = unfinished_before(day);
  if (done.empty()) return;
  finisher_ = std::async(std::launch::async, [done] {
    for (Slot* slot : done) slot->bytes = slot->file->finish();
  });
  // Until the finisher is joined, the appending thread touches only
  // `finished` and `buffered` of these slots, which the finisher never
  // reads.
  for (Slot* slot : done) {
    slot->finished = true;
    finishing_ += slot->buffered;
    slot->buffered = 0;
  }
}

void LogfileSink::join_finisher() {
  if (!finisher_.valid()) return;
  buffered_ -= finishing_;
  finishing_ = 0;
  finisher_.get();
}

void LogfileSink::close() {
  join_finisher();
  const auto end = std::numeric_limits<std::int64_t>::max();
  for (Slot* slot : unfinished_before(end)) {
    slot->bytes = slot->file->finish();
    slot->finished = true;
  }
  buffered_ = 0;
  for (const auto& [key, slot] : files_) bytes_ += slot.bytes;
  files_.clear();
  day_ = 0;
}

namespace {

/// One CSV logfile: the header row, then a row per record in arrival
/// order. The first write creates the file; later ones append.
class CsvLogfile final : public LogfileSink::File {
 public:
  explicit CsvLogfile(std::filesystem::path path) : path_(std::move(path)) {
    write_csv_row(pending_, TraceRecord::csv_header());
  }

  std::size_t add(const TraceRecord& record) override {
    write_csv_row(pending_, record.to_csv());
    if (pending_.size() >= LogfileWriter::kFileBufferBytes) write_out();
    return pending_.size();
  }

  std::uint64_t finish() override {
    if (!pending_.empty()) write_out();
    std::string().swap(pending_);
    return on_disk_;
  }

  void reopen() override {}  // later rows are appended

 private:
  void write_out() {
    std::ofstream out(path_, on_disk_ > 0 ? std::ios::app : std::ios::trunc);
    if (!out.is_open())
      throw std::runtime_error("LogfileWriter: cannot open " +
                               path_.string());
    out.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
    out.close();
    if (!out)
      throw std::runtime_error("LogfileWriter: write failed for " +
                               path_.string());
    on_disk_ += pending_.size();
    pending_.clear();  // keeps its capacity for the file's next rows
  }

  std::filesystem::path path_;
  std::string pending_;        // rows not yet on disk
  std::uint64_t on_disk_ = 0;  // bytes already in the file
};

}  // namespace

LogfileWriter::LogfileWriter(std::filesystem::path directory)
    : LogfileSink(std::move(directory)) {}

std::unique_ptr<LogfileSink::File> LogfileWriter::start(
    const TraceRecord&, const std::filesystem::path& stem) {
  std::filesystem::path path = stem;
  path += ".csv";
  return std::make_unique<CsvLogfile>(std::move(path));
}

namespace {

/// Records handed to the sink per append_batch call during the merge.
constexpr std::size_t kMergeBatch = 65536;

/// True when `file` opens with the `.u1b` magic; binary logfiles are never
/// valid CSV, so the leading bytes decide the format.
bool sniff_binary(const std::filesystem::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in.is_open())
    throw std::runtime_error("read_logfile: cannot open " + file.string());
  unsigned char magic[8] = {};
  in.read(reinterpret_cast<char*>(magic),
          static_cast<std::streamsize>(sizeof(magic)));
  return is_binary_logfile_magic(magic,
                                 static_cast<std::size_t>(in.gcount()));
}

/// Parses one CSV logfile into `out` as decode_binary_logfile decodes a
/// `.u1b`: each label is a file-local id (local id i + 1 is labels[i],
/// numbered by first sight in row order, counting only rows that parse)
/// and nothing is interned, so files parse on any thread. Interning
/// `labels` in order then assigns exactly the ids a row-by-row parse
/// into the global table would.
ReadStats parse_csv_logfile(const std::filesystem::path& file,
                            std::vector<TraceRecord>& out,
                            std::vector<std::string>& labels) {
  labels.clear();
  std::unordered_map<std::string, Symbol, detail::SymbolHash,
                     detail::SymbolEq>
      ids;
  const std::function<Symbol(std::string_view)> local =
      [&](std::string_view label) {
        if (const auto it = ids.find(label); it != ids.end())
          return it->second;
        labels.emplace_back(label);
        const auto id = static_cast<Symbol>(labels.size());
        ids.emplace(labels.back(), id);
        return id;
      };
  ReadStats stats;
  std::ifstream in(file, std::ios::binary);
  if (!in.is_open())
    throw std::runtime_error("read_logfile: cannot open " + file.string());
  stats.files = 1;
  std::error_code ec;
  const auto size = std::filesystem::file_size(file, ec);
  if (!ec) stats.bytes_read += size;
  CsvReader reader(in);
  std::vector<std::string> fields;
  bool first = true;
  while (reader.next(fields)) {
    if (first) {
      first = false;
      // The header line is not a row: `rows` counts records, as the
      // binary format's does, so both formats report the same totals.
      if (!fields.empty() && fields[0] == "t_us") continue;
    }
    ++stats.rows;
    if (auto rec = TraceRecord::from_csv(fields, local)) {
      out.push_back(std::move(*rec));
      ++stats.parsed;
    } else {
      ++stats.malformed;
    }
  }
  stats.malformed += reader.error_count();
  stats.rows += reader.error_count();
  return stats;
}

/// Decodes one logfile of either format, sniffed by its leading magic,
/// with file-local label ids indexing `labels` (see parse_csv_logfile).
ReadStats decode_logfile(const std::filesystem::path& file,
                         std::vector<TraceRecord>& out,
                         std::vector<std::string>& labels) {
  if (sniff_binary(file)) return decode_binary_logfile(file, out, labels);
  return parse_csv_logfile(file, out, labels);
}

/// One logfile on its way through read_logfiles: its records in
/// timestamp order, and the merge's cursor into them.
struct LogfileRun {
  std::filesystem::path path;
  std::int64_t day = 0;  // the trace day its name ends in
  std::vector<TraceRecord> records;  // in t order, from t = 0 on
  // The strings the records' file-local label ids index, and (once
  // interned) the map from those ids to global ones.
  std::vector<std::string> labels;
  std::vector<Symbol> local_to_global;
  std::size_t next = 0;  // first record the merge has not delivered
  ReadStats stats;
  std::exception_ptr error;
};

bool earlier(const TraceRecord& a, const TraceRecord& b) noexcept {
  return a.t < b.t;
}

/// The day LogfileSink files a record under: pre-window records (t < 0)
/// go to day 0.
std::int64_t day_of(const TraceRecord& r) noexcept {
  return r.t < 0 ? 0 : r.t / kDay;
}

/// Puts a parsed or decoded run in timestamp order and skips its
/// pre-window records. Throws, naming the file, if a record lies outside
/// the day the file is named for: the day-by-day merge relies on it.
void order_run(LogfileRun& run) {
  if (!std::is_sorted(run.records.begin(), run.records.end(), earlier))
    std::stable_sort(run.records.begin(), run.records.end(), earlier);
  if (!run.records.empty()) {
    for (const TraceRecord* r : {&run.records.front(), &run.records.back()})
      if (day_of(*r) != run.day)
        throw std::runtime_error(
            "read_logfiles: " + run.path.string() +
            " holds a record of trace day " + std::to_string(day_of(*r)) +
            " but is named for day " + std::to_string(run.day));
  }
  // Pre-trace bootstrap records (t < 0) are not part of the trace
  // window: skip them here, counted as malformed, whichever format the
  // file holds. (Raw per-file access — read_logfile, `u1trace convert`
  // — still delivers every record.) Sorted, they lead the run; they are
  // most of an epoch-day file, so their memory goes right away rather
  // than when the merge drains the file.
  const auto window = std::partition_point(
      run.records.begin(), run.records.end(),
      [](const TraceRecord& r) { return r.t < 0; });
  const auto dropped =
      static_cast<std::uint64_t>(window - run.records.begin());
  if (dropped > 0)
    run.records = std::vector<TraceRecord>(window, run.records.end());
  run.stats.parsed -= dropped;
  run.stats.malformed += dropped;
}

/// Decodes and orders every run, either format — with file-local label
/// ids, so nothing is interned — on hardware_concurrency() threads, the
/// caller's included; with one hardware thread none is started. A
/// failure stays with its run.
void decode_runs(std::vector<LogfileRun>& runs) {
  parallel_for(runs.size(), [&runs](std::size_t i) {
    LogfileRun& run = runs[i];
    try {
      run.stats = decode_logfile(run.path, run.records, run.labels);
      order_run(run);
    } catch (...) {
      run.error = std::current_exception();
    }
  });
}

/// K-way merge of one day's prepared runs into `sink`, in batches of
/// kMergeBatch (the last one flushed when the day ends), labels
/// rewritten to global ids on the way.
/// Keys are (t, run index): equal timestamps go to the earlier file name
/// and, within a file, keep file order — exactly the order one stable
/// sort of the name-ordered concatenation gives. Each run's memory is
/// released as soon as the merge has drained it.
void merge_runs(std::vector<LogfileRun>& runs, TraceSink& sink) {
  struct Head {
    SimTime t;
    std::size_t run;
  };
  const auto later = [](const Head& a, const Head& b) {
    return a.t != b.t ? a.t > b.t : a.run > b.run;
  };
  std::vector<Head> heap;
  heap.reserve(runs.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    LogfileRun& run = runs[i];
    if (run.next < run.records.size()) {
      heap.push_back(Head{run.records[run.next].t, i});
      total += run.records.size() - run.next;
    } else {
      std::vector<TraceRecord>().swap(run.records);
    }
  }
  std::make_heap(heap.begin(), heap.end(), later);

  std::vector<TraceRecord> batch;
  batch.reserve(std::min(total, kMergeBatch));
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head head = heap.back();
    heap.pop_back();
    LogfileRun& run = runs[head.run];
    // Drain this run for as long as it stays ahead of every other run.
    do {
      batch.push_back(run.records[run.next++]);
      batch.back().label = run.local_to_global[batch.back().label];
      if (batch.size() == kMergeBatch) {
        sink.append_batch(batch.data(), batch.size());
        batch.clear();
      }
      if (run.next == run.records.size()) break;
      head.t = run.records[run.next].t;
    } while (heap.empty() || later(heap.front(), head));
    if (run.next < run.records.size()) {
      heap.push_back(head);
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      std::vector<TraceRecord>().swap(run.records);
    }
  }
  if (!batch.empty()) sink.append_batch(batch.data(), batch.size());
}

}  // namespace

ReadStats read_logfile(const std::filesystem::path& file,
                       std::vector<TraceRecord>& out) {
  const std::size_t base = out.size();
  std::vector<std::string> labels;
  const ReadStats stats = decode_logfile(file, out, labels);
  const std::vector<Symbol> local_to_global = intern_labels(labels);
  for (std::size_t i = base; i < out.size(); ++i)
    out[i].label = local_to_global[out[i].label];
  return stats;
}

std::vector<LogfileEntry> list_logfiles(
    const std::filesystem::path& directory) {
  std::vector<LogfileEntry> out;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("production-")) continue;
    // Symbol sidecars ride along with their .u1b logfile; they are not
    // logfiles themselves.
    if (entry.path().extension() == kSymbolSidecarExt) continue;
    const std::string stem = entry.path().stem().string();
    const std::size_t dash = stem.rfind('-');
    const auto day = trace_day_of_date(std::string_view(stem).substr(
        dash == std::string::npos ? 0 : dash + 1));
    if (!day)
      throw std::runtime_error("list_logfiles: " + entry.path().string() +
                               " has no -YYYYMMDD trace date in its name");
    out.push_back(LogfileEntry{*day, entry.path()});
  }
  // Directory iteration order is unspecified; (day, name) order makes the
  // merge (and its tie-breaking) deterministic across filesystems.
  std::sort(out.begin(), out.end(),
            [](const LogfileEntry& a, const LogfileEntry& b) {
              return a.day != b.day ? a.day < b.day : a.path < b.path;
            });
  return out;
}

ReadStats read_logfiles(const std::filesystem::path& directory,
                        TraceSink& sink) {
  // Every record of a day has a smaller t than every record of a later
  // day (LogfileSink files each record under its own day, t < 0 under day
  // 0, and order_run checks it), so merging day after day delivers
  // exactly what one merge of every file would.
  std::vector<std::vector<LogfileRun>> days;
  for (LogfileEntry& entry : list_logfiles(directory)) {
    if (days.empty() || days.back().front().day != entry.day)
      days.emplace_back();
    LogfileRun& run = days.back().emplace_back();
    run.path = std::move(entry.path);
    run.day = entry.day;
  }
  const auto held = [](const std::vector<LogfileRun>& runs) {
    std::uint64_t n = 0;
    for (const LogfileRun& run : runs) n += run.records.size();
    return n;
  };
  ReadStats stats;
  std::uint64_t merged_held = 0;  // the records of the day merged last
  // Declared after `days`, so an exception joins the decode before the
  // runs it writes are destroyed.
  std::future<void> decoding;
  for (std::size_t d = 0; d < days.size(); ++d) {
    std::vector<LogfileRun>& runs = days[d];
    if (d == 0)
      decode_runs(runs);
    else
      decoding.get();
    if (d + 1 < days.size())
      decoding = std::async(std::launch::async,
                            [&next = days[d + 1]] { decode_runs(next); });
    // Day d was decoded while day d-1 merged.
    const std::uint64_t day_held = held(runs);
    stats.records_held_max =
        std::max(stats.records_held_max, merged_held + day_held);
    // Serial pass, in name order: interning each file's labels in its
    // first-sight order is all that assigns global symbol ids, so the
    // ids come out as one file-after-file read in (day, name) order would
    // assign them, whatever the thread count. It does no I/O. A failed
    // file is re-thrown at its place.
    for (LogfileRun& run : runs) {
      if (run.error) std::rethrow_exception(run.error);
      run.local_to_global = intern_labels(run.labels);
      stats.add(run.stats);
    }
    merged_held = day_held;
    merge_runs(runs, sink);
    std::vector<LogfileRun>().swap(runs);
  }
  return stats;
}

}  // namespace u1
