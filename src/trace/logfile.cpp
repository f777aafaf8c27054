#include "trace/logfile.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>

#include "trace/binlog.hpp"
#include "trace/packed.hpp"
#include "util/csv.hpp"
#include "util/mapped_file.hpp"
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

/// Records handed to the sink per append_batch call during the merge:
/// one stripe's worth, 1 MiB.
constexpr std::size_t kMergeBatch = BinaryLogfileWriter::kStripeRecords;

/// Parses one CSV logfile's `text` as decode_binary_logfile decodes a
/// `.u1b`: each label is a file-local id (local id i + 1 is labels[i],
/// numbered by first sight in row order, counting only rows that parse)
/// and nothing is interned, so files parse on any thread. Interning
/// `labels` in order then assigns exactly the ids a row-by-row parse
/// into the global table would. Rows collect in `scratch` and go to
/// `on_rows` kMergeBatch at a time, as a `.u1b` file's stripes do.
ReadStats parse_csv_logfile(std::string_view text,
                            std::vector<std::string>& labels,
                            PageVector<TraceRecord>& scratch,
                            const StripeFn& on_rows) {
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
  stats.files = 1;
  stats.bytes_read = text.size();
  CsvReader reader(text);
  std::vector<std::string> fields;
  bool first = true;
  scratch.clear();
  while (reader.next(fields)) {
    if (first) {
      first = false;
      // The header line is not a row: `rows` counts records, as the
      // binary format's does, so both formats report the same totals.
      if (!fields.empty() && fields[0] == "t_us") continue;
    }
    ++stats.rows;
    if (auto rec = TraceRecord::from_csv(fields, local)) {
      scratch.push_back(std::move(*rec));
      ++stats.parsed;
      if (scratch.size() == kMergeBatch) {
        on_rows(scratch);
        scratch.clear();
      }
    } else {
      ++stats.malformed;
    }
  }
  if (!scratch.empty()) on_rows(scratch);
  scratch.clear();
  stats.malformed += reader.error_count();
  stats.rows += reader.error_count();
  return stats;
}

/// Decodes one logfile of either format, with file-local label ids
/// indexing `labels` (see parse_csv_logfile), handing its records to
/// `on_rows` in file order, one stripe (`.u1b`) or kMergeBatch rows (CSV)
/// at a time through `scratch`. The file is opened once: its leading
/// bytes decide the format, since a `.u1b` magic is never valid CSV.
ReadStats decode_logfile(const std::filesystem::path& file,
                         std::vector<std::string>& labels,
                         PageVector<TraceRecord>& scratch,
                         const StripeFn& on_rows) {
  MappedFile bytes;
  if (!bytes.open(file))
    throw std::runtime_error("read_logfile: cannot open " + file.string());
  if (is_binary_logfile_magic(bytes.data(), bytes.size()))
    return decode_binary_logfile(file, bytes.bytes(), labels, scratch,
                                 on_rows);
  return parse_csv_logfile(
      std::string_view(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size()),
      labels, scratch, on_rows);
}

/// One logfile on its way through read_logfiles: its records as packed
/// rows in timestamp order, and the merge's cursor into them.
struct LogfileRun {
  std::filesystem::path path;
  std::int64_t day = 0;  // the trace day its name ends in
  PackedRows rows;  // from t = 0 on, in t order, in a buffer of their size
  // The strings the records' file-local label ids index, and (once
  // interned) the map from those ids to global ones.
  std::vector<std::string> labels;
  std::vector<Symbol> local_to_global;
  // The merge's cursor: `head` is the next record it delivers and
  // `left` counts the rows it has not, head included.
  PackedReader reader;
  TraceRecord head;
  std::size_t left = 0;
  ReadStats stats;
  std::exception_ptr error;
};

bool earlier(const TraceRecord& a, const TraceRecord& b) noexcept {
  return a.t < b.t;
}

/// The day LogfileSink files a record at `t` under: pre-window records
/// (t < 0) go to day 0.
std::int64_t day_of(SimTime t) noexcept { return t < 0 ? 0 : t / kDay; }

/// What a decode thread reuses from file to file: the stripe it decodes
/// into, and the rows it packs a file into before they move to the run.
struct DecodeScratch {
  PageVector<TraceRecord> stripe;
  PackedRows rows;
};

/// Packs one file's records as the decoder hands them over, a stripe at
/// a time, into `rows` and, once the file is done, into its run in a
/// buffer of their size. Pre-trace bootstrap records (t < 0) are not
/// part of the trace window: they are dropped as they pass, counted as
/// malformed, whichever format the file holds. (Raw per-file access —
/// read_logfile, `u1trace convert` — still delivers every record.) They
/// are most of an epoch-day file, so they never reach memory whole.
/// A file is written in t order unless a late record reached it
/// (DESIGN.md §8): from the first row that breaks t order, the file's
/// rows are held unpacked, and finish() stable-sorts and packs them.
class RunPacker {
 public:
  RunPacker(LogfileRun& run, PackedRows& rows) : run_(run), rows_(rows) {
    rows_.clear();
  }

  void add(std::span<const TraceRecord> records) {
    for (const TraceRecord& r : records) {
      lo_ = std::min(lo_, r.t);
      hi_ = std::max(hi_, r.t);
      if (r.t < 0) {
        ++dropped_;
      } else if (late_.empty() && (rows_.rows() == 0 || r.t >= last_t_)) {
        rows_.push_back(r);
        last_t_ = r.t;
      } else {
        if (late_.empty()) unpack_rows();
        late_.push_back(r);
      }
    }
  }

  /// Orders and fits the run once the decode has set its stats. Throws,
  /// naming the file, if a record lies outside the day the file is named
  /// for: the day-by-day merge relies on it. The earliest record is
  /// checked first, then the latest, as a sorted file's front and back.
  void finish() {
    if (lo_ <= hi_)
      for (const SimTime t : {lo_, hi_})
        if (day_of(t) != run_.day)
          throw std::runtime_error(
              "read_logfiles: " + run_.path.string() +
              " holds a record of trace day " + std::to_string(day_of(t)) +
              " but is named for day " + std::to_string(run_.day));
    if (!late_.empty()) {
      std::stable_sort(late_.begin(), late_.end(), earlier);
      for (const TraceRecord& r : late_) rows_.push_back(r);
    }
    run_.rows = rows_.fitted();
    rows_.clear();
    run_.stats.parsed -= dropped_;
    run_.stats.malformed += dropped_;
  }

 private:
  /// Moves the rows packed so far into late_.
  void unpack_rows() {
    late_.resize(rows_.rows());
    PackedReader reader{rows_.data()};
    for (TraceRecord& r : late_) reader.next(r);
    rows_.clear();
  }

  LogfileRun& run_;
  PackedRows& rows_;
  std::vector<TraceRecord> late_;  // every in-window row, once one is late
  SimTime last_t_ = 0;  // of the last row packed
  SimTime lo_ = std::numeric_limits<SimTime>::max();  // every row's t,
  SimTime hi_ = std::numeric_limits<SimTime>::min();  // dropped ones too
  std::uint64_t dropped_ = 0;
};

/// Decodes, orders and packs every run, either format — with file-local
/// label ids, so nothing is interned — on up to hardware_concurrency()
/// threads, the caller's included, each with a scratch of its own; with
/// one hardware thread none is started. A failure stays with its run.
void decode_runs(std::vector<LogfileRun>& runs,
                 std::vector<DecodeScratch>& scratch) {
  parallel_for_with(
      scratch, runs.size(), [&runs](std::size_t i, DecodeScratch& own) {
        LogfileRun& run = runs[i];
        try {
          RunPacker packer(run, own.rows);
          run.stats = decode_logfile(
              run.path, run.labels, own.stripe,
              [&packer](std::span<const TraceRecord> rows) {
                packer.add(rows);
              });
          packer.finish();
        } catch (...) {
          run.error = std::current_exception();
        }
      });
}

/// K-way merge of one day's prepared runs into `sink`, in batches of
/// kMergeBatch (the last one flushed when the day ends), labels
/// rewritten to global ids on the way. Each run's rows are read front to
/// back through its PackedReader.
/// Keys are (t, run index): equal timestamps go to the earlier file name
/// and, within a file, keep file order — exactly the order one stable
/// sort of the name-ordered concatenation gives. A run hands back the
/// pages the merge has read past, and its buffer once drained.
void merge_runs(std::vector<LogfileRun>& runs, TraceSink& sink,
                std::vector<TraceRecord>& batch) {
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
    run.left = run.rows.rows();
    if (run.left == 0) {
      run.rows.free();
      continue;
    }
    run.reader = PackedReader{run.rows.data()};
    run.reader.next(run.head);
    heap.push_back(Head{run.head.t, i});
    total += run.left;
  }
  std::make_heap(heap.begin(), heap.end(), later);

  batch.reserve(std::min(total, kMergeBatch));
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head head = heap.back();
    heap.pop_back();
    LogfileRun& run = runs[head.run];
    // Drain this run for as long as it stays ahead of every other run.
    do {
      batch.push_back(run.head);
      batch.back().label = run.local_to_global[batch.back().label];
      if (batch.size() == kMergeBatch) {
        sink.append_batch(batch.data(), batch.size());
        batch.clear();
      }
      if (--run.left == 0) break;
      run.reader.next(run.head);
      head.t = run.head.t;
    } while (heap.empty() || later(heap.front(), head));
    if (run.left > 0) {
      heap.push_back(head);
      std::push_heap(heap.begin(), heap.end(), later);
      run.rows.release_prefix(
          static_cast<std::size_t>(run.reader.p - run.rows.data()));
    } else {
      run.rows.free();
    }
  }
  if (!batch.empty()) sink.append_batch(batch.data(), batch.size());
  batch.clear();
}

}  // namespace

ReadStats read_logfile(const std::filesystem::path& file,
                       std::vector<TraceRecord>& out) {
  const std::size_t base = out.size();
  std::vector<std::string> labels;
  PageVector<TraceRecord> scratch;
  const ReadStats stats =
      decode_logfile(file, labels, scratch,
                     [&out](std::span<const TraceRecord> rows) {
                       out.insert(out.end(), rows.begin(), rows.end());
                     });
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
  // 0, and RunPacker checks it), so merging day after day delivers
  // exactly what one merge of every file would.
  std::vector<std::vector<LogfileRun>> days;
  for (LogfileEntry& entry : list_logfiles(directory)) {
    if (days.empty() || days.back().front().day != entry.day)
      days.emplace_back();
    LogfileRun& run = days.back().emplace_back();
    run.path = std::move(entry.path);
    run.day = entry.day;
  }
  // The records and packed bytes a day's runs hold.
  struct Held {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
  };
  const auto held = [](const std::vector<LogfileRun>& runs) {
    Held n;
    for (const LogfileRun& run : runs) {
      n.records += run.rows.rows();
      n.bytes += run.rows.bytes();
    }
    return n;
  };
  ReadStats stats;
  Held merged_held;  // what the day merged last held
  // Reused day after day: one day decodes at a time.
  std::vector<DecodeScratch> scratch(parallel_threads());
  std::vector<TraceRecord> batch;
  // Declared after `days` and `scratch`, so an exception joins the
  // decode before what it writes is destroyed.
  std::future<void> decoding;
  for (std::size_t d = 0; d < days.size(); ++d) {
    std::vector<LogfileRun>& runs = days[d];
    if (d == 0)
      decode_runs(runs, scratch);
    else
      decoding.get();
    if (d + 1 < days.size())
      decoding = std::async(std::launch::async,
                            [&next = days[d + 1], &scratch] {
                              decode_runs(next, scratch);
                            });
    // Day d was decoded while day d-1 merged.
    const Held day_held = held(runs);
    stats.records_held_max = std::max(
        stats.records_held_max, merged_held.records + day_held.records);
    stats.held_bytes_max =
        std::max(stats.held_bytes_max, merged_held.bytes + day_held.bytes);
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
    merge_runs(runs, sink, batch);
    std::vector<LogfileRun>().swap(runs);
  }
  return stats;
}

}  // namespace u1
