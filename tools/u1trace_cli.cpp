#include "tools/u1trace_cli.hpp"

#include <algorithm>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "fault/fault_plan.hpp"
#include "fault/scenarios.hpp"

#include "analysis/ddos_detect.hpp"
#include "analysis/dedup.hpp"
#include "analysis/op_mix.hpp"
#include "analysis/sessions.hpp"
#include "analysis/trace_summary.hpp"
#include "analysis/traffic.hpp"
#include "analysis/users.hpp"
#include "sim/parallel.hpp"
#include "trace/binlog.hpp"
#include "trace/logfile.hpp"
#include "util/strings.hpp"

namespace u1::cli {
namespace {

constexpr const char* kUsage =
    "usage: u1trace <command> [options]\n"
    "  generate  --out DIR [--users N] [--days D] [--seed S]\n"
    "            [--threads T] [--no-ddos] [--format csv|bin]\n"
    "            [--fault-plan standard|@SCENARIO|FILE] [--fault-seed S]\n"
    "  convert   SRC --out DIR [--to csv|bin]\n"
    "  summarize DIR\n"
    "  analyze   DIR --figure {traffic|dedup|sessions|ddos|users|ops}\n"
    "  validate  DIR\n";

/// Streams every logfile into `sink`, time-ordered; prints parse stats.
ReadStats read_into(const std::string& dir, TraceSink& sink,
                    std::ostream& out) {
  const ReadStats stats = read_logfiles(dir, sink);
  out << "# read " << stats.parsed << " records from " << stats.files
      << " logfiles (" << stats.files_binary << " binary, "
      << stats.bytes_read << " bytes, " << stats.malformed
      << " malformed rows, " << stats.checksum_failures
      << " checksum failures)\n";
  // The decoded days' high-water marks (DESIGN.md §8).
  out << "# memory: records_held_max=" << stats.records_held_max
      << " held_bytes_max=" << stats.held_bytes_max << "\n";
  return stats;
}

/// Reads every logfile into memory, time-ordered; prints parse stats.
PageVector<TraceRecord> load(const std::string& dir, std::ostream& out) {
  InMemorySink sink;
  read_into(dir, sink, out);
  return sink.take_records();
}

/// The structural checks `validate` makes, one record at a time.
class ValidateSink final : public TraceSink {
 public:
  void append(const TraceRecord& r) override {
    ++records;
    if (r.session.valid()) {
      const auto [it, fresh] =
          last_per_session_.try_emplace(r.session.value, r.t);
      if (!fresh) {
        if (it->second > r.t) ++violations;
        it->second = r.t;
      }
    }
    if (r.type == RecordType::kStorage) ++storage;
    if (r.type == RecordType::kStorageDone) ++done;
    if (r.type == RecordType::kSession) {
      if (r.session_event == SessionEvent::kOpen) {
        ++opens;
        open.insert(r.session.value);
      }
      if (r.session_event == SessionEvent::kClose) {
        ++closes;
        open.erase(r.session.value);
      }
    }
  }

  std::uint64_t records = 0, storage = 0, done = 0, violations = 0;
  std::uint64_t opens = 0, closes = 0;
  std::unordered_set<std::uint64_t> open;  // sessions not yet closed

 private:
  std::unordered_map<std::uint64_t, SimTime> last_per_session_;
};

SimTime horizon_of(std::span<const TraceRecord> records) {
  SimTime max_t = kDay;
  for (const TraceRecord& r : records) max_t = std::max(max_t, r.t);
  return max_t + 1;
}

}  // namespace

Args Args::parse(const std::vector<std::string>& argv,
                 const std::vector<std::string>& known_flags,
                 const std::vector<std::string>& known_switches) {
  Args out;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& token = argv[i];
    if (!starts_with(token, "--")) {
      out.positionals_.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    if (std::find(known_switches.begin(), known_switches.end(), name) !=
        known_switches.end()) {
      out.switches_.push_back(name);
      continue;
    }
    if (std::find(known_flags.begin(), known_flags.end(), name) !=
        known_flags.end()) {
      if (i + 1 >= argv.size()) {
        out.errors_.push_back("--" + name + " needs a value");
        continue;
      }
      out.flags_[name] = argv[++i];
      continue;
    }
    out.errors_.push_back("unknown option --" + name);
  }
  return out;
}

std::optional<std::string> Args::flag(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::int64_t> Args::int_flag(const std::string& name) const {
  const auto value = flag(name);
  if (!value) return std::nullopt;
  return parse_i64(*value);
}

bool Args::has_switch(const std::string& name) const {
  return std::find(switches_.begin(), switches_.end(), name) !=
         switches_.end();
}

int cmd_generate(const Args& args, std::ostream& out, std::ostream& err) {
  const auto dir = args.flag("out");
  if (!dir) {
    err << "generate: --out DIR is required\n";
    return 2;
  }
  // Out-of-range or non-numeric counts and seeds fail here, by flag name,
  // before anything touches the output directory.
  const auto count_flag = [&](const char* name, std::int64_t fallback,
                              std::int64_t min) -> std::optional<std::int64_t> {
    if (!args.flag(name)) return fallback;
    const auto value = args.int_flag(name);
    if (!value || *value < min) {
      err << "generate: --" << name << " must be an integer >= " << min
          << "\n";
      return std::nullopt;
    }
    return value;
  };
  const auto seed_flag = [&](const char* name, std::uint64_t fallback)
      -> std::optional<std::uint64_t> {
    const auto text = args.flag(name);
    if (!text) return fallback;
    const auto value = parse_u64(*text);
    if (!value)
      err << "generate: --" << name
          << " must be an unsigned 64-bit integer\n";
    return value;
  };
  const auto users = count_flag("users", 2000, 1);
  const auto days = count_flag("days", 7, 1);
  const auto threads = count_flag("threads", 1, 0);
  const auto seed = seed_flag("seed", 20140111);
  const auto fault_seed = seed_flag("fault-seed", 0);
  if (!users || !days || !threads || !seed || !fault_seed) return 2;
  SimulationConfig cfg;
  cfg.users = static_cast<std::size_t>(*users);
  cfg.days = static_cast<int>(*days);
  cfg.seed = *seed;
  cfg.enable_ddos = !args.has_switch("no-ddos");
  if (const auto plan = args.flag("fault-plan")) {
    if (*plan == "standard") {
      cfg.faults = standard_fault_plan();
    } else if (!plan->empty() && plan->front() == '@') {
      // Canned incident scenario: its plan plus the backend posture
      // (slow-start ramp, per-process session cap) it assumes.
      const IncidentScenario* sc =
          find_incident_scenario(std::string_view(*plan).substr(1));
      if (sc == nullptr) {
        err << "generate: --fault-plan: unknown scenario '" << *plan
            << "' (known:";
        for (const IncidentScenario& s : incident_scenarios())
          err << " @" << s.name;
        err << ")\n";
        return 2;
      }
      cfg.faults = parse_fault_plan(sc->plan_text);
      cfg.backend.fleet.slow_start = sc->slow_start;
      cfg.backend.session_cap_per_process = sc->session_cap;
    } else {
      std::ifstream in(*plan);
      if (!in) {
        err << "generate: --fault-plan: cannot open '" << *plan << "'\n";
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      try {
        cfg.faults = parse_fault_plan(text.str());
      } catch (const std::invalid_argument& e) {
        err << "generate: --fault-plan: " << e.what() << "\n";
        return 2;
      }
    }
  }
  cfg.fault_seed = *fault_seed;
  // --format wins; otherwise U1SIM_TRACE_FORMAT; otherwise CSV.
  TraceFormat format = TraceFormat::kCsv;
  if (const auto f = args.flag("format")) {
    const auto parsed = trace_format_from_string(*f);
    if (!parsed) {
      err << "generate: --format must be csv or bin\n";
      return 2;
    }
    format = *parsed;
  } else {
    format = trace_format_from_env();
  }
  const std::unique_ptr<LogfileSink> writer = make_logfile_writer(*dir, format);
  // The trace bytes are the same for every thread count.
  ParallelSimulation sim(cfg, *writer, static_cast<std::size_t>(*threads));
  out << "# generating: users=" << cfg.users << " days=" << cfg.days
      << " seed=" << cfg.seed << " ddos=" << (cfg.enable_ddos ? "on" : "off")
      << " faults=" << (cfg.faults.empty() ? "off" : "on")
      << " threads=" << sim.threads() << " format=" << to_string(format)
      << "\n";
  const SimulationReport report = sim.run();
  writer->close();
  out << "# done: " << report.backend.sessions_opened << " sessions, "
      << report.backend.uploads << " uploads, " << report.backend.downloads
      << " downloads -> " << *dir << "\n";
  // The trace buffers' high-water marks, in bytes (DESIGN.md §7, §8).
  out << "# memory: bootstrap_bytes_max=" << sim.phases().bootstrap_bytes_max
      << " ring_bytes_max=" << sim.phases().ring_bytes_max
      << " buffered_bytes_max=" << writer->buffered_bytes_max() << "\n";
  return 0;
}

int cmd_convert(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().empty()) {
    err << "convert: source trace directory required\n";
    return 2;
  }
  const auto dst = args.flag("out");
  if (!dst) {
    err << "convert: --out DIR is required\n";
    return 2;
  }
  const std::string to = args.flag("to").value_or("csv");
  const auto format = trace_format_from_string(to);
  if (!format) {
    err << "convert: --to must be csv or bin\n";
    return 2;
  }
  const std::filesystem::path src = args.positionals()[0];
  if (!std::filesystem::is_directory(src)) {
    err << "convert: '" << src.string() << "' is not a directory\n";
    return 2;
  }
  // One source logfile maps to exactly one target logfile (both formats
  // shard by (machine, process, day)), so converting file-by-file keeps
  // each file's record order — the converted bytes match what direct
  // generation in the target format would have produced. Files come in
  // (day, name) order, so the writer's day rollover finishes each day's
  // files as the next day starts, and memory holds about a day.
  const std::unique_ptr<LogfileSink> writer =
      make_logfile_writer(*dst, *format);
  ReadStats stats;
  std::vector<TraceRecord> records;
  for (const LogfileEntry& entry : list_logfiles(src)) {
    records.clear();
    stats.add(read_logfile(entry.path, records));
    writer->append_batch(records.data(), records.size());
  }
  writer->close();
  out << "# converted " << stats.parsed << " records from " << stats.files
      << " logfiles to " << to_string(*format) << " -> " << *dst << " ("
      << stats.malformed << " malformed rows dropped)\n";
  return 0;
}

int cmd_summarize(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().empty()) {
    err << "summarize: trace directory required\n";
    return 2;
  }
  TraceSummaryAnalyzer summary;
  read_into(args.positionals()[0], summary, out);
  const auto s = summary.summary();
  out << "trace duration:   " << s.days << " days\n";
  out << "unique users:     " << s.unique_users << "\n";
  out << "unique files:     " << s.unique_files << "\n";
  out << "user sessions:    " << s.sessions << "\n";
  out << "transfer ops:     " << s.transfer_ops << "\n";
  out << "upload traffic:   "
      << format_bytes(static_cast<double>(s.upload_bytes)) << "\n";
  out << "download traffic: "
      << format_bytes(static_cast<double>(s.download_bytes)) << "\n";
  return 0;
}

int cmd_analyze(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().empty()) {
    err << "analyze: trace directory required\n";
    return 2;
  }
  const std::string figure = args.flag("figure").value_or("traffic");
  const auto records = load(args.positionals()[0], out);
  if (records.empty()) {
    err << "analyze: no records\n";
    return 1;
  }
  const SimTime horizon = horizon_of(records);

  if (figure == "traffic") {
    TrafficAnalyzer traffic(0, horizon);
    for (const TraceRecord& r : records) traffic.append(r);
    out << "upload:   " << traffic.upload_ops() << " ops, "
        << format_bytes(static_cast<double>(traffic.upload_bytes())) << "\n";
    out << "download: " << traffic.download_ops() << " ops, "
        << format_bytes(static_cast<double>(traffic.download_bytes()))
        << "\n";
    // A short or quiet trace can have no hour with uploads at all.
    const std::vector<double> rw = traffic.rw_ratios_hourly();
    out << "R/W ratio median: ";
    if (rw.empty())
      out << "n/a (no upload hours)\n";
    else
      out << boxplot(rw).median << "\n";
    out << "update ops share: " << traffic.update_op_fraction() << "\n";
    out << "update traffic share: " << traffic.update_traffic_fraction()
        << "\n";
    return 0;
  }
  if (figure == "dedup") {
    DedupAnalyzer dedup;
    for (const TraceRecord& r : records) dedup.append(r);
    out << "dedup ratio:     " << dedup.dedup_ratio() << "\n";
    out << "distinct hashes: " << dedup.distinct_hashes() << "\n";
    out << "unique fraction: " << dedup.unique_fraction() << "\n";
    return 0;
  }
  if (figure == "sessions") {
    SessionAnalyzer sessions(0, horizon);
    for (const TraceRecord& r : records) sessions.append(r);
    out << "sessions closed:  " << sessions.sessions_closed() << "\n";
    out << "under 1 second:   " << sessions.fraction_shorter_than(kSecond)
        << "\n";
    out << "under 8 hours:    "
        << sessions.fraction_shorter_than(8 * kHour) << "\n";
    out << "active fraction:  " << sessions.active_session_fraction()
        << "\n";
    out << "auth failures:    " << sessions.auth_failure_fraction() << "\n";
    return 0;
  }
  if (figure == "ddos") {
    DdosAnalyzer ddos(0, horizon);
    for (const TraceRecord& r : records) ddos.append(r);
    const auto attacks = ddos.detect();
    out << "attack windows: " << attacks.size() << " over "
        << ddos.attack_days() << " days\n";
    for (const auto& a : attacks) {
      out << "  " << format_timestamp(
                         ddos.session_per_hour().bin_start(a.first_hour))
          << "  " << (a.last_hour - a.first_hour + 1) << "h  session spike "
          << a.peak_multiplier << "x\n";
    }
    return 0;
  }
  if (figure == "users") {
    UserActivityAnalyzer users(0, horizon);
    for (const TraceRecord& r : records) users.append(r);
    users.finalize();
    const auto classes = users.classify_users();
    out << "users seen:     " << users.users_seen() << "\n";
    out << "occasional:     " << classes.occasional << "\n";
    out << "upload-only:    " << classes.upload_only << "\n";
    out << "download-only:  " << classes.download_only << "\n";
    out << "heavy:          " << classes.heavy << "\n";
    out << "upload Gini:    " << users.upload_lorenz().gini << "\n";
    out << "top 1% share:   " << users.top_traffic_share(0.01) << "\n";
    return 0;
  }
  if (figure == "ops") {
    OpMixAnalyzer mix;
    for (const TraceRecord& r : records) mix.append(r);
    for (const auto& [op, count] : mix.ranked()) {
      out << "  " << to_string(op) << ": " << count << "\n";
    }
    out << "  OpenSession: " << mix.open_sessions() << "\n";
    out << "  CloseSession: " << mix.close_sessions() << "\n";
    return 0;
  }
  err << "analyze: unknown figure '" << figure << "'\n";
  return 2;
}

int cmd_validate(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.positionals().empty()) {
    err << "validate: trace directory required\n";
    return 2;
  }
  ValidateSink v;
  const ReadStats stats = read_into(args.positionals()[0], v, out);
  const double malformed_share =
      stats.rows > 0
          ? static_cast<double>(stats.malformed) /
                static_cast<double>(stats.rows)
          : 0.0;
  out << "records:               " << v.records << "\n";
  out << "malformed row share:   " << malformed_share << "\n";
  out << "storage/done pairing:  " << v.storage << " / " << v.done << "\n";
  out << "sessions open/closed:  " << v.opens << " / " << v.closes << " ("
      << v.open.size() << " still open at trace end)\n";
  out << "per-session order violations: " << v.violations << "\n";
  const bool sound = v.storage == v.done && v.violations == 0;
  out << (sound ? "TRACE SOUND\n" : "TRACE UNSOUND\n");
  if (!sound) err << "validate: structural problems found\n";
  return sound ? 0 : 1;
}

int run(const std::vector<std::string>& argv, std::ostream& out,
        std::ostream& err) {
  if (argv.empty()) {
    err << kUsage;
    return 2;
  }
  const std::string command = argv[0];
  const std::vector<std::string> rest(argv.begin() + 1, argv.end());

  if (command == "generate") {
    const Args args = Args::parse(
        rest, {"out", "users", "days", "seed", "threads", "fault-plan",
               "fault-seed", "format"},
        {"no-ddos"});
    if (!args.ok()) {
      for (const auto& e : args.errors()) err << "generate: " << e << "\n";
      return 2;
    }
    return cmd_generate(args, out, err);
  }
  if (command == "convert") {
    const Args args = Args::parse(rest, {"out", "to"}, {});
    if (!args.ok()) {
      for (const auto& e : args.errors()) err << "convert: " << e << "\n";
      return 2;
    }
    return cmd_convert(args, out, err);
  }
  if (command == "summarize" || command == "analyze" ||
      command == "validate") {
    const Args args = Args::parse(rest, {"figure"}, {});
    if (!args.ok()) {
      for (const auto& e : args.errors()) err << command << ": " << e << "\n";
      return 2;
    }
    if (command == "summarize") return cmd_summarize(args, out, err);
    if (command == "analyze") return cmd_analyze(args, out, err);
    return cmd_validate(args, out, err);
  }
  err << "unknown command '" << command << "'\n" << kUsage;
  return 2;
}

}  // namespace u1::cli
