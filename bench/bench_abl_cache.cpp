// Ablation (§5.2): server-side caching of hot content. The short RAR
// times and the long tail of reads-per-file suggest a cache would absorb
// many S3 reads; this bench replays the download stream through LRU
// caches of increasing size.
#include "bench/bench_util.hpp"
#include "improve/content_cache.hpp"
#include "trace/sink.hpp"
#include "util/strings.hpp"

int main() {
  using namespace u1;
  using namespace u1::bench;
  const auto cfg = standard_config(env_users(5000), env_days(14));

  constexpr std::uint64_t GB = 1024ull * 1024 * 1024;
  std::vector<std::uint64_t> capacities = {1 * GB, 4 * GB, 16 * GB,
                                           64 * GB, 256 * GB};
  std::vector<ContentCache> caches;
  for (const auto c : capacities) caches.emplace_back(c);
  std::vector<std::uint64_t> hit_bytes(capacities.size(), 0);
  std::uint64_t downloads = 0, download_bytes = 0;

  CallbackSink sink([&](const TraceRecord& r) {
    if (r.type != RecordType::kStorageDone || r.failed || r.t < 0) return;
    if (r.api_op != ApiOp::kGetContent) return;
    if (r.content == ContentId{}) return;
    ++downloads;
    download_bytes += r.transferred_bytes;
    for (std::size_t i = 0; i < caches.size(); ++i) {
      if (caches[i].access(r.content, r.size_bytes))
        hit_bytes[i] += r.transferred_bytes;
    }
  });
  auto sim = run_into(sink, cfg);

  header("Ablation", "Server-side LRU cache over the download stream");
  std::printf("  downloads: %llu (%s)\n",
              static_cast<unsigned long long>(downloads),
              format_bytes(static_cast<double>(download_bytes)).c_str());
  std::printf("  %-12s %12s %14s\n", "cache size", "hit ratio",
              "bytes served");
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    std::printf("  %-12s %11.1f%% %14s\n",
                format_bytes(static_cast<double>(capacities[i])).c_str(),
                100.0 * caches[i].hit_rate(),
                format_bytes(static_cast<double>(hit_bytes[i])).c_str());
  }
  note("paper: RAR times are short and reads-per-file long-tailed -> "
       "server-side caching (e.g. Memcached) would cut S3 reads and "
       "operational costs");
  return 0;
}
