// Table 1: the paper's summary of findings. This module composes the
// per-figure analyzers into the ten headline numbers so bench_paper can
// print paper-vs-measured side by side.
#pragma once

#include <string>
#include <vector>

#include "analysis/burstiness.hpp"
#include "analysis/ddos_detect.hpp"
#include "analysis/dedup.hpp"
#include "analysis/file_types.hpp"
#include "analysis/load_balance.hpp"
#include "analysis/rpc_perf.hpp"
#include "analysis/sessions.hpp"
#include "analysis/traffic.hpp"
#include "analysis/users.hpp"

namespace u1 {

struct Finding {
  std::string id;        // short slug, e.g. "small-files"
  std::string statement; // the paper's wording
  double paper_value = 0;
  double measured = 0;
  bool shape_holds = false;  // did the qualitative claim reproduce?
};

/// The Table 1 battery; every analyzer must have consumed the same trace.
std::vector<Finding> extract_findings(const FileTypeAnalyzer& types,
                                      const TrafficAnalyzer& traffic,
                                      const DedupAnalyzer& dedup,
                                      const DdosAnalyzer& ddos,
                                      const UserActivityAnalyzer& users,
                                      const BurstinessAnalyzer& bursts,
                                      const RpcPerfAnalyzer& rpcs,
                                      const LoadBalanceAnalyzer& load,
                                      const SessionAnalyzer& sessions);

}  // namespace u1
