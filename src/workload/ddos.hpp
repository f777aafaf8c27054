// DDoS attack model (§5.4). The three attacks observed in the trace
// (Jan 15, Jan 16, Feb 6) shared one user id and its credentials across
// thousands of desktop clients to distribute illegal content — storage
// leeching. Observable signature (Fig. 5/15):
//  - session/auth requests per hour jump 5-15x;
//  - API server activity jumps 4.6x / 245x / 6.7x (attack 2 was by far
//    the largest);
//  - activity collapses within ~1 hour of the manual response (account
//    deletion + content removal).
#pragma once

#include <cstdint>
#include <vector>

#include "proto/ids.hpp"
#include "util/sim_time.hpp"

namespace u1 {

/// Attack a's shared account is UserId{kFirstAttackAccount + a}.
constexpr std::uint32_t kFirstAttackAccount = 1000000;

struct DdosAttackSpec {
  SimTime start = 0;
  /// How long engineers took to detect + respond (manual in U1).
  SimTime response_delay = 2 * kHour;
  /// Distinct bot clients hammering the shared account.
  std::uint32_t bots = 500;
  /// Per-bot connect attempts per hour while the attack runs.
  double connects_per_hour = 40.0;
  /// Per-bot downloads of the shared content per connection.
  std::uint32_t downloads_per_connection = 3;
  /// Size of the illegally-shared payload.
  std::uint64_t payload_bytes = 350ull * 1024 * 1024;
};

/// The three attacks of the paper, placed on their trace days:
/// Jan 15 (day 4), Jan 16 (day 5, the 245x one) and Feb 6 (day 26),
/// scaled by `bot_scale` (1.0 = defaults suited to a ~10-20k user sim).
std::vector<DdosAttackSpec> paper_attack_schedule(double bot_scale = 1.0);

}  // namespace u1
