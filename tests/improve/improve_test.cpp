#include <gtest/gtest.h>

#include "improve/anomaly_guard.hpp"
#include "improve/content_cache.hpp"
#include "util/sha1.hpp"

namespace u1 {
namespace {

ContentId cid(int i) { return Sha1::of("blob" + std::to_string(i)); }

// --- ContentCache -----------------------------------------------------------

TEST(ContentCache, MissThenHit) {
  ContentCache cache(1 << 20);
  EXPECT_FALSE(cache.access(cid(1), 1000));
  EXPECT_TRUE(cache.access(cid(1), 1000));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
  EXPECT_EQ(cache.hit_bytes(), 1000u);
}

TEST(ContentCache, EvictsLruByBytes) {
  ContentCache cache(3000);
  cache.access(cid(1), 1500);
  cache.access(cid(2), 1500);
  (void)cache.access(cid(1), 1500);  // touch 1
  cache.access(cid(3), 1500);        // evicts 2
  EXPECT_TRUE(cache.access(cid(1), 1500));
  EXPECT_FALSE(cache.access(cid(2), 1500));
  EXPECT_LE(cache.used_bytes(), 3000u);
}

TEST(ContentCache, NeverAdmitsWhales) {
  ContentCache cache(1000);
  EXPECT_FALSE(cache.access(cid(1), 5000));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.access(cid(1), 5000));  // still a miss
}

TEST(ContentCache, RejectsZeroCapacity) {
  EXPECT_THROW(ContentCache(0), std::invalid_argument);
}

// --- AnomalyGuard -----------------------------------------------------------

TraceRecord auth_request(SimTime t, std::uint64_t user) {
  TraceRecord r;
  r.t = t;
  r.type = RecordType::kSession;
  r.session_event = SessionEvent::kAuthRequest;
  r.user = UserId{user};
  r.session = SessionId{user * 1000 + static_cast<std::uint64_t>(t)};
  return r;
}

TEST(AnomalyGuard, StaysQuietOnBackgroundTraffic) {
  AnomalyGuard guard;
  Rng rng(1);
  // 12 hours of diffuse traffic from many users.
  for (SimTime t = 0; t < 12 * kHour; t += 20 * kSecond) {
    EXPECT_FALSE(guard.observe(auth_request(t, rng.below(500) + 1))
                     .has_value());
  }
  EXPECT_EQ(guard.alerts(), 0u);
}

TEST(AnomalyGuard, FlagsConcentratedSpike) {
  AnomalyGuard guard;
  Rng rng(2);
  SimTime t = 0;
  // Build the baseline: ~30 requests per 10-minute window.
  for (; t < 6 * kHour; t += 20 * kSecond)
    guard.observe(auth_request(t, rng.below(500) + 1));
  // Attack: one account floods 10x the rate. The alert may surface on
  // any observation (including a background request), so capture all.
  std::optional<UserId> flagged;
  for (int i = 0; i < 4000 && !flagged; ++i) {
    t += 2 * kSecond;
    // Background continues underneath.
    if (i % 10 == 0) {
      if (const auto f = guard.observe(auth_request(t, rng.below(500) + 1)))
        flagged = f;
    }
    if (const auto f = guard.observe(auth_request(t, 666))) flagged = f;
  }
  ASSERT_TRUE(flagged.has_value());
  EXPECT_EQ(*flagged, (UserId{666}));
  EXPECT_EQ(guard.alerts(), 1u);
}

TEST(AnomalyGuard, DiffuseSpikeIsNotBlamedOnAnyone) {
  // A legitimate flash crowd (e.g. a software release) raises the rate
  // but no single account concentrates it -> no purge recommendation.
  AnomalyGuard guard;
  Rng rng(3);
  SimTime t = 0;
  for (; t < 6 * kHour; t += 20 * kSecond)
    guard.observe(auth_request(t, rng.below(500) + 1));
  for (int i = 0; i < 4000; ++i) {
    t += 2 * kSecond;
    EXPECT_FALSE(
        guard.observe(auth_request(t, rng.below(5000) + 1)).has_value());
  }
}

TEST(AnomalyGuard, DebouncesRepeatedAlerts) {
  AnomalyGuard guard;
  Rng rng(4);
  SimTime t = 0;
  for (; t < 6 * kHour; t += 20 * kSecond)
    guard.observe(auth_request(t, rng.below(500) + 1));
  std::uint64_t alerts = 0;
  for (int i = 0; i < 6000; ++i) {
    t += 2 * kSecond;
    if (guard.observe(auth_request(t, 666)).has_value()) ++alerts;
  }
  EXPECT_EQ(alerts, guard.alerts());
  // The flood spans ~3.3 hours; debounce limits alerts to one per user
  // per hour.
  EXPECT_GE(alerts, 1u);
  EXPECT_LE(alerts, 4u);
}

TEST(AnomalyGuard, ValidatesConfig) {
  AnomalyGuardConfig cfg;
  cfg.rate_threshold = 1.0;
  EXPECT_THROW(AnomalyGuard{cfg}, std::invalid_argument);
  cfg = AnomalyGuardConfig{};
  cfg.concentration_threshold = 1.5;
  EXPECT_THROW(AnomalyGuard{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace u1
