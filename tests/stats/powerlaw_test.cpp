#include "stats/powerlaw.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace u1 {
namespace {

std::vector<double> pareto_sample(double alpha, double x_min, int n,
                                  std::uint64_t seed) {
  Rng rng(seed);
  ParetoDist d(alpha, x_min);
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(d.sample(rng));
  return v;
}

// --- reference fit ----------------------------------------------------------
//
// fit_power_law as it was before it computed each tail in place and fit
// the candidates in parallel: every candidate runs hill_alpha over the
// whole sorted sample and ks_distance over a sorted copy of its tail.
// Kept here, with its own Hill and KS, as the specification the fast fit
// must reproduce bit for bit.

double reference_hill_alpha(std::span<const double> sample, double x_min) {
  if (x_min <= 0) throw std::invalid_argument("hill_alpha: x_min <= 0");
  double sum_log = 0;
  std::size_t n = 0;
  for (const double x : sample) {
    if (x >= x_min) {
      sum_log += std::log(x / x_min);
      ++n;
    }
  }
  if (n < 2 || sum_log <= 0)
    throw std::invalid_argument("hill_alpha: insufficient tail");
  return static_cast<double>(n) / sum_log;
}

double reference_ks_distance(std::span<const double> sample, double x_min,
                             double alpha) {
  std::vector<double> tail;
  for (const double x : sample)
    if (x >= x_min) tail.push_back(x);
  if (tail.empty()) throw std::invalid_argument("ks_distance: empty tail");
  std::sort(tail.begin(), tail.end());
  const double n = static_cast<double>(tail.size());
  double ks = 0;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const double model = 1.0 - std::pow(x_min / tail[i], alpha);
    const double emp_hi = static_cast<double>(i + 1) / n;
    const double emp_lo = static_cast<double>(i) / n;
    ks = std::max(ks, std::max(std::abs(emp_hi - model),
                               std::abs(emp_lo - model)));
  }
  return ks;
}

PowerLawFit reference_fit_power_law(std::span<const double> sample,
                                    std::size_t max_candidates) {
  std::vector<double> positive;
  positive.reserve(sample.size());
  for (const double x : sample)
    if (x > 0) positive.push_back(x);
  if (positive.size() < 10)
    throw std::invalid_argument("fit_power_law: need >= 10 positive samples");
  std::sort(positive.begin(), positive.end());
  std::vector<double> candidates;
  const std::size_t upper = positive.size() * 9 / 10;
  const std::size_t step =
      std::max<std::size_t>(1, upper / std::max<std::size_t>(1, max_candidates));
  double last = -1;
  for (std::size_t i = 0; i < upper; i += step) {
    if (positive[i] != last) {
      candidates.push_back(positive[i]);
      last = positive[i];
    }
  }
  PowerLawFit best;
  best.ks = std::numeric_limits<double>::infinity();
  for (const double xm : candidates) {
    std::size_t tail_n =
        positive.end() -
        std::lower_bound(positive.begin(), positive.end(), xm);
    if (tail_n < 10) continue;
    double alpha;
    try {
      alpha = reference_hill_alpha(positive, xm);
    } catch (const std::invalid_argument&) {
      continue;
    }
    const double ks = reference_ks_distance(positive, xm, alpha);
    if (ks < best.ks) {
      best.alpha = alpha;
      best.x_min = xm;
      best.ks = ks;
      best.tail_n = tail_n;
    }
  }
  if (!std::isfinite(best.ks))
    throw std::invalid_argument("fit_power_law: no viable x_min candidate");
  return best;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Fits `draw`'s samples at every size and candidate budget the exactness
/// tests cover and requires each PowerLawFit field to be bit-identical to
/// the reference, or both fits to throw. max_candidates = n is skipped
/// where the reference would scan more than 4e7 sample values (n per
/// candidate): that bounds the test's time, not what
/// it covers, since n = 200k still runs at 1, 7 and 200 candidates and a
/// heavily tied sample at every budget.
void expect_exact(const std::function<double(Rng&)>& draw,
                  std::uint64_t seed) {
  for (const std::size_t n : {10u, 11u, 57u, 1000u, 20000u, 200000u}) {
    Rng rng(seed + n);
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(draw(rng));
    // At max_candidates = n every distinct value of the lowest 90% is a
    // candidate.
    std::vector<double> low = v;
    std::sort(low.begin(), low.end());
    low.resize(n * 9 / 10);
    const auto all_candidates = static_cast<std::size_t>(
        std::unique(low.begin(), low.end()) - low.begin());
    for (const std::size_t max : {std::size_t{1}, std::size_t{7},
                                  std::size_t{200}, n}) {
      if (max == n && n * all_candidates > 40'000'000) continue;
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " max_candidates=" + std::to_string(max));
      bool want_threw = false, got_threw = false;
      PowerLawFit want, got;
      try {
        want = reference_fit_power_law(v, max);
      } catch (const std::invalid_argument&) {
        want_threw = true;
      }
      try {
        got = fit_power_law(v, max);
      } catch (const std::invalid_argument&) {
        got_threw = true;
      }
      ASSERT_EQ(got_threw, want_threw);
      if (want_threw) continue;
      EXPECT_TRUE(same_bits(got.alpha, want.alpha))
          << got.alpha << " vs " << want.alpha;
      EXPECT_TRUE(same_bits(got.x_min, want.x_min))
          << got.x_min << " vs " << want.x_min;
      EXPECT_TRUE(same_bits(got.ks, want.ks)) << got.ks << " vs " << want.ks;
      EXPECT_EQ(got.tail_n, want.tail_n);
    }
  }
}

TEST(FitPowerLaw, BitIdenticalToReferenceOnPareto) {
  const ParetoDist d(1.54, 41.37);
  expect_exact([&](Rng& rng) { return d.sample(rng); }, 100);
}

TEST(FitPowerLaw, BitIdenticalToReferenceOnLogNormal) {
  const LogNormalDist d(2.0, 1.5);
  expect_exact([&](Rng& rng) { return d.sample(rng); }, 200);
}

TEST(FitPowerLaw, BitIdenticalToReferenceOnExponentialParetoMixture) {
  const ExponentialDist body(1.0 / 10.0);
  const ParetoDist tail(1.7, 50.0);
  expect_exact(
      [&](Rng& rng) {
        return rng.chance(0.7) ? body.sample(rng) : tail.sample(rng);
      },
      300);
}

TEST(FitPowerLaw, BitIdenticalToReferenceOnHeavilyTiedValues) {
  // Whole seconds of a Pareto(1.44, 1) gap, plus some zero gaps: most
  // values repeat, so candidates sit on long runs of equal values.
  const ParetoDist d(1.44, 1.0);
  expect_exact(
      [&](Rng& rng) {
        return rng.chance(0.1) ? 0.0 : std::floor(d.sample(rng));
      },
      400);
}

TEST(FitPowerLaw, ThrowsWhereReferenceThrows) {
  // Nine positive values among zeros and negatives: too few.
  std::vector<double> few = {0, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9, -2, 0};
  EXPECT_THROW(reference_fit_power_law(few, 200), std::invalid_argument);
  EXPECT_THROW(fit_power_law(few), std::invalid_argument);
  // Every value equal: the only candidate's Hill sum is zero.
  const std::vector<double> flat(50, 5.0);
  EXPECT_THROW(reference_fit_power_law(flat, 200), std::invalid_argument);
  EXPECT_THROW(fit_power_law(flat), std::invalid_argument);
}

TEST(HillAlpha, RecoversKnownExponent) {
  const auto v = pareto_sample(1.54, 41.37, 50000, 1);
  EXPECT_NEAR(hill_alpha(v, 41.37), 1.54, 0.03);
}

TEST(HillAlpha, RecoversUnlinkParameters) {
  // The paper's Unlink fit: alpha=1.44, theta=19.51.
  const auto v = pareto_sample(1.44, 19.51, 50000, 2);
  EXPECT_NEAR(hill_alpha(v, 19.51), 1.44, 0.03);
}

TEST(HillAlpha, RejectsBadInputs) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_THROW(hill_alpha(v, 0.0), std::invalid_argument);
  EXPECT_THROW(hill_alpha(v, 100.0), std::invalid_argument);  // empty tail
}

TEST(KsDistance, SmallForTrueModel) {
  const auto v = pareto_sample(1.5, 10.0, 20000, 3);
  EXPECT_LT(ks_distance(v, 10.0, 1.5), 0.02);
}

TEST(KsDistance, LargeForWrongModel) {
  const auto v = pareto_sample(1.5, 10.0, 20000, 4);
  EXPECT_GT(ks_distance(v, 10.0, 4.0), 0.2);
}

TEST(FitPowerLaw, RecoversPureParetoSample) {
  const auto v = pareto_sample(1.54, 41.37, 30000, 5);
  const auto fit = fit_power_law(v);
  EXPECT_NEAR(fit.alpha, 1.54, 0.1);
  EXPECT_LT(fit.ks, 0.03);
  EXPECT_GT(fit.tail_n, 1000u);
}

TEST(FitPowerLaw, FindsTailOfMixedBody) {
  // Exponential body below 50, Pareto tail above: fit should place x_min
  // near the transition and recover the tail exponent.
  Rng rng(6);
  ExponentialDist body(1.0 / 10.0);
  ParetoDist tail(1.7, 50.0);
  std::vector<double> v;
  for (int i = 0; i < 30000; ++i) {
    v.push_back(rng.chance(0.7) ? body.sample(rng) : tail.sample(rng));
  }
  const auto fit = fit_power_law(v);
  EXPECT_GT(fit.x_min, 10.0);
  EXPECT_NEAR(fit.alpha, 1.7, 0.25);
}

TEST(FitPowerLaw, RejectsTinySamples) {
  const std::vector<double> v = {1, 2, 3};
  EXPECT_THROW(fit_power_law(v), std::invalid_argument);
}

TEST(CvSquared, PoissonLikeIsOne) {
  Rng rng(7);
  ExponentialDist d(2.0);
  std::vector<double> v;
  for (int i = 0; i < 100000; ++i) v.push_back(d.sample(rng));
  EXPECT_NEAR(cv_squared(v), 1.0, 0.05);
}

TEST(CvSquared, ParetoIsBursty) {
  const auto v = pareto_sample(1.6, 1.0, 100000, 8);
  EXPECT_GT(cv_squared(v), 3.0);
}

TEST(CvSquared, ConstantIsZero) {
  const std::vector<double> v(100, 5.0);
  EXPECT_DOUBLE_EQ(cv_squared(v), 0.0);
}

}  // namespace
}  // namespace u1
