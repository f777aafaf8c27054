// Power-law (Pareto) tail fitting. Fig. 9(b) approximates user
// inter-operation times with P(X >= x) ~ x^-alpha for x > theta,
// reporting (alpha=1.54, theta=41.37) for Upload and (alpha=1.44,
// theta=19.51) for Unlink. We implement the standard Clauset-Shalizi-
// Newman procedure: Hill MLE for alpha at a candidate x_min, and x_min
// selection by minimizing the Kolmogorov-Smirnov distance.
#pragma once

#include <span>
#include <vector>

namespace u1 {

struct PowerLawFit {
  double alpha = 0;    // tail exponent of the CCDF, P(X >= x) ~ x^-alpha
  double x_min = 0;    // theta: where the power-law region starts
  double ks = 0;       // KS distance of the fit over the tail
  std::size_t tail_n = 0;  // number of samples in the fitted tail
};

/// Hill maximum-likelihood estimate of alpha for the tail x >= x_min.
/// (continuous MLE: alpha = n / sum(ln(x_i / x_min)) ).
/// Throws if fewer than 2 samples are >= x_min.
double hill_alpha(std::span<const double> sample, double x_min);

/// KS distance between the empirical tail distribution (x >= x_min) and
/// the fitted Pareto CCDF.
double ks_distance(std::span<const double> sample, double x_min,
                   double alpha);

/// Full fit: scans candidate x_min values and returns the fit minimizing
/// the KS distance, ties to the smallest candidate. The candidates are
/// the distinct values among every step-th of the lowest 90% of the
/// sorted positive sample, step = max(1, floor(upper / max_candidates))
/// for `upper` such values: up to 2 * max_candidates - 1 of them, not
/// max_candidates (upper = 399 distinct values and max_candidates = 200
/// give step 1 and 399 candidates). The candidates fit on hardware_concurrency() threads, the
/// caller's included; the result does not depend on the thread count.
/// Throws std::invalid_argument if the sample has fewer than 10 positive
/// values, or if no candidate has a viable tail (at least 10 values
/// >= x_min, not all equal to it).
PowerLawFit fit_power_law(std::span<const double> sample,
                          std::size_t max_candidates = 200);

/// Squared coefficient of variation — the burstiness indicator. Poisson
/// arrivals give CV^2 = 1; the paper's bursty, power-law inter-op times
/// give CV^2 >> 1.
double cv_squared(std::span<const double> sample);

}  // namespace u1
