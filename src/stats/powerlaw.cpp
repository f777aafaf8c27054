#include "stats/powerlaw.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/parallel.hpp"

namespace u1 {
namespace {

/// The KS sup over a tail that is already sorted and holds exactly the
/// values >= x_min.
double sorted_tail_ks(std::span<const double> tail, double x_min,
                      double alpha) {
  const double n = static_cast<double>(tail.size());
  double ks = 0;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    // Model CDF (of the conditional tail distribution).
    const double model = 1.0 - std::pow(x_min / tail[i], alpha);
    const double emp_hi = static_cast<double>(i + 1) / n;
    const double emp_lo = static_cast<double>(i) / n;
    ks = std::max(ks, std::max(std::abs(emp_hi - model),
                               std::abs(emp_lo - model)));
  }
  return ks;
}

}  // namespace

double hill_alpha(std::span<const double> sample, double x_min) {
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

double ks_distance(std::span<const double> sample, double x_min,
                   double alpha) {
  std::vector<double> tail;
  for (const double x : sample)
    if (x >= x_min) tail.push_back(x);
  if (tail.empty()) throw std::invalid_argument("ks_distance: empty tail");
  std::sort(tail.begin(), tail.end());
  return sorted_tail_ks(tail, x_min, alpha);
}

PowerLawFit fit_power_law(std::span<const double> sample,
                          std::size_t max_candidates) {
  std::vector<double> positive;
  positive.reserve(sample.size());
  for (const double x : sample)
    if (x > 0) positive.push_back(x);
  if (positive.size() < 10)
    throw std::invalid_argument("fit_power_law: need >= 10 positive samples");
  std::sort(positive.begin(), positive.end());

  // Candidate x_min values: distinct sample values, subsampled evenly,
  // excluding the top decile (a tail must retain enough mass to fit).
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

  // The tail of a candidate is the sorted suffix from its lower bound:
  // hill_alpha over the whole sorted sample adds the same terms in the
  // same order, and ks_distance's copy-and-sort yields the same values,
  // so both are computed on the suffix in place. Candidates fit
  // independently, in parallel; the argmin below stays serial and in
  // candidate order, so ties still go to the earliest candidate.
  std::vector<PowerLawFit> fits(candidates.size());
  parallel_for(candidates.size(), [&](std::size_t c) {
    const double xm = candidates[c];
    const std::span<const double> tail(
        std::lower_bound(positive.begin(), positive.end(), xm),
        positive.end());
    PowerLawFit& fit = fits[c];
    fit.ks = std::numeric_limits<double>::quiet_NaN();  // not viable
    if (tail.size() < 10) return;
    double sum_log = 0;
    for (const double x : tail) sum_log += std::log(x / xm);
    if (sum_log <= 0) return;  // hill_alpha's "insufficient tail"
    fit.alpha = static_cast<double>(tail.size()) / sum_log;
    fit.x_min = xm;
    fit.ks = sorted_tail_ks(tail, xm, fit.alpha);
    fit.tail_n = tail.size();
  });

  PowerLawFit best;
  best.ks = std::numeric_limits<double>::infinity();
  for (const PowerLawFit& fit : fits)
    if (fit.ks < best.ks) best = fit;
  if (!std::isfinite(best.ks))
    throw std::invalid_argument("fit_power_law: no viable x_min candidate");
  return best;
}

double cv_squared(std::span<const double> sample) {
  if (sample.size() < 2)
    throw std::invalid_argument("cv_squared: need n >= 2");
  double mean = 0;
  for (const double x : sample) mean += x;
  mean /= static_cast<double>(sample.size());
  if (mean == 0) return 0;
  double var = 0;
  for (const double x : sample) var += (x - mean) * (x - mean);
  var /= static_cast<double>(sample.size() - 1);
  return var / (mean * mean);
}

}  // namespace u1
