// Order statistics for the benchmark's repeated measurements and span
// durations: median, quartiles and the highest percentile that still
// has enough samples beyond it to mean something.
//
// Quantiles use the default "exclusive" rule of Python's
// statistics.quantiles(values, n=4): position p * (n + 1), linear
// interpolation between the two order statistics around it, the pair
// clamped to the first/last two (so tiny samples extrapolate exactly as
// Python does). A quartile the benchmark prints is therefore the
// quartile a reader recomputes from the same values with the standard
// library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// The p-quantile (0 < p < 1) of `values` by the exclusive rule above.
/// Throws std::invalid_argument on an empty input.
[[nodiscard]] inline double quantile(std::vector<double> values, double p) {
  if (values.empty()) {
    throw std::invalid_argument("quantile of an empty sample");
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) {
    return values.front();
  }
  const double pos = p * static_cast<double>(n + 1);  // 1-based
  const auto j = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(0.0, std::floor(pos))), 1, n - 1);
  const double delta = pos - static_cast<double>(j);
  return values[j - 1] + delta * (values[j] - values[j - 1]);
}

/// The median: the middle value, or the mean of the two middle values.
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;

  /// Interquartile range as a share of the median (0 when the median
  /// is 0).
  [[nodiscard]] double relative_spread() const {
    return median == 0.0 ? 0.0 : (q3 - q1) / std::abs(median);
  }
};

[[nodiscard]] inline quartiles quartiles_of(const std::vector<double>& values) {
  return {quantile(values, 0.25), quantile(values, 0.5),
          quantile(values, 0.75)};
}

/// The samples strictly above the p-quantile position when `n` samples
/// are taken: n - ceil(p * n).
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto at =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return at >= n ? 0 : n - at;
}

/// The highest of the usual reporting percentiles (p99.9, p99, p95, p90,
/// p75, p50) that leaves at least `min_beyond` samples above it among
/// `n` samples; nullopt when not even the median qualifies.
[[nodiscard]] inline std::optional<double> highest_supported_percentile(
    std::size_t n, std::size_t min_beyond = 10) {
  for (const double p : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (samples_beyond(n, p) >= min_beyond) {
      return p;
    }
  }
  return std::nullopt;
}

/// The p-quantile when at least `min_beyond` samples lie beyond it,
/// else nullopt: a tail percentile read off too few samples is noise.
[[nodiscard]] inline std::optional<double> supported_quantile(
    const std::vector<double>& values, double p, std::size_t min_beyond = 10) {
  if (values.empty() || samples_beyond(values.size(), p) < min_beyond) {
    return std::nullopt;
  }
  return quantile(values, p);
}

}  // namespace perfbench
