#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Exact quantile of raw samples: linear interpolation between the two
/// closest ranks of the sorted samples (Python's
/// statistics.quantiles(method="inclusive")). Never a histogram bucket
/// edge. Requires a non-empty input.
inline double Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

/// Number of samples ranked strictly above quantile `q` of `n` samples.
inline size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - static_cast<size_t>(std::floor(q * static_cast<double>(n - 1)));
}

/// The reporting rule for latency percentiles: the median whenever there
/// is a sample; a tail percentile only when at least ten samples lie
/// beyond it (fewer would make it a single outlier, not a tail).
inline std::optional<double> ReportablePercentile(
    const std::vector<double>& samples, double q) {
  if (samples.empty()) return std::nullopt;
  if (q > 0.5 && SamplesBeyond(samples.size(), q) < 10) return std::nullopt;
  return Quantile(samples, q);
}

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
