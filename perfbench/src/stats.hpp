// Sample statistics of the benchmark: medians, nearest-rank quantiles,
// and the tail quantile a sample count can support.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 for an
/// empty sample.
double median(std::vector<double> v);

/// Nearest-rank quantile of an ascending-sorted sample: the value at rank
/// ceil(q * n). 0 for an empty sample.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank `q` quantile of `n` samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The highest of p50, p90, p99, p99.9 and p99.99 that leaves at least
/// `min_beyond` of `n` samples above it; 0.5 when none does.
double tail_quantile(std::size_t n, std::size_t min_beyond = 10);

/// What every reported timing carries: median, the supportable tail and
/// the sample count.
struct summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.5;  ///< which quantile `tail` is
  double tail = 0.0;

  /// One human-readable line: "p50 1.23 | p99 4.56 | n 1000".
  [[nodiscard]] std::string describe() const;

  std::vector<double> sorted;
};

summary summarize(std::vector<double> v);

/// "p99", "p99.9", ... for a quantile.
std::string quantile_label(double q);

}  // namespace perfbench
