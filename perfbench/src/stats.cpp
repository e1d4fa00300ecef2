#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // Rank in 1..n; the small epsilon keeps 0.99 * 1000 at 990, not 991.
  const auto r = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

double tail_quantile(std::size_t n, std::size_t min_beyond) {
  double best = 0.5;
  for (const double q : {0.9, 0.99, 0.999, 0.9999}) {
    if (samples_beyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

std::string summary::describe() const {
  char buf[160];
  if (tail_q > 0.5) {
    std::snprintf(buf, sizeof buf, "p50 %.4f | %s %.4f | n %zu", p50,
                  quantile_label(tail_q).c_str(), tail, n);
  } else {
    std::snprintf(buf, sizeof buf, "p50 %.4f | n %zu", p50, n);
  }
  return buf;
}

summary summarize(std::vector<double> v) {
  summary s;
  std::sort(v.begin(), v.end());
  s.n = v.size();
  s.p50 = median(v);
  s.tail_q = tail_quantile(s.n);
  s.tail = quantile_sorted(v, s.tail_q);
  s.sorted = std::move(v);
  return s;
}

std::string quantile_label(double q) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", q * 100.0);
  return buf;
}

}  // namespace perfbench
