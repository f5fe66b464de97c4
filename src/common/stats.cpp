#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fairswap {

double percentile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  for (double v : sorted) s.sum += v;
  s.mean = s.sum / static_cast<double>(s.count);
  double m2 = 0.0;
  for (double v : sorted) {
    const double d = v - s.mean;
    m2 += d * d;
  }
  s.variance = m2 / static_cast<double>(s.count);
  s.stddev = std::sqrt(s.variance);
  s.min = sorted.front();
  s.max = sorted.back();
  s.median = percentile_sorted(sorted, 0.5);
  s.p90 = percentile_sorted(sorted, 0.9);
  s.p99 = percentile_sorted(sorted, 0.99);
  return s;
}

Summary summarize(std::span<const std::uint64_t> values) {
  std::vector<double> d(values.size());
  std::transform(values.begin(), values.end(), d.begin(),
                 [](std::uint64_t v) { return static_cast<double>(v); });
  return summarize(std::span<const double>(d));
}

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

std::string mean_pm_std(const RunningStats& stats, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f ± %.*f", precision, stats.mean(),
                precision, stats.stddev());
  return buf;
}

}  // namespace fairswap
