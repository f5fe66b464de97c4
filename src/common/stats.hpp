// Descriptive statistics used by experiment reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fairswap {

/// Summary statistics for a sample. All fields are 0 for an empty sample.
struct Summary {
  std::size_t count{0};
  double sum{0.0};
  double mean{0.0};
  double variance{0.0};  ///< population variance
  double stddev{0.0};
  double min{0.0};
  double max{0.0};
  double median{0.0};
  double p90{0.0};
  double p99{0.0};
};

/// Computes a Summary over `values` (copies & sorts internally for the
/// order statistics).
[[nodiscard]] Summary summarize(std::span<const double> values);
[[nodiscard]] Summary summarize(std::span<const std::uint64_t> values);

/// Linear-interpolation percentile of a *sorted* sample, q in [0, 1].
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double q);

/// Running mean/variance accumulator (Welford). Useful when streams are too
/// large to hold, e.g. per-chunk route lengths in the 10k-file experiments.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< population variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
  double sum_{0.0};
};

/// "mean ± stddev" with `precision` decimals on both.
[[nodiscard]] std::string mean_pm_std(const RunningStats& stats,
                                      int precision = 4);

}  // namespace fairswap
