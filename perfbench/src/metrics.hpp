// How the benchmark turns timed passes into reported metrics, kept free of
// any simulation code so tests can feed it planted passes.
//
// A run repeats one workload as identical, deterministic passes. Every
// pass does the same work, so the spread between passes is host noise. A
// pass is timed in pieces (one per file, per cell or per epoch), the same
// pieces in every pass, and each piece's fastest time over the valid
// passes is the best estimate of its cost: the reported time is the sum
// of those fastest pieces. On a shared host whose speed swings by up to
// 2x within seconds, that filters the slow stretches out of every piece,
// where the fastest whole pass keeps whatever slow stretch it contains.
// A pass is valid only when its output checks passed, its fingerprint
// equals the untimed warm pass's and it has the warm pass's pieces; an
// invalid pass counts as a failed operation and is never used as a
// timing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A reported metric's name and unit, exactly as BENCHMARK.json lists it.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// End-to-end metrics (untraced runs), in BENCHMARK.json order.
[[nodiscard]] std::span<const MetricSpec> end_to_end_metrics();
/// Per-layer metrics (traced runs), in BENCHMARK.json order.
[[nodiscard]] std::span<const MetricSpec> per_layer_metrics();

/// One timed pass of a workload.
struct PassSample {
  /// Time before the first request can run: build_topology (router
  /// compile included) plus Simulation / EpochDriver construction.
  double setup_s{0.0};
  /// Time after set-up: drive + finish_flows + package_experiment, or
  /// EpochDriver::run.
  double run_s{0.0};
  /// SimulationTotals::chunk_requests summed over the pass.
  std::uint64_t chunk_requests{0};
  /// Digest of the pass's outputs (counters, totals, ledger, sketches).
  std::uint64_t fingerprint{0};
  /// Every output check of the pass held.
  bool checks_ok{false};
  /// run_s in consecutive pieces that add up to it: one per
  /// Simulation::step (one file) plus one per cell for finish_flows and
  /// package_experiment, or one per epoch plus the rest of
  /// EpochDriver::run. Empty means one piece, run_s.
  std::vector<double> run_pieces_s;
  /// setup_s in pieces: one per cell (its topology build, when it has its
  /// own, plus its construction). Empty means one piece, setup_s.
  std::vector<double> setup_pieces_s;
};

/// True when `pass` may be used as a timing: its checks held, and it has
/// the warm pass's fingerprint and pieces.
[[nodiscard]] bool pass_valid(const PassSample& pass,
                              const PassSample& warm) noexcept;

/// The end-to-end view of a run's timed passes.
struct RunSummary {
  std::size_t attempted{0};
  std::size_t failed{0};
  /// chunk_requests of one pass / the sum of its run pieces' fastest
  /// times over the valid passes (0 when none).
  double chunk_requests_per_s{0.0};
  /// Sum of the set-up pieces' fastest times (0 when none).
  double setup_s{0.0};
  /// chunk_requests / run_s of the fastest whole valid pass: a
  /// diagnostic, printed beside the metrics.
  double fastest_pass_per_s{0.0};
};

/// Folds timed passes into a RunSummary one at a time. It keeps only the
/// fastest time of each piece, so its memory does not grow with the
/// number of passes (and with it the run's peak RSS with the host speed).
class RunAccumulator {
 public:
  explicit RunAccumulator(const PassSample& warm);

  /// Counts the pass as attempted; folds it in when valid. Returns
  /// whether it was valid.
  bool add(const PassSample& pass);

  [[nodiscard]] RunSummary summary() const;

 private:
  PassSample warm_;
  std::vector<double> run_best_;
  std::vector<double> setup_best_;
  double chunk_requests_{0.0};
  RunSummary summary_;
  bool any_valid_{false};
};

/// A metric value ready to print.
struct MetricValue {
  std::string_view name;
  double value{0.0};
};

/// The result object the benchmark prints as its last line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
/// Units come from `specs`; `values` must name exactly those metrics, in
/// any order (throws std::logic_error otherwise).
[[nodiscard]] std::string result_json(bool correct, std::size_t attempted,
                                      std::size_t failed,
                                      std::span<const MetricSpec> specs,
                                      std::span<const MetricValue> values);

/// FNV-1a accumulator for output fingerprints.
class Fingerprint {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

}  // namespace perfbench
