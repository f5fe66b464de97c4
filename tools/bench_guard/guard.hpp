// bench_guard — the CI perf-drift gate over BENCH_scale.json.
//
// Compares a freshly produced fairswap.bench_scale.v1 document against
// the committed reference (bench/baseline.json) on the hot-path costs,
// each a ratio of two loops timed back to back so that host speed drift
// cancels: routing compiled_over_greedy and batched_over_greedy, ledger
// edge_over_map and the flow plane's overhead (flow-level over
// counter-based wall time), matched per k, plus the demand layer's
// workload.overhead (composed over plain ns per request, one object, no
// k). A metric drifts when the fresh value exceeds baseline *
// (1 + tolerance) — regression direction only; getting faster never
// fails the gate.
//
// Like fairswap_lint, this is a standalone library + CLI that links only
// fairswap_text (common/json and common/config, standard library only),
// not the simulator, so the gate builds in seconds and cannot be skewed
// by the code it is guarding. Both documents are read with common/json's
// strict parser, the one JSON grammar in the program.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fairswap::guard {

struct Options {
  /// Allowed relative slowdown before a metric counts as drift: 0.5
  /// means "fresh may be up to 1.5x the baseline". The band is wide on
  /// purpose: even as interleaved ratios, the gated rows spread by up to
  /// ~1.4x over ten runs on a shared host, and the gate exists to catch
  /// structural regressions (an accidental O(n) probe, a dropped batch
  /// path — the committed regression fixture is 2x), not scheduler
  /// noise. Tighten with --tolerance= on a quiet, dedicated machine.
  /// Must be finite and >= 0: a NaN band would pass every ratio.
  double tolerance{0.5};
};

/// One metric that regressed past the tolerance band.
struct Drift {
  std::string section;  ///< "routing", "ledger", "flow" or "workload"
  /// The sweep point the metric belongs to; empty for a section that is
  /// one object rather than an array of k points ("workload").
  std::optional<std::uint64_t> k;
  std::string metric;   ///< e.g. "batched_over_greedy"
  double baseline{0};
  double fresh{0};
  double ratio{0};  ///< fresh / baseline
};

struct GuardResult {
  /// Non-empty means a malformed input (either document, or a tolerance
  /// that is not a finite number >= 0) or no comparable metrics;
  /// drifts/compared are then meaningless.
  std::string error;
  /// In the gated-metric order (section, then metric), each over
  /// ascending k.
  std::vector<Drift> drifts;
  /// Number of (section, k, metric) points compared. A baseline point
  /// missing from the fresh document is skipped, not an error, so the
  /// gate survives deliberate sweep-point changes (the CI log still
  /// shows the count shrinking). A section missing from the baseline is
  /// simply not compared.
  std::size_t compared{0};
};

/// Compares two fairswap.bench_scale.v1 documents (full JSON text).
GuardResult compare(const std::string& baseline_json,
                    const std::string& fresh_json, const Options& options);

/// "routing k=8 batched_over_greedy: 0.14 -> 0.28 (2.00x, limit 1.50x)",
/// or "workload overhead: 2.47 -> 4.94 (2.00x, limit 1.50x)".
std::string format(const Drift& d, const Options& options);

}  // namespace fairswap::guard
