// The traced run: per-layer costs, timed from outside the library.
//
// A traced pass drives each Simulation file by file — it pulls
// demand_mut().next() and calls apply() itself, timing both — and then
// replays the file's work through the lower layers' public functions:
// CompiledRouter::route_batch, PaymentPolicy admit/on_delivery over a
// fresh accounting::Ledger, a fresh net::FlowSimulator, and
// PercentileSketch::add. Each replay is timed as its layer's span, and
// each must reproduce the simulation bit for bit, or the pass fails.
// equilibrium runs agents::EpochDriver whole and reads the library's own
// epoch/play/revise spans. Nothing measured here feeds an end-to-end
// metric.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

struct TracedRun {
  /// Every per-layer metric; 0 for a layer the workload does not use.
  std::vector<MetricValue> metrics;
  std::size_t attempted{0};
  std::size_t failed{0};
  /// First failure (output check or replay divergence), empty if none.
  std::string failure;
};

/// Runs untraced passes for half of `seconds` (for trace.overhead's
/// base), then traced passes for the rest, and reports the per-layer
/// metrics of the fastest traced pass. When `trace_path` is non-empty
/// the spans of that pass are written there as a Chrome trace.
[[nodiscard]] TracedRun run_traced(const WorkloadSpec& spec, double seconds,
                                   const std::string& trace_path);

}  // namespace perfbench
