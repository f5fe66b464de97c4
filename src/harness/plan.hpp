// Declarative experiment plans: a base ExperimentConfig plus sweep axes,
// expanded into a deterministic run list and executed through the
// TaskPool with seed-order folding.
//
// Expansion semantics:
//  * Axes expand like nested loops in declaration order — the last axis
//    varies fastest. `k={4,20} x originators={0.2,1.0}` yields the paper's
//    reporting order (k=4,20%), (k=4,100%), (k=20,20%), (k=20,100%).
//  * Axis values go through the same binding table as CLI args, so a bad
//    value fails expansion instead of silently running the default.
//  * Runs whose TopologyConfig compare equal share one built topology per
//    seed (generalizing run_paper_grid's per-k reuse): the originator
//    share, policy, caching etc. don't touch the overlay, so sweeping them
//    rebuilds nothing.
//
// Execution semantics:
//  * Each run executes once per seed {base.seed, ..., base.seed+seeds-1}.
//    This is the program's one multi-seed fold: the variance scenario
//    runs single-run plans through it.
//  * (topology-group x seed) cells fan out across the TaskPool; per-run
//    statistics are folded in seed order on the calling thread afterwards,
//    so the records are bit-identical for any thread count — every metric
//    except runtime_s, which reports measured wall clock.
//  * Folded records stream to the sinks in expansion order; only compact
//    scalars are retained per (run, seed), never per-node vectors.
#pragma once

#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "harness/sink.hpp"

namespace fairswap::harness {

/// One sweep dimension: a bound parameter key and the values it takes.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// A declarative experiment plan. Equal plans produce bit-identical
/// records for any thread count.
struct ExperimentPlan {
  std::string title{"sweep"};
  core::ExperimentConfig base{};
  std::vector<SweepAxis> axes;
  /// Seeds per run: {base.seed, base.seed+1, ...}.
  std::size_t seeds{1};
  /// Worker threads (0 = hardware concurrency).
  std::size_t threads{1};
};

/// One expanded run: the fully-bound config, the axis assignment that
/// produced it, and its topology-sharing group.
struct PlannedRun {
  std::size_t index{0};
  core::ExperimentConfig config;
  std::vector<std::pair<std::string, std::string>> assignment;
  /// Runs with the same group id share one built topology per seed.
  std::size_t topology_group{0};
};

/// Expands a plan into its run list. Returns false and sets `error` on an
/// unknown axis key, malformed value, or invalid resulting config. Labels
/// default to the axis assignment ("k=4, originators=0.2") unless
/// base.label is set (single-run plans keep it verbatim).
[[nodiscard]] bool expand(const ExperimentPlan& plan,
                          std::vector<PlannedRun>& out, std::string& error);

/// The sink-facing description of a plan (axes, base snapshot, run count).
[[nodiscard]] PlanSummary summarize(const ExperimentPlan& plan,
                                    std::size_t run_count);

/// Expands and executes a plan, streaming one RunRecord per run to every
/// sink. Returns false (with `error`) on expansion failure; sinks then see
/// neither begin() nor records. `progress`, when set, receives one line as
/// the plan starts executing.
[[nodiscard]] bool run_plan(const ExperimentPlan& plan,
                            std::span<MetricSink* const> sinks,
                            std::string& error,
                            std::ostream* progress = nullptr);

/// Runs a list of fully-built configs single-seed with full results —
/// the scenario-facing sibling of run_plan for outputs that need per-node
/// series (histograms, Lorenz curves). Topology-equal neighbors share one
/// built topology, and each topology is released after its last user, so
/// a long grid never holds more than one overlay alive. `on_run` fires
/// before each run (progress printing); results come back in input order.
[[nodiscard]] std::vector<core::ExperimentResult> run_grid(
    std::span<const core::ExperimentConfig> configs,
    const std::function<void(const core::ExperimentConfig&)>& on_run = {});

}  // namespace fairswap::harness
