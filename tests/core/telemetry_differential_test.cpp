// Counter-registry differential suite (the thread-count half of the
// telemetry contract): the sim-plane counter totals a plan folds must be
// bit-identical for threads = 1..8 over real simulations shaped like the
// three scenario families the acceptance names — the agents equilibrium
// (epoch game), flow_fct (flow-level temporal overlay) and heavy_traffic
// (composed demand processes) — and the per-seed fold itself must be
// merge-order invariant, like the streaming sketches it rides next to.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/telemetry/counters.hpp"
#include "core/scenarios.hpp"
#include "core/simulation.hpp"
#include "harness/plan.hpp"
#include "harness/sink.hpp"

namespace fairswap::core {
namespace {

using telemetry::Counter;
using telemetry::CounterBlock;

/// 64-node paper-shaped base, small enough for an 8-point thread matrix.
ExperimentConfig tiny_base() {
  ExperimentConfig cfg = paper_config(4, 1.0, /*files=*/6);
  cfg.topology.node_count = 64;
  cfg.topology.address_bits = 10;
  cfg.sim.workload.min_chunks_per_file = 5;
  cfg.sim.workload.max_chunks_per_file = 15;
  cfg.lorenz_points = 10;
  return cfg;
}

class CaptureSink final : public harness::MetricSink {
 public:
  void record(const harness::RunRecord& run) override {
    records.push_back(run);
  }
  std::vector<harness::RunRecord> records;
};

/// Runs `plan` at every thread count and asserts each run's folded
/// counter block is bit-equal to the threads=1 reference. Returns the
/// reference records for flavor-specific assertions.
std::vector<harness::RunRecord> assert_thread_invariant(
    harness::ExperimentPlan plan) {
  plan.threads = 1;
  CaptureSink reference;
  std::string error;
  {
    harness::MetricSink* sinks[] = {&reference};
    EXPECT_TRUE(harness::run_plan(plan, sinks, error)) << error;
  }
  for (const std::size_t threads : {2u, 4u, 8u}) {
    plan.threads = threads;
    CaptureSink sink;
    harness::MetricSink* sinks[] = {&sink};
    EXPECT_TRUE(harness::run_plan(plan, sinks, error)) << error;
    EXPECT_EQ(sink.records.size(), reference.records.size());
    for (std::size_t i = 0;
         i < std::min(sink.records.size(), reference.records.size()); ++i) {
      EXPECT_EQ(sink.records[i].counters, reference.records[i].counters)
          << reference.records[i].label << " threads=" << threads;
      EXPECT_EQ(sink.records[i].counters.fingerprint(),
                reference.records[i].counters.fingerprint());
    }
  }
  return reference.records;
}

TEST(TelemetryDifferential, EquilibriumEpochGameCountersAreThreadInvariant) {
  harness::ExperimentPlan plan;
  plan.base = tiny_base();
  plan.base.agents.epochs = 3;
  plan.base.agents.files_per_epoch = 6;
  plan.base.agents.initial_free_riders = 0.3;
  plan.axes = {{"k", {"4", "8"}}};
  plan.seeds = 2;
  const auto records = assert_thread_invariant(plan);
  ASSERT_FALSE(records.empty());
  for (const auto& r : records) {
    // The epoch path accumulates across per-epoch resets: revisions
    // happened and every epoch's routing survived into the fold.
    EXPECT_GT(r.counters.value(Counter::kAgentRevisions), 0u) << r.label;
    EXPECT_GT(r.counters.value(Counter::kRouteWalks), 0u) << r.label;
    EXPECT_GT(r.counters.value(Counter::kDebits), 0u) << r.label;
  }
}

TEST(TelemetryDifferential, FlowLevelCountersAreThreadInvariant) {
  harness::ExperimentPlan plan;
  plan.base = tiny_base();
  plan.base.sim.flow_level = true;
  plan.base.sim.flow.link_capacity = 0.02;  // small enough to congest
  plan.axes = {{"k", {"4", "8"}}};
  plan.seeds = 2;
  const auto records = assert_thread_invariant(plan);
  ASSERT_FALSE(records.empty());
  bool any_flow_events = false;
  for (const auto& r : records) {
    any_flow_events =
        any_flow_events || r.counters.value(Counter::kFlowEventsPopped) > 0;
    EXPECT_GT(r.counters.value(Counter::kFlowRateRecomputes), 0u) << r.label;
  }
  EXPECT_TRUE(any_flow_events);
}

TEST(TelemetryDifferential, HeavyDemandCountersAreThreadInvariant) {
  harness::ExperimentPlan plan;
  plan.base = tiny_base();
  plan.base.sim.stream_metrics = true;
  plan.base.sim.demand.kind = workload::DemandConfig::Kind::kZipf;
  plan.base.sim.demand.zipf_s = 0.9;
  plan.base.sim.demand.burst_start = 2;
  plan.base.sim.demand.burst_files = 3;
  plan.base.sim.demand.burst_share = 0.5;
  plan.base.sim.workload.upload_share = 0.1;
  plan.axes = {{"originators", {"0.5", "1.0"}}};
  plan.seeds = 2;
  const auto records = assert_thread_invariant(plan);
  ASSERT_FALSE(records.empty());
  bool any_burst = false;
  for (const auto& r : records) {
    any_burst = any_burst || r.counters.value(Counter::kBurstDraws) > 0;
    EXPECT_GT(r.counters.value(Counter::kChunksDelivered), 0u) << r.label;
  }
  EXPECT_TRUE(any_burst);
}

TEST(TelemetryDifferential, SeedFoldIsMergeOrderInvariant) {
  // The plan folds per-seed blocks in canonical seed order; re-merging
  // the same per-seed blocks in reverse must be bit-equal — counters
  // give up nothing the PercentileSketch merge guarantees.
  const ExperimentConfig base = tiny_base();
  std::vector<CounterBlock> per_seed;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ExperimentConfig cfg = base;
    cfg.seed = seed;
    const ExperimentResult result = run_experiment(cfg);
    EXPECT_NE(result.counters, CounterBlock{});
    per_seed.push_back(result.counters);
  }
  CounterBlock forward;
  for (const CounterBlock& b : per_seed) forward.merge(b);
  CounterBlock reverse;
  for (std::size_t i = per_seed.size(); i-- > 0;) reverse.merge(per_seed[i]);
  EXPECT_EQ(forward, reverse);
  // Different seeds really produced different work (the test would be
  // vacuous if every seed's block were identical).
  EXPECT_NE(per_seed.front(), per_seed.back());
}

TEST(TelemetryDifferential, ResetReplayReproducesCountersExactly) {
  // The record -> reset -> replay loop heavy_traffic leans on: counters
  // must come back bit-identical after Simulation::reset.
  const ExperimentConfig cfg = tiny_base();
  const overlay::Topology topo = build_topology(cfg);
  const Rng rng(cfg.seed);
  Simulation sim(topo, cfg.sim, rng);
  for (int i = 0; i < 400; ++i) sim.step();
  const CounterBlock first = sim.telem();
  EXPECT_NE(first, CounterBlock{});
  sim.reset(rng);
  for (int i = 0; i < 400; ++i) sim.step();
  EXPECT_EQ(sim.telem(), first);
  EXPECT_EQ(sim.telem().fingerprint(), first.fingerprint());
}

}  // namespace
}  // namespace fairswap::core
