// Differential suite for the flow-level overlay (ISSUE 6): a flow-level
// run is a pure temporal extension of the counter-based reference — it
// must agree bit-for-bit on every accounting observable (routes, chunk
// counters, per-node service/income, SWAP balances and settlement logs)
// across policies and seeds, while actually producing the
// new temporal outputs. Plus: run_plan with flow_level on is bit-identical
// for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/simulation.hpp"
#include "harness/plan.hpp"

namespace fairswap::core {
namespace {

overlay::Topology make_topology(std::size_t nodes, std::size_t k,
                                std::uint64_t seed, int bits = 12) {
  overlay::TopologyConfig cfg;
  cfg.node_count = nodes;
  cfg.address_bits = bits;
  cfg.buckets.k = k;
  Rng rng(seed);
  return overlay::Topology::build(cfg, rng);
}

/// Asserts the flow-level run matches the counter-based reference on every
/// accounting observable. SimulationTotals cannot be compared whole — the
/// temporal fields legitimately differ — so the counter fields are checked
/// one by one.
void expect_accounting_identical(const Simulation& counter,
                                 const Simulation& flow, const char* what) {
  const auto& a = counter.totals();
  const auto& b = flow.totals();
  EXPECT_EQ(a.files, b.files) << what;
  EXPECT_EQ(a.upload_files, b.upload_files) << what;
  EXPECT_EQ(a.chunk_requests, b.chunk_requests) << what;
  EXPECT_EQ(a.upload_requests, b.upload_requests) << what;
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.refused, b.refused) << what;
  EXPECT_EQ(a.failed_routes, b.failed_routes) << what;
  EXPECT_EQ(a.truncated_routes, b.truncated_routes) << what;
  EXPECT_EQ(a.local_hits, b.local_hits) << what;
  EXPECT_EQ(a.total_transmissions, b.total_transmissions) << what;

  EXPECT_EQ(counter.counters(), flow.counters()) << what;
  EXPECT_EQ(counter.income_per_node(), flow.income_per_node()) << what;
  EXPECT_EQ(counter.swap().income(), flow.swap().income()) << what;
  EXPECT_EQ(counter.swap().spent(), flow.swap().spent()) << what;
  EXPECT_EQ(counter.swap().settlements(), flow.swap().settlements()) << what;
  EXPECT_EQ(counter.swap().outstanding_debt(), flow.swap().outstanding_debt())
      << what;
  EXPECT_EQ(counter.swap().active_pairs(), flow.swap().active_pairs()) << what;

  using PairBal = std::tuple<NodeIndex, NodeIndex, Token::rep>;
  std::vector<PairBal> a_pairs;
  std::vector<PairBal> b_pairs;
  counter.swap().for_each_pair([&](NodeIndex lo, NodeIndex hi, Token bal) {
    a_pairs.emplace_back(lo, hi, bal.base_units());
  });
  flow.swap().for_each_pair([&](NodeIndex lo, NodeIndex hi, Token bal) {
    b_pairs.emplace_back(lo, hi, bal.base_units());
  });
  std::sort(a_pairs.begin(), a_pairs.end());
  std::sort(b_pairs.begin(), b_pairs.end());
  EXPECT_EQ(a_pairs, b_pairs) << what;
}

/// Runs (topology, cfg, seed, files) once counter-based and once
/// flow-level and checks accounting identity + non-degenerate temporal
/// outputs on the flow side.
void expect_flow_equivalent(const overlay::Topology& topo,
                            SimulationConfig cfg, std::uint64_t seed,
                            std::size_t files, const char* what) {
  cfg.flow_level = false;
  Simulation counter(topo, cfg, Rng(seed));
  counter.run(files);
  counter.finish_flows();  // no-op on the reference path

  cfg.flow_level = true;
  Simulation flow(topo, cfg, Rng(seed));
  flow.run(files);
  flow.finish_flows();

  expect_accounting_identical(counter, flow, what);

  // The reference run must carry no temporal outputs at all.
  EXPECT_EQ(counter.totals().flows_started, 0u) << what;
  EXPECT_EQ(counter.totals().flow_makespan, 0u) << what;
  EXPECT_EQ(counter.totals().fct_p50, 0.0) << what;

  const auto& t = flow.totals();
  EXPECT_EQ(t.flows_started,
            t.flows_completed + t.flows_timed_out) << what;
  if (t.delivered > t.local_hits) {
    EXPECT_GT(t.flows_started, 0u) << what;
    EXPECT_GT(t.flow_makespan, 0u) << what;
  }
  if (t.flows_completed > 0) {
    EXPECT_GT(t.fct_mean, 0.0) << what;
    EXPECT_LE(t.fct_p50, t.fct_p99) << what;
  }
}

TEST(FlowEquivalence, AcrossPoliciesAndRoutingModes) {
  const auto topo = make_topology(150, 4, 5);
  for (const char* policy :
       {"zero-proximity", "per-hop-swap", "effort-based", "none"}) {
    SimulationConfig cfg;
    cfg.policy = policy;
    cfg.workload.min_chunks_per_file = 10;
    cfg.workload.max_chunks_per_file = 40;
    cfg.flow.link_capacity = 0.05;
    expect_flow_equivalent(topo, cfg, 101, 25, policy);
  }
}

TEST(FlowEquivalence, AcrossSeedsAndWorkloadShapes) {
  Rng rng(77);
  for (int t = 0; t < 3; ++t) {
    const auto topo = make_topology(80 + rng.index(120), 1 + rng.index(6),
                                    rng.next(), 11);
    SimulationConfig cfg;
    cfg.workload.min_chunks_per_file = 5;
    cfg.workload.max_chunks_per_file = 50;
    cfg.workload.upload_share = 0.3;
    cfg.free_rider_share = 0.2;
    cfg.flow.link_capacity = 0.02;
    cfg.flow.interarrival = 20;
    expect_flow_equivalent(topo, cfg, rng.next(), 25, "seed sweep");
  }
}

TEST(FlowEquivalence, TimeoutsChangeNothingButTemporalStats) {
  const auto topo = make_topology(120, 4, 9);
  SimulationConfig cfg;
  cfg.workload.min_chunks_per_file = 10;
  cfg.workload.max_chunks_per_file = 40;
  cfg.flow.link_capacity = 0.01;  // heavy congestion
  cfg.flow.interarrival = 5;
  cfg.flow.timeout = 60;

  expect_flow_equivalent(topo, cfg, 55, 30, "timeouts");

  cfg.flow_level = true;
  Simulation tight(topo, cfg, Rng(55));
  tight.run(30);
  tight.finish_flows();
  cfg.flow.timeout = 0;
  Simulation loose(topo, cfg, Rng(55));
  loose.run(30);
  loose.finish_flows();
  // Same flows start either way; the timeout only reclassifies slow ones.
  EXPECT_EQ(tight.totals().flows_started, loose.totals().flows_started);
  EXPECT_EQ(loose.totals().flows_timed_out, 0u);
  EXPECT_GT(tight.totals().flows_timed_out, 0u);
  expect_accounting_identical(tight, loose, "timeout vs none");
}

TEST(FlowEquivalence, CongestionProducesSaturationAndSpreadPercentiles) {
  // The acceptance-shaped check at test scale: under a small link
  // capacity the FCT distribution must be non-degenerate (p50 < p99) and
  // at least one link must have saturated.
  const auto topo = make_topology(300, 4, 13);
  SimulationConfig cfg;
  cfg.workload.min_chunks_per_file = 20;
  cfg.workload.max_chunks_per_file = 60;
  cfg.flow_level = true;
  cfg.flow.link_capacity = 0.005;
  cfg.flow.interarrival = 10;
  Simulation sim(topo, cfg, Rng(21));
  sim.run(40);
  sim.finish_flows();
  const auto& t = sim.totals();
  ASSERT_GT(t.flows_completed, 0u);
  EXPECT_GT(t.saturated_links, 0u);
  EXPECT_LT(t.fct_p50, t.fct_p99);
  EXPECT_GT(t.max_link_utilization, 0.0);
  EXPECT_LE(t.max_link_utilization, 1.0 + 1e-9);
}

// --- run_plan determinism across thread counts --------------------------

/// Captures every folded metric of every record, bitwise.
struct CaptureSink final : harness::MetricSink {
  std::vector<std::tuple<std::string, std::string, double, double>> rows;

  void record(const harness::RunRecord& run) override {
    run.metrics.for_each([&](const char* name, const RunningStats& s) {
      if (std::string(name) == "runtime_s") return;  // wall clock, not folded
      rows.emplace_back(run.label, name, s.mean(), s.stddev());
    });
  }
};

TEST(FlowEquivalence, RunPlanBitIdenticalForAnyThreadCount) {
  harness::ExperimentPlan plan;
  plan.title = "flow determinism";
  plan.base.topology.node_count = 120;
  plan.base.topology.address_bits = 11;
  plan.base.topology.buckets.k = 4;
  plan.base.files = 20;
  plan.base.sim.workload.min_chunks_per_file = 10;
  plan.base.sim.workload.max_chunks_per_file = 30;
  plan.base.sim.flow_level = true;
  plan.base.sim.flow.link_capacity = 0.02;
  plan.base.sim.flow.timeout = 2'000;
  plan.axes.push_back({"link_capacity", {"0.01", "0.04"}});
  plan.seeds = 3;

  auto run_with = [&](std::size_t threads) {
    plan.threads = threads;
    CaptureSink sink;
    harness::MetricSink* sinks[] = {&sink};
    std::string error;
    EXPECT_TRUE(harness::run_plan(plan, sinks, error)) << error;
    return sink.rows;
  };

  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  ASSERT_FALSE(serial.empty());
  // Bitwise equality of every folded metric — flow completion events run
  // on the per-run EventQueue, never on anything thread- or hash-ordered.
  EXPECT_EQ(serial, parallel);

  // The sweep actually exercised the flow layer: the congested cell's FCT
  // must dominate the uncongested one's.
  double fct_tight = 0.0;
  double fct_loose = 0.0;
  for (const auto& [label, name, mean, sd] : serial) {
    if (name != "fct_mean") continue;
    if (label.find("0.01") != std::string::npos) fct_tight = mean;
    if (label.find("0.04") != std::string::npos) fct_loose = mean;
  }
  EXPECT_GT(fct_tight, 0.0);
  EXPECT_GT(fct_loose, 0.0);
  EXPECT_GT(fct_tight, fct_loose);
}

}  // namespace
}  // namespace fairswap::core
