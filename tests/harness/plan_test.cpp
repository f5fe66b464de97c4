#include "harness/plan.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/scenarios.hpp"
#include "harness/binding.hpp"

namespace fairswap::harness {
namespace {

/// A small, fast base config: 64 nodes, 10-bit space, tiny files.
core::ExperimentConfig tiny_base() {
  core::ExperimentConfig cfg = core::paper_config(4, 1.0, /*files=*/5);
  cfg.topology.node_count = 64;
  cfg.topology.address_bits = 10;
  cfg.sim.workload.min_chunks_per_file = 5;
  cfg.sim.workload.max_chunks_per_file = 20;
  cfg.lorenz_points = 10;
  return cfg;
}

TEST(Plan, ExpansionOrderIsNestedLoopsLastAxisFastest) {
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.axes = {{"k", {"4", "20"}}, {"originators", {"0.2", "1.0"}}};

  std::vector<PlannedRun> runs;
  std::string error;
  ASSERT_TRUE(expand(plan, runs, error)) << error;
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].config.label, "k=4, originators=0.2");
  EXPECT_EQ(runs[1].config.label, "k=4, originators=1.0");
  EXPECT_EQ(runs[2].config.label, "k=20, originators=0.2");
  EXPECT_EQ(runs[3].config.label, "k=20, originators=1.0");
  EXPECT_EQ(runs[1].config.topology.buckets.k, 4u);
  EXPECT_DOUBLE_EQ(runs[1].config.sim.workload.originator_share, 1.0);
}

TEST(Plan, ExpansionIsDeterministic) {
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.axes = {{"k", {"4", "8", "20"}}, {"cache", {"0", "16"}}};

  std::vector<PlannedRun> a, b;
  std::string error;
  ASSERT_TRUE(expand(plan, a, error));
  ASSERT_TRUE(expand(plan, b, error));
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].config.label, b[i].config.label);
    EXPECT_EQ(a[i].assignment, b[i].assignment);
    EXPECT_EQ(a[i].topology_group, b[i].topology_group);
  }
}

TEST(Plan, TopologyEqualRunsShareAGroup) {
  ExperimentPlan plan;
  plan.base = tiny_base();
  // originators and cache don't touch the overlay; k does.
  plan.axes = {{"k", {"4", "20"}}, {"originators", {"0.2", "1.0"}}};

  std::vector<PlannedRun> runs;
  std::string error;
  ASSERT_TRUE(expand(plan, runs, error)) << error;
  EXPECT_EQ(runs[0].topology_group, runs[1].topology_group);
  EXPECT_EQ(runs[2].topology_group, runs[3].topology_group);
  EXPECT_NE(runs[0].topology_group, runs[2].topology_group);
}

TEST(Plan, ExpansionRejectsUnknownAxisAndBadValue) {
  ExperimentPlan plan;
  plan.base = tiny_base();
  std::vector<PlannedRun> runs;
  std::string error;

  plan.axes = {{"nodez", {"10"}}};
  EXPECT_FALSE(expand(plan, runs, error));
  EXPECT_NE(error.find("nodez"), std::string::npos);

  plan.axes = {{"k", {"4", "lots"}}};
  EXPECT_FALSE(expand(plan, runs, error));
  EXPECT_NE(error.find("lots"), std::string::npos);

  // A combination that individually parses but fails validation: more
  // nodes than the address space holds.
  plan.axes = {{"nodes", {"64", "4096"}}, {"bits", {"10"}}};
  EXPECT_FALSE(expand(plan, runs, error));
  EXPECT_NE(error.find("address space"), std::string::npos);
}

TEST(Plan, SeedAxisIsRejected) {
  // Execution derives per-run seeds from base.seed + seeds=N; a 'seed'
  // axis would be silently overwritten into identical, mislabeled runs.
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.axes = {{"seed", {"1", "2"}}};
  std::vector<PlannedRun> runs;
  std::string error;
  EXPECT_FALSE(expand(plan, runs, error));
  EXPECT_NE(error.find("seeds=N"), std::string::npos) << error;
}

TEST(Plan, AgentKnobsWithoutEpochsAreRejected) {
  // Shaping the epoch game without switching it on (epochs=) would run
  // flat cells that silently ignore the knobs — the silent-no-op class
  // expand() exists to prevent.
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.base.agents.bandwidth_cost = 100.0;  // any non-default agents knob
  std::vector<PlannedRun> runs;
  std::string error;
  EXPECT_FALSE(expand(plan, runs, error));
  EXPECT_NE(error.find("epochs="), std::string::npos) << error;

  // epochs > 0 switches the cells onto the epoch-game path: accepted.
  plan.base.agents.epochs = 5;
  EXPECT_TRUE(expand(plan, runs, error)) << error;

  plan.base.agents = {};
  EXPECT_TRUE(expand(plan, runs, error)) << error;
}

TEST(Plan, EpochCellsCannotRecordOrReplayTraces) {
  // The epoch game generates one workload per epoch; a single recorded
  // trace cannot represent that, and a replay would be ignored.
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.base.agents.epochs = 3;
  plan.base.trace_in = "trace.csv";
  std::vector<PlannedRun> runs;
  std::string error;
  EXPECT_FALSE(expand(plan, runs, error));
  EXPECT_NE(error.find("epoch"), std::string::npos) << error;

  plan.base.trace_in.clear();
  plan.base.trace_out = "trace.csv";
  EXPECT_FALSE(expand(plan, runs, error));
}

TEST(Plan, AgentsAwareSweepRecordsEquilibriumOutputs) {
  // The PR-5 gap: sweeping an agents knob with epochs= set runs the epoch
  // game per cell and folds its equilibrium outputs (final free-rider
  // prevalence, convergence epoch) into the sink metrics.
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.base.agents.epochs = 4;
  plan.base.agents.files_per_epoch = 10;
  plan.base.agents.initial_free_riders = 0.5;
  plan.axes = {{"bandwidth_cost", {"0", "100"}}};
  plan.threads = 1;

  CaptureSink sink;
  MetricSink* sinks[] = {&sink};
  std::string error;
  ASSERT_TRUE(run_plan(plan, sinks, error, nullptr)) << error;
  ASSERT_EQ(sink.records.size(), 2u);
  for (const RunRecord& record : sink.records) {
    // The epoch game ran: prevalence is a share in [0, 1] from a
    // half-free-riding start, and the convergence marker is either a
    // valid epoch or the explicit -1 "did not converge".
    EXPECT_GE(record.metrics.final_prevalence.mean(), 0.0);
    EXPECT_LE(record.metrics.final_prevalence.mean(), 1.0);
    EXPECT_GE(record.metrics.converged_epoch.mean(), -1.0);
    EXPECT_LE(record.metrics.converged_epoch.mean(), 4.0);
    // The equilibrium snapshot still produces the flat metrics.
    EXPECT_GT(record.metrics.delivered.mean(), 0.0);
  }
}

TEST(Plan, FlatCellsReportZeroEquilibriumOutputs) {
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.threads = 1;
  CaptureSink sink;
  MetricSink* sinks[] = {&sink};
  std::string error;
  ASSERT_TRUE(run_plan(plan, sinks, error, nullptr)) << error;
  ASSERT_EQ(sink.records.size(), 1u);
  EXPECT_EQ(sink.records[0].metrics.final_prevalence.mean(), 0.0);
  EXPECT_EQ(sink.records[0].metrics.converged_epoch.mean(), 0.0);
}

TEST(Plan, TraceRecordingRequiresASingleCell) {
  // Several (run x seed) cells writing one trace path would truncate it
  // concurrently; expansion rejects the plan before any file is touched.
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.base.trace_out = "trace.csv";
  std::vector<PlannedRun> runs;
  std::string error;
  EXPECT_TRUE(expand(plan, runs, error)) << error;  // 1 run x 1 seed: fine

  plan.seeds = 3;
  EXPECT_FALSE(expand(plan, runs, error));
  EXPECT_NE(error.find("seeds=1"), std::string::npos) << error;

  plan.seeds = 1;
  plan.axes = {{"k", {"4", "8"}}};
  EXPECT_FALSE(expand(plan, runs, error));
  EXPECT_NE(error.find("one cell"), std::string::npos) << error;

  // Replaying one trace into many *topology* cells stays allowed (the
  // paper's same-workload comparison)...
  plan.base.trace_out.clear();
  plan.base.trace_in = "trace.csv";
  EXPECT_TRUE(expand(plan, runs, error)) << error;

  // ...but a workload-generation axis cannot vary replayed cells: the
  // trace is the workload, and the rows would be identical.
  plan.axes = {{"files", {"100", "200"}}};
  EXPECT_FALSE(expand(plan, runs, error));
  EXPECT_NE(error.find("replayed trace"), std::string::npos) << error;
  plan.axes = {{"originators", {"0.2", "1"}}};
  EXPECT_FALSE(expand(plan, runs, error));
}

TEST(Plan, RunPlanIsBitIdenticalForAnyThreadCount) {
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.axes = {{"k", {"4", "20"}}, {"originators", {"0.5", "1.0"}}};
  plan.seeds = 3;

  CaptureSink serial;
  CaptureSink parallel;
  CaptureSink hardware;  // threads=0: hardware concurrency
  std::string error;
  plan.threads = 1;
  {
    MetricSink* sinks[] = {&serial};
    ASSERT_TRUE(run_plan(plan, sinks, error)) << error;
  }
  plan.threads = 4;
  {
    MetricSink* sinks[] = {&parallel};
    ASSERT_TRUE(run_plan(plan, sinks, error)) << error;
  }
  plan.threads = 0;
  {
    MetricSink* sinks[] = {&hardware};
    ASSERT_TRUE(run_plan(plan, sinks, error)) << error;
  }

  ASSERT_EQ(serial.records.size(), 4u);
  EXPECT_TRUE(serial.ended);
  for (const CaptureSink* other : {&parallel, &hardware}) {
    ASSERT_EQ(other->records.size(), 4u);
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      const RunRecord& a = serial.records[i];
      const RunRecord& b = other->records[i];
      EXPECT_EQ(a.label, b.label);
      EXPECT_EQ(a.seeds, 3u);
      // Every sim-plane metric must be bit-identical: same values folded
      // in the same seed order (runtime_s, the measured wall clock, is
      // not among them).
      std::vector<std::pair<std::string, const RunningStats*>> am, bm;
      a.metrics.for_each([&](const char* name, const RunningStats& s) {
        am.emplace_back(name, &s);
      });
      b.metrics.for_each([&](const char* name, const RunningStats& s) {
        bm.emplace_back(name, &s);
      });
      ASSERT_EQ(am.size(), bm.size());
      for (std::size_t m = 0; m < am.size(); ++m) {
        EXPECT_EQ(am[m].second->mean(), bm[m].second->mean())
            << a.label << " " << am[m].first;
        EXPECT_EQ(am[m].second->stddev(), bm[m].second->stddev())
            << a.label << " " << am[m].first;
        EXPECT_EQ(am[m].second->count(), 3u);
      }
      // Sim-plane counters are part of the same contract: exact integer
      // equality across thread counts, and actually populated.
      EXPECT_EQ(a.counters, b.counters) << a.label;
      EXPECT_GT(a.counters.value(telemetry::Counter::kRouteWalks), 0u);
      EXPECT_GT(a.counters.value(telemetry::Counter::kDebits), 0u);
    }
  }
  // Each seed is a different run, so the fold has spread to report.
  for (const RunRecord& a : serial.records) {
    EXPECT_GT(a.metrics.gini_f2.stddev(), 0.0) << a.label;
  }
}

TEST(Plan, KEffectSurvivesErrorBars) {
  // The paper's headline direction should hold beyond seed noise:
  // mean Gini(k=20) + sd < mean Gini(k=4) - sd. The network must be large
  // enough that k=20 tables are still sparse relative to n (in tiny
  // networks k=20 degenerates to near-full connectivity, where payment
  // concentrates on storers and the effect inverts).
  ExperimentPlan plan;
  plan.base.topology.node_count = 400;
  plan.base.topology.address_bits = 12;
  plan.base.sim.workload.min_chunks_per_file = 50;
  plan.base.sim.workload.max_chunks_per_file = 150;
  plan.base.files = 150;
  plan.base.seed = 100;
  plan.axes = {{"k", {"4", "20"}}};
  plan.seeds = 4;

  CaptureSink sink;
  MetricSink* sinks[] = {&sink};
  std::string error;
  ASSERT_TRUE(run_plan(plan, sinks, error)) << error;
  ASSERT_EQ(sink.records.size(), 2u);
  const RunningStats& k4 = sink.records[0].metrics.gini_f2;
  const RunningStats& k20 = sink.records[1].metrics.gini_f2;
  EXPECT_LT(k20.mean() + k20.stddev(), k4.mean() - k4.stddev());
}

/// Runs `base` as a single-run plan (no axes, the shape `variance` and
/// `bench_scale` fold their seeds through) and returns its one record.
RunRecord run_single(const core::ExperimentConfig& base, std::size_t seeds,
                     std::size_t threads) {
  ExperimentPlan plan;
  plan.base = base;
  plan.seeds = seeds;
  plan.threads = threads;
  CaptureSink sink;
  MetricSink* sinks[] = {&sink};
  std::string error;
  EXPECT_TRUE(run_plan(plan, sinks, error)) << error;
  EXPECT_EQ(sink.records.size(), 1u);
  return sink.records.empty() ? RunRecord{} : sink.records.front();
}

TEST(MultiRun, DifferentSeedsProduceVariance) {
  const RunRecord record = run_single(tiny_base(), 5, 1);
  EXPECT_EQ(record.label, tiny_base().label);
  EXPECT_EQ(record.metrics.gini_f2.count(), 5u);
  EXPECT_GT(record.metrics.gini_f2.stddev(), 0.0);
  EXPECT_GT(record.metrics.avg_forwarded.stddev(), 0.0);
}

TEST(MultiRunParallel, ZeroThreadsMeansHardwareConcurrency) {
  const RunRecord serial = run_single(tiny_base(), 3, 1);
  const RunRecord hardware = run_single(tiny_base(), 3, 0);
  EXPECT_EQ(serial.label, hardware.label);
  EXPECT_EQ(serial.metrics.gini_f2.count(), hardware.metrics.gini_f2.count());
  EXPECT_EQ(serial.metrics.gini_f2.mean(), hardware.metrics.gini_f2.mean());
  EXPECT_EQ(serial.metrics.gini_f2.stddev(),
            hardware.metrics.gini_f2.stddev());
  EXPECT_EQ(serial.metrics.gini_f1.mean(), hardware.metrics.gini_f1.mean());
  EXPECT_EQ(serial.metrics.avg_forwarded.mean(),
            hardware.metrics.avg_forwarded.mean());
  EXPECT_EQ(serial.metrics.routing_success.mean(),
            hardware.metrics.routing_success.mean());
  EXPECT_EQ(serial.metrics.total_income.sum(),
            hardware.metrics.total_income.sum());
  EXPECT_EQ(serial.counters, hardware.counters);
}

TEST(Plan, RunPlanIsBitIdenticalForAnyThreadCountWithDemandProcesses) {
  // The ISSUE 9 acceptance: the determinism contract must survive the
  // full demand-process composition (Zipf popularity, flash crowd,
  // upload mix) with streaming metrics on.
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.base.sim.stream_metrics = true;
  plan.axes = {{"demand", {"uniform", "zipf"}},
               {"burst_files", {"0", "3"}},
               {"upload_mix", {"0", "0.25"}}};
  plan.seeds = 2;

  CaptureSink serial;
  CaptureSink parallel;
  std::string error;
  plan.threads = 1;
  {
    MetricSink* sinks[] = {&serial};
    ASSERT_TRUE(run_plan(plan, sinks, error)) << error;
  }
  plan.threads = 4;
  {
    MetricSink* sinks[] = {&parallel};
    ASSERT_TRUE(run_plan(plan, sinks, error)) << error;
  }

  ASSERT_EQ(serial.records.size(), 8u);
  ASSERT_EQ(parallel.records.size(), 8u);
  bool any_hops = false;
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const RunRecord& a = serial.records[i];
    const RunRecord& b = parallel.records[i];
    EXPECT_EQ(a.label, b.label);
    any_hops = any_hops || a.metrics.hops_p99.mean() > 0.0;
    std::vector<std::pair<std::string, const RunningStats*>> am, bm;
    a.metrics.for_each([&](const char* name, const RunningStats& s) {
      am.emplace_back(name, &s);
    });
    b.metrics.for_each([&](const char* name, const RunningStats& s) {
      bm.emplace_back(name, &s);
    });
    ASSERT_EQ(am.size(), bm.size());
    for (std::size_t m = 0; m < am.size(); ++m) {
      EXPECT_EQ(am[m].second->mean(), bm[m].second->mean())
          << a.label << " " << am[m].first;
      EXPECT_EQ(am[m].second->stddev(), bm[m].second->stddev())
          << a.label << " " << am[m].first;
    }
    // The composed demand processes bump their own counters (burst and
    // diurnal draws); those too must be thread-count-invariant.
    EXPECT_EQ(a.counters, b.counters) << a.label;
  }
  // stream_metrics was on: the sketch percentiles actually flowed
  // through the sink schema rather than staying zero.
  EXPECT_TRUE(any_hops);
}

TEST(Plan, SharedTopologyMatchesPerRunRebuild) {
  // The topology-sharing group execution must be bit-identical to running
  // each config standalone (which rebuilds the topology from the same
  // seed) — the generalization of run_paper_grid's per-k reuse.
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.axes = {{"originators", {"0.5", "1.0"}}};

  CaptureSink sink;
  std::string error;
  MetricSink* sinks[] = {&sink};
  ASSERT_TRUE(run_plan(plan, sinks, error)) << error;
  ASSERT_EQ(sink.records.size(), 2u);

  std::vector<PlannedRun> runs;
  ASSERT_TRUE(expand(plan, runs, error));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const core::ExperimentResult standalone =
        core::run_experiment(runs[i].config);
    EXPECT_EQ(sink.records[i].metrics.gini_f2.mean(),
              standalone.fairness.gini_f2);
    EXPECT_EQ(sink.records[i].metrics.total_income.mean(),
              standalone.total_income);
    EXPECT_EQ(sink.records[i].metrics.delivered.mean(),
              static_cast<double>(standalone.totals.delivered));
  }
}

TEST(Plan, RunGridSharesTopologiesAndPreservesOrder) {
  const auto base = tiny_base();
  std::vector<core::ExperimentConfig> configs;
  for (const double share : {0.25, 0.5, 1.0}) {
    core::ExperimentConfig cfg = base;
    cfg.sim.workload.originator_share = share;
    cfg.label = "share=" + std::to_string(share);
    configs.push_back(cfg);
  }

  std::vector<std::string> progressed;
  const auto results =
      run_grid(configs, [&](const core::ExperimentConfig& cfg) {
        progressed.push_back(cfg.label);
      });
  ASSERT_EQ(results.size(), 3u);
  ASSERT_EQ(progressed.size(), 3u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(progressed[i], configs[i].label);
    const core::ExperimentResult standalone = core::run_experiment(configs[i]);
    EXPECT_EQ(results[i].fairness.gini_f2, standalone.fairness.gini_f2);
    EXPECT_EQ(results[i].totals, standalone.totals);
  }
}

TEST(Plan, SummaryCarriesAxesAndBaseSnapshot) {
  ExperimentPlan plan;
  plan.base = tiny_base();
  plan.axes = {{"k", {"4", "20"}}};
  plan.seeds = 2;
  plan.threads = 3;

  const PlanSummary summary = summarize(plan, 2);
  EXPECT_EQ(summary.seeds, 2u);
  EXPECT_EQ(summary.threads, 3u);
  EXPECT_EQ(summary.run_count, 2u);
  ASSERT_EQ(summary.axes.size(), 1u);
  EXPECT_EQ(summary.axes[0].first, "k");
  EXPECT_EQ(summary.base.size(),
            BindingTable::instance().bindings().size());
}

}  // namespace
}  // namespace fairswap::harness
