#include "harness/plan.hpp"

#include <array>
#include <optional>
#include <thread>

#include "agents/epoch.hpp"
#include "common/telemetry/span.hpp"
#include "core/task_pool.hpp"
#include "harness/binding.hpp"

namespace fairswap::harness {

namespace {

/// Caps runaway cartesian products before they allocate.
constexpr std::size_t kMaxRuns = 1'000'000;

std::string assignment_label(
    const std::vector<std::pair<std::string, std::string>>& assignment) {
  std::string label;
  for (const auto& [key, value] : assignment) {
    if (!label.empty()) label += ", ";
    label += key + "=" + value;
  }
  return label;
}

/// The per-(run, seed) state run_plan keeps — everything MetricStats
/// folds plus the sim-plane counter snapshot, nothing per-node. The
/// scalars must stay in sync with fold_cell/add_cell.
struct Cell {
  std::array<double, 25> scalars{};
  telemetry::CounterBlock counters;
};

/// `final_prevalence`/`converged_epoch` come from the epoch game on
/// agents-aware runs (-1 = did not converge); both are 0 on flat runs.
Cell extract(const core::ExperimentResult& r, double final_prevalence,
             double converged_epoch) {
  Cell cell;
  cell.counters = r.counters;
  cell.scalars = {r.fairness.gini_f2,
              r.fairness.gini_f1,
              r.fairness.gini_f1_income,
              r.avg_forwarded_chunks,
              r.routing_success,
              r.total_income,
              r.outstanding_debt,
              static_cast<double>(r.settlement_count),
              static_cast<double>(r.totals.total_transmissions),
              static_cast<double>(r.totals.delivered),
              static_cast<double>(r.totals.failed_routes),
              static_cast<double>(r.totals.truncated_routes),
              static_cast<double>(r.cache_serves),
              r.totals.fct_p50,
              r.totals.fct_p99,
              r.totals.fct_mean,
              static_cast<double>(r.totals.flows_timed_out),
              static_cast<double>(r.totals.saturated_links),
              r.runtime_seconds,
              r.hops_p50,
              r.hops_p99,
              r.served_p99,
              r.income_p99,
              final_prevalence,
              converged_epoch};
  return cell;
}

void fold_cell(MetricStats& stats, const Cell& cell) {
  const std::array<double, 25>& s = cell.scalars;
  stats.gini_f2.add(s[0]);
  stats.gini_f1.add(s[1]);
  stats.gini_f1_income.add(s[2]);
  stats.avg_forwarded.add(s[3]);
  stats.routing_success.add(s[4]);
  stats.total_income.add(s[5]);
  stats.outstanding_debt.add(s[6]);
  stats.settlements.add(s[7]);
  stats.total_transmissions.add(s[8]);
  stats.delivered.add(s[9]);
  stats.failed_routes.add(s[10]);
  stats.truncated_routes.add(s[11]);
  stats.cache_serves.add(s[12]);
  stats.fct_p50.add(s[13]);
  stats.fct_p99.add(s[14]);
  stats.fct_mean.add(s[15]);
  stats.flows_timed_out.add(s[16]);
  stats.saturated_links.add(s[17]);
  stats.runtime_s.add(s[18]);
  stats.hops_p50.add(s[19]);
  stats.hops_p99.add(s[20]);
  stats.served_p99.add(s[21]);
  stats.income_p99.add(s[22]);
  stats.final_prevalence.add(s[23]);
  stats.converged_epoch.add(s[24]);
}

/// One (run, seed) cell. Flat configs run a plain experiment; configs
/// with epochs > 0 run the strategic-agents epoch game over the shared
/// topology (Simulation::reset reuses the compiled arenas every epoch)
/// and report the final epoch's state plus the equilibrium outputs —
/// the PR-5 "agents-aware sweep" gap.
Cell run_cell(const overlay::Topology& topo, core::ExperimentConfig cfg) {
  if (cfg.agents.epochs == 0) {
    return extract(core::run_experiment(topo, cfg), 0.0, 0.0);
  }
  const std::uint64_t start_ns = telemetry::wall_now_ns();
  agents::EpochDriver driver(topo, cfg);
  const agents::EpochSeries series = driver.run();
  const double runtime =
      static_cast<double>(telemetry::wall_now_ns() - start_ns) * 1e-9;
  // After run() the simulation still holds the final epoch's play — the
  // equilibrium snapshot package_experiment turns into Gini/income/route
  // metrics.
  const core::ExperimentResult result =
      core::package_experiment(cfg, driver.simulation(), runtime);
  const double converged =
      series.converged ? static_cast<double>(series.converged_epoch) : -1.0;
  Cell cell = extract(result, series.final_prevalence, converged);
  // package_experiment saw only the final epoch's counters (reset wipes
  // the sim's block every epoch); the driver accumulated the full game.
  cell.counters = driver.telem();
  return cell;
}

}  // namespace

bool expand(const ExperimentPlan& plan, std::vector<PlannedRun>& out,
            std::string& error) {
  out.clear();
  const BindingTable& table = BindingTable::instance();

  std::size_t total = 1;
  for (const SweepAxis& axis : plan.axes) {
    if (!table.find(axis.key)) {
      error = "unknown sweep axis '" + axis.key + "'";
      return false;
    }
    if (axis.key == "seed") {
      // Execution derives per-run seeds from base.seed + seeds=N; a seed
      // axis would be silently overwritten into N identical runs.
      error = "'seed' cannot be a sweep axis - use seeds=N for multi-seed "
              "runs (seed=K sets the base seed)";
      return false;
    }
    if (axis.key == "trace_in" || axis.key == "trace_out") {
      // Per-axis trace paths would dodge the driver's upfront trace
      // validation (which reads plan.base) and, for trace_out, the
      // single-writer guarantee below; record/replay one trace per
      // invocation instead.
      error = "'" + axis.key + "' cannot be a sweep axis - run one " +
              "record/replay per invocation";
      return false;
    }
    if (axis.values.empty()) {
      error = "sweep axis '" + axis.key + "' has no values";
      return false;
    }
    if (axis.values.size() > kMaxRuns / total) {
      error = "sweep expands to more than " + std::to_string(kMaxRuns) +
              " runs";
      return false;
    }
    total *= axis.values.size();
  }

  // Topology-equal groups, numbered in first-appearance order. All runs
  // share the plan's seed list, so the group key is the topology config
  // alone.
  std::vector<overlay::TopologyConfig> group_reps;

  out.reserve(total);
  for (std::size_t run_index = 0; run_index < total; ++run_index) {
    PlannedRun run;
    run.index = run_index;
    run.config = plan.base;

    // Mixed-radix decode, last axis fastest (innermost loop).
    std::size_t rest = run_index;
    std::vector<std::size_t> choice(plan.axes.size(), 0);
    for (std::size_t i = plan.axes.size(); i-- > 0;) {
      choice[i] = rest % plan.axes[i].values.size();
      rest /= plan.axes[i].values.size();
    }
    for (std::size_t i = 0; i < plan.axes.size(); ++i) {
      const SweepAxis& axis = plan.axes[i];
      const std::string& value = axis.values[choice[i]];
      std::string err = table.apply(run.config, axis.key, value);
      if (!err.empty()) {
        error = err;
        return false;
      }
      run.assignment.emplace_back(axis.key, value);
    }

    std::string err = validate(run.config);
    if (!err.empty()) {
      error = plan.axes.empty()
                  ? err
                  : assignment_label(run.assignment) + ": " + err;
      return false;
    }

    if (!plan.axes.empty()) {
      run.config.label = assignment_label(run.assignment);
    } else if (run.config.label.empty()) {
      run.config.label = "run";
    }

    run.topology_group = group_reps.size();
    for (std::size_t g = 0; g < group_reps.size(); ++g) {
      if (group_reps[g] == run.config.topology) {
        run.topology_group = g;
        break;
      }
    }
    if (run.topology_group == group_reps.size()) {
      group_reps.push_back(run.config.topology);
    }

    out.push_back(std::move(run));
  }

  // Agents-aware sweeps: epochs > 0 switches a cell onto the epoch-game
  // path (run_cell). Setting the other agent knobs without epochs= would
  // silently run flat cells that ignore them — the same silent-no-op
  // class expand() rejects for a 'seed' axis — so demand the switch.
  // Epoch cells generate their own per-epoch workload, which a recorded
  // or replayed trace cannot represent.
  for (const PlannedRun& run : out) {
    if (run.config.agents.epochs == 0) {
      if (!(run.config.agents == core::AgentsConfig{})) {
        error =
            "files_per_epoch/dynamics/revision_rate/noise/bandwidth_cost/"
            "initial_free_riders shape the epoch game; set epochs= (or an "
            "epochs axis) to run agents-aware cells";
        return false;
      }
    } else if (!run.config.trace_in.empty() ||
               !run.config.trace_out.empty()) {
      error = "epochs: the epoch game generates one workload per epoch and "
              "cannot record or replay a trace (drop trace_in/trace_out)";
      return false;
    }
  }

  // One trace file cannot record several workloads: with more than one
  // (run x seed) cell writing the same path, every cell would open and
  // truncate it concurrently and the survivor would hold an arbitrary
  // cell's requests. (Replaying one trace into many cells via trace_in
  // is fine — that is the paper's same-workload comparison.)
  const std::size_t seeds = std::max<std::size_t>(1, plan.seeds);
  std::vector<std::string> trace_outs;
  for (const PlannedRun& run : out) {
    if (run.config.trace_out.empty()) continue;
    if (seeds > 1) {
      error = "trace_out: recording needs seeds=1 (every seed would "
              "overwrite " +
              run.config.trace_out + ")";
      return false;
    }
    for (const std::string& seen : trace_outs) {
      if (seen == run.config.trace_out) {
        error = "trace_out: multiple runs would overwrite " +
                run.config.trace_out + " (record one cell at a time)";
        return false;
      }
    }
    trace_outs.push_back(run.config.trace_out);
  }

  // A replayed trace *is* the workload, so axes that only shape workload
  // generation cannot distinguish cells: the sweep would print N
  // identical rows labeled as a parameter sweep (the same silent-no-op
  // class as a 'seed' axis). Topology and policy axes remain fine — one
  // workload against many configurations is the paper's comparison.
  bool any_replay = false;
  for (const PlannedRun& run : out) {
    any_replay = any_replay || !run.config.trace_in.empty();
  }
  if (any_replay) {
    for (const SweepAxis& axis : plan.axes) {
      const Binding* binding = table.find(axis.key);
      if (binding && binding->workload_generation) {
        error = axis.key +
                ": a replayed trace fixes the workload, so this axis "
                "cannot vary the cells (drop it or drop trace_in)";
        return false;
      }
    }
  }
  return true;
}

PlanSummary summarize(const ExperimentPlan& plan, std::size_t run_count) {
  PlanSummary summary;
  summary.title = plan.title;
  summary.base = BindingTable::instance().snapshot(plan.base);
  for (const SweepAxis& axis : plan.axes) {
    summary.axes.emplace_back(axis.key, axis.values);
  }
  summary.seeds = std::max<std::size_t>(1, plan.seeds);
  summary.threads = plan.threads;
  summary.run_count = run_count;
  return summary;
}

bool run_plan(const ExperimentPlan& plan, std::span<MetricSink* const> sinks,
              std::string& error, std::ostream* progress) {
  std::vector<PlannedRun> runs;
  if (!expand(plan, runs, error)) return false;

  const std::size_t seeds = std::max<std::size_t>(1, plan.seeds);
  std::size_t threads = plan.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }

  std::vector<std::vector<std::size_t>> groups;
  for (const PlannedRun& run : runs) {
    if (run.topology_group >= groups.size()) {
      groups.resize(run.topology_group + 1);
    }
    groups[run.topology_group].push_back(run.index);
  }

  if (progress) {
    *progress << "plan '" << plan.title << "': " << runs.size() << " runs x "
              << seeds << " seeds (" << groups.size()
              << " topology groups, " << threads << " threads)\n";
    progress->flush();
  }

  const PlanSummary summary = summarize(plan, runs.size());
  for (MetricSink* sink : sinks) sink->begin(summary);

  // One task per (topology group, seed): build the group's overlay once,
  // run every member config on it, keep only the folded scalars. The
  // cells vector is the whole cross-run memory footprint.
  std::vector<Cell> cells(runs.size() * seeds);
  const std::size_t task_count = groups.size() * seeds;
  const auto run_task = [&](std::size_t task) {
    const std::size_t group = task / seeds;
    const std::size_t seed_index = task % seeds;
    const std::uint64_t seed = plan.base.seed + seed_index;

    core::ExperimentConfig topo_cfg = runs[groups[group][0]].config;
    topo_cfg.seed = seed;
    const overlay::Topology topo = core::build_topology(topo_cfg);
    for (const std::size_t run_index : groups[group]) {
      core::ExperimentConfig cfg = runs[run_index].config;
      cfg.seed = seed;
      cells[run_index * seeds + seed_index] = run_cell(topo, cfg);
    }
  };

  {
    TELEM_SPAN("run_cells");
    if (threads <= 1 || task_count <= 1) {
      for (std::size_t t = 0; t < task_count; ++t) run_task(t);
    } else {
      core::TaskPool pool(std::min(threads, task_count));
      // fairswap-lint: allow(shared-capture) -- run_task writes only
      // cells[run_index * seeds + seed_index], and (group, seed) tasks
      // partition those indices: every worker owns disjoint slots, and the
      // fold below runs after parallel_for's barrier, single-threaded.
      pool.parallel_for(task_count, run_task);
      // Wall-plane pool utilization for this phase: busy share of the
      // job's wall time, summed over the pool's threads. Progress
      // output only — never a sink artifact.
      if (progress) {
        std::uint64_t busy = 0;
        std::uint64_t idle = 0;
        std::uint64_t items = 0;
        for (const core::WorkerStats& ws : pool.worker_stats()) {
          busy += ws.busy_ns;
          idle += ws.idle_ns;
          items += ws.items;
        }
        const double util =
            busy + idle > 0
                ? static_cast<double>(busy) / static_cast<double>(busy + idle)
                : 0.0;
        *progress << "pool: " << pool.worker_stats().size()
                  << " threads ran " << items << " cells, utilization "
                  << static_cast<int>(util * 100.0 + 0.5) << "%\n";
        progress->flush();
      }
    }
  }

  // Fold per run in seed order on this thread — the same RunningStats
  // add() sequence for any thread count — and stream in expansion order.
  // Counter blocks merge the same way (integer adds, order-invariant).
  TELEM_SPAN("fold_and_stream");
  for (const PlannedRun& run : runs) {
    RunRecord record;
    record.index = run.index;
    record.label = run.config.label;
    record.assignment = run.assignment;
    record.seeds = seeds;
    for (std::size_t si = 0; si < seeds; ++si) {
      const Cell& cell = cells[run.index * seeds + si];
      fold_cell(record.metrics, cell);
      record.counters.merge(cell.counters);
    }
    for (MetricSink* sink : sinks) sink->record(record);
  }
  for (MetricSink* sink : sinks) sink->end();
  return true;
}

std::vector<core::ExperimentResult> run_grid(
    std::span<const core::ExperimentConfig> configs,
    const std::function<void(const core::ExperimentConfig&)>& on_run) {
  // Group by (topology config, seed); remember each group's last user so
  // the overlay is released as soon as nothing later needs it.
  struct Group {
    overlay::TopologyConfig tcfg;
    std::uint64_t seed{0};
    std::size_t last_use{0};
    std::optional<overlay::Topology> topo;
  };
  std::vector<Group> groups;
  std::vector<std::size_t> group_of(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::size_t g = groups.size();
    for (std::size_t j = 0; j < groups.size(); ++j) {
      if (groups[j].tcfg == configs[i].topology &&
          groups[j].seed == configs[i].seed) {
        g = j;
        break;
      }
    }
    if (g == groups.size()) {
      groups.push_back(Group{configs[i].topology, configs[i].seed, i, {}});
    }
    groups[g].last_use = i;
    group_of[i] = g;
  }

  std::vector<core::ExperimentResult> results;
  results.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const core::ExperimentConfig& cfg = configs[i];
    if (on_run) on_run(cfg);
    Group& group = groups[group_of[i]];
    if (!group.topo) group.topo = core::build_topology(cfg);
    results.push_back(core::run_experiment(*group.topo, cfg));
    if (group.last_use == i) group.topo.reset();
  }
  return results;
}

}  // namespace fairswap::harness
