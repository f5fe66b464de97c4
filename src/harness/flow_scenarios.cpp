// The flow-level scenario: flow-completion-time percentiles across a
// link-capacity sweep on the paper's 1000-node grid, with the counter-based
// run as a built-in differential reference — the CLI face of
// tests/net/flow_equivalence_test.cpp's invariant.
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/report.hpp"
#include "core/scenarios.hpp"
#include "harness/binding.hpp"
#include "harness/plan.hpp"
#include "harness/scenario.hpp"

namespace fairswap::harness {

namespace {

/// The counter-mode fields two runs must agree on exactly for the flow
/// layer to be a pure temporal overlay. Deliberately *not* totals ==
/// totals: the flow-level run carries nonzero FCT fields by design.
bool accounting_identical(const core::ExperimentResult& a,
                          const core::ExperimentResult& b) {
  const core::SimulationTotals& ta = a.totals;
  const core::SimulationTotals& tb = b.totals;
  return ta.files == tb.files && ta.chunk_requests == tb.chunk_requests &&
         ta.delivered == tb.delivered && ta.refused == tb.refused &&
         ta.failed_routes == tb.failed_routes &&
         ta.truncated_routes == tb.truncated_routes &&
         ta.local_hits == tb.local_hits &&
         ta.total_transmissions == tb.total_transmissions &&
         a.served_per_node == b.served_per_node &&
         a.income_per_node == b.income_per_node &&
         a.settlement_count == b.settlement_count &&
         a.outstanding_debt == b.outstanding_debt;
}

// --- flow_fct -----------------------------------------------------------
//
// "With flow_level=on, a 1000-node paper-grid run reports non-degenerate
// FCT percentiles (p50 < p99, at least one saturated link under
// link_capacity small enough to congest), while routes / chunk counts /
// ledger state match the counter-based reference exactly" (ISSUE 6).
int scenario_flow_fct(ScenarioContext& ctx) {
  using namespace fairswap;

  // Cell 0 is the counter-based reference; every flow cell must reproduce
  // its accounting bit-for-bit.
  std::vector<core::ExperimentConfig> cells;
  auto base = core::paper_config(4, 1.0, ctx.files, ctx.seed);
  base.label = "counter reference";
  cells.push_back(base);

  // The flow knobs go through the binding table onto the scenario's
  // defaults and apply to every cell; link_capacity= collapses the
  // capacity sweep to a single point.
  auto flow = base;
  flow.sim.flow_level = true;
  flow.sim.flow.interarrival = 200;
  flow.sim.flow.timeout = 50'000;
  apply_and_validate(flow, ctx.args, kScenarioKeys);
  std::vector<double> capacities{0.01, 0.04, 0.16};
  if (ctx.args.has("link_capacity")) {
    capacities = {flow.sim.flow.link_capacity};
  }

  banner(ctx.os(), "Flow-level FCT: link-capacity sweep, paper grid k=4");

  const Binding* capacity_binding =
      BindingTable::instance().find("link_capacity");
  for (const double capacity : capacities) {
    auto cfg = flow;
    cfg.sim.flow.link_capacity = capacity;
    // The binding's canonical double formatting keeps labels replayable
    // as key=value arguments.
    cfg.label = "link_capacity=" + capacity_binding->get(cfg);
    cells.push_back(cfg);
  }

  const auto results =
      run_grid(cells, [&](const core::ExperimentConfig& cfg) {
        print(ctx.os(), "running %s (%zu files)...\n", cfg.label.c_str(),
              cfg.files);
        ctx.os().flush();
      });

  TextTable table({"configuration", "fct p50", "fct p90", "fct p99",
                   "fct mean", "timed out", "saturated links", "max util",
                   "identical"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("label", "link_capacity", "fct_p50", "fct_p90", "fct_p99",
            "fct_mean", "flows_started", "flows_completed", "flows_timed_out",
            "saturated_links", "max_link_utilization", "flow_makespan",
            "accounting_identical");

  bool all_identical = true;
  for (std::size_t i = 1; i < results.size(); ++i) {
    const core::ExperimentResult& r = results[i];
    const bool identical = accounting_identical(results[0], r);
    all_identical = all_identical && identical;
    table.add_row({r.config.label, TextTable::num(r.totals.fct_p50, 0),
                   TextTable::num(r.totals.fct_p90, 0),
                   TextTable::num(r.totals.fct_p99, 0),
                   TextTable::num(r.totals.fct_mean, 1),
                   std::to_string(r.totals.flows_timed_out),
                   std::to_string(r.totals.saturated_links),
                   TextTable::num(r.totals.max_link_utilization, 3),
                   identical ? "yes" : "NO"});
    csv.cells(r.config.label, r.config.sim.flow.link_capacity,
              r.totals.fct_p50, r.totals.fct_p90, r.totals.fct_p99,
              r.totals.fct_mean, r.totals.flows_started,
              r.totals.flows_completed, r.totals.flows_timed_out,
              r.totals.saturated_links, r.totals.max_link_utilization,
              r.totals.flow_makespan, identical ? 1 : 0);
  }
  print(ctx.os(), "%s", table.render().c_str());
  print(ctx.os(),
        "\n'identical' = routes, chunk counts and SWAP ledger match the "
        "counter-based reference exactly; only the temporal outputs above "
        "are new.\n");
  core::write_text_file(ctx.out_dir + "/flow_fct.csv", csv_text.str());
  print(ctx.os(), "wrote %s/flow_fct.csv\n", ctx.out_dir.c_str());
  if (!all_identical) {
    print(ctx.os(), "ERROR: flow-level accounting diverged from the "
                    "counter-based reference\n");
    return 1;
  }
  return 0;
}

}  // namespace

void register_flow_scenarios() {
  ScenarioRegistry::instance().add(
      {"flow_fct",
       "flow-level FCT percentiles vs link capacity (+ differential check)",
       200, &scenario_flow_fct,
       {"link_capacity", "flow_interarrival", "flow_timeout"}});
}

}  // namespace fairswap::harness
