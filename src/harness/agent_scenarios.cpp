// The strategic-agents scenarios: epoch-based behavior evolution driven
// through the harness (src/agents).
//
//  * equilibrium — one population, half sharers half free riders, imitate
//    dynamics under the paper's SWAP incentives: where does the sharing
//    level settle, and what do F1/F2 look like at the fixed point?
//  * invasion — the incentive-compatibility experiment: a small
//    FREE_RIDE invasion into an all-SHARE population, run twice over one
//    topology — once with payments enabled (the invasion must be
//    repelled: prevalence back to ~0) and once with the payment policy
//    ablated to "none" (free-riding must spread to fixation). This is
//    the §V "what happens when peers misbehave" question asked
//    dynamically, in the spirit of Shelby's rational-deviation analysis.
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "agents/epoch.hpp"
#include "agents/series.hpp"
#include "common/table.hpp"
#include "core/report.hpp"
#include "core/scenarios.hpp"
#include "harness/binding.hpp"
#include "harness/scenario.hpp"

namespace fairswap::harness {

namespace {

/// Keys the agents scenarios accept beyond the shared set. Everything is
/// a regular binding, so overrides run through the same strict table as
/// sweeps.
const std::vector<std::string> kAgentKeys = {
    "nodes",         "bits",          "k",
    "originators",   "min_chunks",    "max_chunks",
    "policy",        "pricer",        "cache",
    "payment_threshold",  "disconnect_threshold",
    "epochs",        "files_per_epoch",   "dynamics",
    "revision_rate", "noise",             "bandwidth_cost",
    "initial_free_riders"};

/// Bandwidth cost (token base units per chunk served) used when the
/// caller does not override bandwidth_cost=. Calibrated against the
/// paper's 1000-node, 16-bit, xor-distance-priced grid: marginal SWAP
/// income per served chunk averages ~1.5e3 base units, with the 10th
/// percentile node (mostly-relay duty, rarely the paid first hop) at
/// ~2.7e2. A cost of 100 sits below even that tail, so sharing is
/// profitable for nearly every node with payments on — and strictly
/// loss-making for anyone serving at all once payments are ablated.
constexpr double kDefaultBandwidthCost = 100.0;

/// Shared scenario plumbing: the base config with the agents defaults,
/// plus the strict application of every CLI override.
core::ExperimentConfig agents_config(const ScenarioContext& ctx,
                                     const char* label) {
  if (ctx.args.has("files")) {
    throw std::invalid_argument(
        "agents scenarios run epochs x files_per_epoch; use "
        "files_per_epoch=, not files=");
  }
  core::ExperimentConfig cfg = core::paper_config(4, 1.0, /*files=*/0,
                                                  ctx.seed);
  cfg.label = label;
  cfg.agents.epochs = 40;
  cfg.agents.files_per_epoch = 200;
  cfg.agents.revision_rate = 0.25;
  cfg.agents.bandwidth_cost = kDefaultBandwidthCost;
  apply_and_validate(cfg, ctx.args, kScenarioKeys);
  return cfg;
}

void print_series(ScenarioContext& ctx, const agents::EpochSeries& series) {
  TextTable table({"epoch", "free riders", "prevalence", "u(share)",
                   "u(free-ride)", "welfare", "Gini F2", "Gini F1"});
  for (const auto& p : series.points) {
    table.add_row({std::to_string(p.epoch), std::to_string(p.free_riders),
                   TextTable::num(p.prevalence, 3),
                   TextTable::num(p.share_utility, 0),
                   TextTable::num(p.free_ride_utility, 0),
                   TextTable::num(p.total_welfare, 0),
                   TextTable::num(p.gini_f2, 4),
                   TextTable::num(p.gini_f1_income, 4)});
  }
  print(ctx.os(), "%s", table.render().c_str());
  if (series.converged) {
    print(ctx.os(), "converged at epoch %zu (final prevalence %.3f)\n",
          series.converged_epoch, series.final_prevalence);
  } else {
    print(ctx.os(),
          "no fixed point within %zu epochs (final prevalence %.3f)\n",
          series.points.size(), series.final_prevalence);
  }
}

void write_series_file(ScenarioContext& ctx, const std::string& name,
                       const std::string& title,
                       std::span<const agents::EpochSeries> runs) {
  const std::string path = ctx.out_dir + "/" + name;
  std::ostringstream doc;
  agents::write_agents_json(doc, title, runs);
  doc << "\n";
  core::write_text_file(path, doc.str());
  print(ctx.os(), "wrote %s (schema fairswap.agents.v1)\n", path.c_str());
}

int scenario_equilibrium(ScenarioContext& ctx) {
  banner(ctx.os(), "Adaptive agents: sharing equilibrium");
  core::ExperimentConfig cfg = agents_config(ctx, "equilibrium");
  // A mixed start inside the sharing basin (see the reading below for
  // what lies outside it); scenario defaults apply only when the caller
  // didn't override.
  if (!ctx.args.has("initial_free_riders")) {
    cfg.agents.initial_free_riders = 0.3;
  }

  print(ctx.os(),
        "%zu nodes, %zu epochs x %zu files, dynamics=%s, revision_rate=%s, "
        "bandwidth_cost=%.0f, policy=%s\n",
        cfg.topology.node_count, cfg.agents.epochs, cfg.agents.files_per_epoch,
        cfg.agents.dynamics.c_str(),
        TextTable::num(cfg.agents.revision_rate, 2).c_str(),
        cfg.agents.bandwidth_cost, cfg.sim.policy.c_str());

  const auto series = agents::run_epoch_game(cfg);
  print_series(ctx, series);
  print(ctx.os(),
        "\nreading: the sharing norm is bistable under imitation. From "
        "moderate free-rider prevalence, paid first-hop income beats the "
        "bandwidth cost and the population converges to (nearly) full "
        "sharing — try initial_free_riders=0.5 to watch the other basin: "
        "with most routes refused, income concentrates so hard that the "
        "median sharer loses money and imitation tips the network into "
        "collapse. Incentives sustain sharing; they don't resurrect it "
        "(the network-effect result of 'You Share, I Share'). The Gini "
        "columns show fairness once behavior, not just topology, is "
        "endogenous.\n");
  write_series_file(ctx, "agents_equilibrium.json", "equilibrium",
                    {&series, 1});
  return 0;
}

int scenario_invasion(ScenarioContext& ctx) {
  banner(ctx.os(), "Adaptive agents: free-rider invasion vs incentives");
  core::ExperimentConfig cfg = agents_config(ctx, "invasion");
  if (!ctx.args.has("initial_free_riders")) {
    cfg.agents.initial_free_riders = 0.1;
  }
  if (!ctx.args.has("dynamics")) cfg.agents.dynamics = "best-response";

  // Both regimes play on one built overlay: the epoch loops reuse its
  // compiled router and edge-ledger arenas across every epoch of both
  // runs (Simulation::reset — nothing is rebuilt).
  const overlay::Topology topo = core::build_topology(cfg);

  core::ExperimentConfig paid = cfg;
  paid.label = "paid (" + cfg.sim.policy + ")";
  core::ExperimentConfig ablated = cfg;
  ablated.sim.policy = "none";
  ablated.label = "no-payment";

  std::vector<agents::EpochSeries> runs;
  for (const auto* regime : {&paid, &ablated}) {
    print(ctx.os(), "\nrunning %s: %zu epochs x %zu files, dynamics=%s, "
                    "initial free riders %.2f...\n",
          regime->label.c_str(), regime->agents.epochs,
          regime->agents.files_per_epoch, regime->agents.dynamics.c_str(),
          regime->agents.initial_free_riders);
    ctx.os().flush();
    agents::EpochDriver driver(topo, *regime);
    runs.push_back(driver.run());
    print_series(ctx, runs.back());
  }

  const double initial = cfg.agents.initial_free_riders;
  const double paid_end = runs[0].final_prevalence;
  const double ablated_end = runs[1].final_prevalence;
  const char* paid_verdict =
      paid_end <= initial / 2 ? "invasion repelled" : "invasion NOT repelled";
  const char* ablated_verdict =
      ablated_end >= 0.99 ? "free-riding spread to fixation"
      : ablated_end > initial
          ? "free-riding spreading toward fixation (raise epochs=)"
          : "free-riding NOT spreading";
  print(ctx.os(),
        "\nverdict: with payments, final free-rider prevalence %.3f — %s; "
        "with the policy ablated, %.3f — %s. SWAP's bandwidth incentives "
        "are what keeps sharing an evolutionarily stable strategy.\n",
        paid_end, paid_verdict, ablated_end, ablated_verdict);
  write_series_file(ctx, "agents_invasion.json", "invasion", runs);
  return 0;
}

}  // namespace

void register_agent_scenarios() {
  ScenarioRegistry& registry = ScenarioRegistry::instance();
  registry.add({"equilibrium",
                "epoch-based strategy evolution to a sharing equilibrium "
                "(agents extension)",
                0, &scenario_equilibrium, kAgentKeys});
  registry.add({"invasion",
                "free-rider invasion, payments on vs ablated (agents "
                "extension)",
                0, &scenario_invasion, kAgentKeys});
}

}  // namespace fairswap::harness
