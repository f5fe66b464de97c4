// Paired comparison via trace replay: record one workload, replay it
// bit-identically against k=4 and k=20 topologies, and diff the outcomes
// per configuration — the experimental design behind the paper's
// cross-configuration comparisons ("Our tool allows to use the same
// overlay for multiple simulations ... random numbers are generated using
// the same seed to ensure consistency throughout all experiments").
//
// Replaying one trace removes workload noise entirely: every difference
// in the table below is caused by the bucket size alone.
#include <cstdio>
#include <exception>
#include <string>

#include "common/config.hpp"
#include "common/gini.hpp"
#include "common/table.hpp"
#include "core/simulation.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) try {
  using namespace fairswap;
  const Config args = Config::from_args(argc, argv);
  args.require_known({"files", "nodes"});
  const auto files = args.get_u64("files", 500);
  const auto nodes = args.get_u64("nodes", 1000);

  // 1) Record one workload trace against a throwaway topology.
  overlay::TopologyConfig base_cfg;
  base_cfg.node_count = nodes;
  base_cfg.address_bits = 16;
  base_cfg.buckets.k = 4;
  Rng trace_topo_rng(kDefaultSeed);
  const auto trace_topo = overlay::Topology::build(base_cfg, trace_topo_rng);

  workload::WorkloadConfig wl;
  wl.originator_share = 0.2;
  workload::DownloadGenerator gen(trace_topo, wl, Rng(2022));
  workload::TraceRecorder recorder;
  for (std::uint64_t f = 0; f < files; ++f) recorder.record(gen.next());
  std::printf("recorded a trace of %zu file downloads (%zu bytes as CSV)\n\n",
              recorder.size(), recorder.to_csv().size());

  // 2) Replay the identical trace against both bucket sizes.
  TextTable table({"k", "transmissions", "Gini F2", "Gini F1 (count)",
                   "paid serves"});
  const auto trace = workload::trace_from_csv(recorder.to_csv());
  for (const std::size_t k : {std::size_t{4}, std::size_t{20}}) {
    overlay::TopologyConfig cfg = base_cfg;
    cfg.buckets.k = k;
    Rng topo_rng(kDefaultSeed);  // same node addresses, different tables
    const auto topo = overlay::Topology::build(cfg, topo_rng);
    core::SimulationConfig sim_cfg;
    core::Simulation sim(topo, sim_cfg, Rng(1));
    for (const auto& request : trace) sim.apply(request);

    const auto income = sim.income_per_node();
    const auto served = sim.served_per_node();
    const auto first = sim.first_hop_per_node();
    std::uint64_t paid = 0;
    for (const auto v : first) paid += v;
    std::vector<double> ratios;
    for (std::size_t i = 0; i < served.size(); ++i) {
      if (first[i] > 0) {
        ratios.push_back(static_cast<double>(served[i]) /
                         static_cast<double>(first[i]));
      }
    }
    table.add_row({std::to_string(k),
                   std::to_string(sim.totals().total_transmissions),
                   TextTable::num(gini(std::span<const double>(income)), 4),
                   TextTable::num(gini(std::span<const double>(ratios)), 4),
                   std::to_string(paid)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nsame chunks, same originators, same order — the fairness "
              "gap is attributable to the routing-table width k alone.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
