// Extension: fairness and availability under churn.
//
// The paper's tables are static ("routing tables remain static for the
// entirety of the experiments") and its introduction lists "coping with
// the network churn" among the open challenges. This bench fails a
// fraction of nodes mid-experiment, routes around them with lazy dead-peer
// discovery, and measures delivery success, detour overhead, and what the
// survivors' income distribution looks like — before and after table
// repair.
#include <cstdio>
#include <sstream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/gini.hpp"
#include "common/table.hpp"
#include "overlay/churn.hpp"

namespace {

using namespace fairswap;

struct ChurnOutcome {
  std::size_t alive{0};
  double success_rate{0.0};
  double mean_hops{0.0};
  double gini_income{0.0};
  std::uint64_t dead_encounters{0};
};

ChurnOutcome run_phase(overlay::DynamicOverlay& overlay, Rng& rng,
                       std::size_t requests) {
  const auto& topo = overlay.topology();
  std::vector<double> income(topo.node_count(), 0.0);
  const auto pricer = accounting::make_pricer("xor-distance");
  const auto dead_before = overlay.stats().dead_peer_encounters;
  std::uint64_t ok = 0;
  RunningStats hops;
  for (std::size_t i = 0; i < requests; ++i) {
    overlay::NodeIndex origin;
    do {
      origin = static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
    } while (!overlay.alive(origin));
    const Address chunk{
        static_cast<AddressValue>(rng.next_below(topo.space().size()))};
    const auto route = overlay.route(origin, chunk);
    if (!route.reached_storer) continue;
    ++ok;
    hops.add(static_cast<double>(route.hops()));
    if (route.hops() > 0) {
      income[route.first_hop()] += static_cast<double>(
          pricer->price(topo.space(), topo.address_of(route.first_hop()), chunk)
              .base_units());
    }
  }
  ChurnOutcome out;
  out.alive = overlay.alive_count();
  out.success_rate = static_cast<double>(ok) / static_cast<double>(requests);
  out.mean_hops = hops.mean();
  // Income Gini over alive nodes only (dead nodes cannot earn).
  std::vector<double> alive_income;
  for (overlay::NodeIndex n = 0; n < topo.node_count(); ++n) {
    if (overlay.alive(n)) alive_income.push_back(income[n]);
  }
  out.gini_income = gini(std::span<const double>(alive_income));
  out.dead_encounters = overlay.stats().dead_peer_encounters - dead_before;
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace fairswap;
  const auto args = bench::BenchArgs::parse(argc, argv, 10'000, {"requests"});
  const auto requests = args.cfg.get_u64("requests", 200'000, /*min=*/1);

  bench::banner("Extension: routing & fairness under churn (k=4, 1000 nodes)");

  TextTable table({"phase", "alive", "success", "mean hops", "Gini F2 (alive)",
                   "dead-peer hits"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("phase", "churn_share", "alive", "success_rate", "mean_hops",
            "gini_income_alive", "dead_peer_hits");

  for (const double churn : {0.1, 0.3, 0.5}) {
    overlay::TopologyConfig tcfg;
    tcfg.node_count = 1000;
    tcfg.address_bits = 16;
    tcfg.buckets.k = 4;
    Rng trng(args.seed);
    overlay::DynamicOverlay overlay(overlay::Topology::build(tcfg, trng));
    Rng rng(args.seed + 1);

    const auto healthy = run_phase(overlay, rng, requests);
    overlay.fail_random(static_cast<std::size_t>(churn * 1000), rng);
    const auto churned = run_phase(overlay, rng, requests);
    overlay.repair_all(rng);
    const auto repaired = run_phase(overlay, rng, requests);

    const std::string tag = TextTable::num(100 * churn, 0) + "% churn";
    auto emit = [&](const char* phase, const ChurnOutcome& o) {
      table.add_row({tag + ", " + phase,
                     std::to_string(o.alive),
                     TextTable::num(100 * o.success_rate, 2) + "%",
                     TextTable::num(o.mean_hops, 2),
                     TextTable::num(o.gini_income, 4),
                     std::to_string(o.dead_encounters)});
      csv.cells(phase, churn, o.alive, o.success_rate,
                o.mean_hops, o.gini_income, o.dead_encounters);
    };
    emit("healthy", healthy);
    emit("churned", churned);
    emit("repaired", repaired);
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nreading: dead relays force detours (or failures) until "
              "tables are repaired; repair restores both availability and "
              "route length. The income Gini among survivors shifts because "
              "responsibility regions of failed nodes fall to their "
              "neighbors.\n");
  core::write_text_file(args.out_dir + "/churn.csv", csv_text.str());
  std::printf("wrote %s/churn.csv\n", args.out_dir.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
