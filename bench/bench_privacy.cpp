// Baseline comparison: forwarding Kademlia vs classic iterative Kademlia.
//
// §III-A motivates Swarm's forwarding scheme: "For the lookup procedure in
// Kademlia, the node that generated the request repeatedly contacts other
// nodes ... In this way, all involved nodes learn the requester's
// identity. Forwarding Kademlia improves privacy and prevents censorship,
// since nodes cannot distinguish the originator of a request."
//
// This bench quantifies that trade across bucket sizes: how many nodes
// learn the requester per lookup (identity exposure), how many RPCs each
// scheme costs, and whether both find the storer.
#include <cstdio>
#include <sstream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "overlay/compiled_router.hpp"
#include "overlay/iterative.hpp"

int main(int argc, char** argv) try {
  using namespace fairswap;
  const auto args = bench::BenchArgs::parse(argc, argv, 10'000, {"lookups"});
  const auto lookups = args.cfg.get_u64("lookups", 20'000, /*min=*/1);

  bench::banner("Baseline: forwarding vs iterative Kademlia (privacy & cost)");

  TextTable table({"scheme", "k", "success", "identity exposure / lookup",
                   "messages / lookup"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("scheme", "k", "success_rate", "exposure_mean", "messages_mean");

  for (const std::size_t k : {std::size_t{4}, std::size_t{20}}) {
    overlay::TopologyConfig tcfg;
    tcfg.node_count = 1000;
    tcfg.address_bits = 16;
    tcfg.buckets.k = k;
    Rng trng(args.seed);
    const auto topo = overlay::Topology::build(tcfg, trng);
    const overlay::CompiledRouter& router = topo.compiled();
    const overlay::IterativeLookup lookup(topo);

    RunningStats fw_exposure, fw_messages, it_exposure, it_messages;
    std::uint64_t fw_ok = 0, it_ok = 0;
    Rng rng(args.seed + k);
    for (std::uint64_t i = 0; i < lookups; ++i) {
      const auto origin =
          static_cast<overlay::NodeIndex>(rng.index(topo.node_count()));
      const Address chunk{
          static_cast<AddressValue>(rng.next_below(topo.space().size()))};

      const auto route = router.route(origin, chunk);
      if (route.reached_storer) ++fw_ok;
      // Forwarding: only the first hop ever talks to the requester, and it
      // cannot tell a requester from a relay.
      fw_exposure.add(0.0);
      fw_messages.add(static_cast<double>(2 * route.hops()));

      const auto result = lookup.lookup(origin, chunk);
      if (result.found_storer) ++it_ok;
      it_exposure.add(static_cast<double>(result.contacted.size()));
      it_messages.add(static_cast<double>(result.messages));
    }

    auto row = [&](const char* scheme, std::uint64_t ok,
                   const RunningStats& exposure, const RunningStats& msgs) {
      table.add_row({scheme, std::to_string(k),
                     TextTable::num(100.0 * static_cast<double>(ok) /
                                        static_cast<double>(lookups), 2) + "%",
                     TextTable::num(exposure.mean(), 2),
                     TextTable::num(msgs.mean(), 2)});
      csv.cells(scheme, k,
                static_cast<double>(ok) / static_cast<double>(lookups),
                exposure.mean(), msgs.mean());
    };
    row("forwarding", fw_ok, fw_exposure, fw_messages);
    row("iterative", it_ok, it_exposure, it_messages);
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nreading: iterative lookups expose the requester to every "
              "contacted node (~alpha x rounds of them); forwarding exposes "
              "it to none — relays cannot distinguish an originator from "
              "another relay. The price is per-hop forwarding work, which is "
              "exactly what the bandwidth incentive pays for.\n");
  core::write_text_file(args.out_dir + "/privacy.csv", csv_text.str());
  std::printf("wrote %s/privacy.csv\n", args.out_dir.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
