// Fairness explorer — the configurable analysis tool the paper promises
// ("We present a tool to analyze reward mechanisms in Kademlia based
// networks"). Every knob of the simulator is exposed on the command line:
//
//   $ ./fairness_explorer nodes=1000 bits=16 k=4 k0=0 files=2000
//         share=0.2 policy=zero-proximity pricer=xor-distance
//         cache=0 riders=0.0 zipf=0.0 catalog=0 seed=42
//
// Prints the full fairness report plus the per-node distribution tables.
#include <cstdio>
#include <exception>
#include <string>

#include "common/config.hpp"
#include "common/histogram.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"

int main(int argc, char** argv) try {
  using namespace fairswap;
  const Config args = Config::from_args(argc, argv);

  core::ExperimentConfig cfg;
  cfg.topology.node_count = args.get_or("nodes", std::uint64_t{1000});
  cfg.topology.address_bits =
      static_cast<int>(args.get_or("bits", std::int64_t{16}));
  cfg.topology.buckets.k = args.get_or("k", std::uint64_t{4});
  cfg.topology.buckets.k_bucket0 = args.get_or("k0", std::uint64_t{0});
  cfg.sim.workload.originator_share = args.get_or("share", 1.0);
  cfg.sim.workload.min_chunks_per_file =
      args.get_or("min_chunks", std::uint64_t{100});
  cfg.sim.workload.max_chunks_per_file =
      args.get_or("max_chunks", std::uint64_t{1000});
  cfg.sim.workload.catalog_size = args.get_or("catalog", std::uint64_t{0});
  cfg.sim.workload.catalog_zipf_alpha = args.get_or("zipf", 0.8);
  cfg.sim.policy = args.get_or("policy", std::string{"zero-proximity"});
  cfg.sim.pricer = args.get_or("pricer", std::string{"xor-distance"});
  cfg.sim.cache_capacity = args.get_or("cache", std::uint64_t{0});
  cfg.sim.free_rider_share = args.get_or("riders", 0.0);
  cfg.files = args.get_or("files", std::uint64_t{2000});
  cfg.seed = args.get_or("seed", kDefaultSeed);
  if (const std::string error = args.last_error(); !error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  cfg.label = "explorer(k=" + std::to_string(cfg.topology.buckets.k) +
              ", policy=" + cfg.sim.policy + ")";

  std::printf("config: nodes=%zu bits=%d k=%zu files=%zu share=%.2f "
              "policy=%s pricer=%s cache=%zu riders=%.2f\n",
              cfg.topology.node_count, cfg.topology.address_bits,
              cfg.topology.buckets.k, cfg.files,
              cfg.sim.workload.originator_share, cfg.sim.policy.c_str(),
              cfg.sim.pricer.c_str(), cfg.sim.cache_capacity,
              cfg.sim.free_rider_share);

  const auto result = core::run_experiment(cfg);
  std::printf("\n%s", core::summarize_result(result).c_str());

  std::printf(
      "\nper-node forwarded-chunk distribution:\n%s",
      histogram_of(std::span<const std::uint64_t>(result.served_per_node), 16)
          .render(48)
          .c_str());

  std::printf("\nincome distribution (token base units):\n");
  std::vector<std::uint64_t> income_units;
  income_units.reserve(result.income_per_node.size());
  for (const double v : result.income_per_node) {
    income_units.push_back(static_cast<std::uint64_t>(v));
  }
  std::printf("%s",
              histogram_of(std::span<const std::uint64_t>(income_units), 16)
                  .render(48)
                  .c_str());

  if (const auto csv = args.get("csv")) {
    core::write_text_file(*csv, core::lorenz_csv({&result}, false));
    std::printf("\nwrote Lorenz CSV to %s\n", csv->c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
