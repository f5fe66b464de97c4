// Fairness explorer — the configurable analysis tool the paper promises
// ("We present a tool to analyze reward mechanisms in Kademlia based
// networks"). Every simulator knob is a binding-table key, the same keys
// `fairswap_run list` prints and sweeps take:
//
//   $ ./fairness_explorer nodes=1000 bits=16 k=4 k_bucket0=0 files=2000
//         originators=0.2 policy=zero-proximity pricer=xor-distance
//         cache=0 free_riders=0.0 catalog_zipf=0.8 catalog=0 seed=42
//
// Prints the full fairness report plus the per-node distribution tables;
// csv=FILE also writes the income Lorenz curve.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/histogram.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "harness/binding.hpp"

int main(int argc, char** argv) try {
  using namespace fairswap;
  const Config args = Config::from_args(argc, argv);

  core::ExperimentConfig cfg;
  cfg.files = 2000;
  const std::vector<std::string> reserved = {"csv"};
  harness::apply_and_validate(cfg, args, reserved);
  const std::string csv_path = args.get_string("csv", "");
  cfg.label = "explorer(k=" + std::to_string(cfg.topology.buckets.k) +
              ", policy=" + cfg.sim.policy + ")";

  std::printf("config: nodes=%zu bits=%d k=%zu files=%zu originators=%.2f "
              "policy=%s pricer=%s cache=%zu free_riders=%.2f\n",
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

  if (!csv_path.empty()) {
    core::write_text_file(csv_path, core::lorenz_csv({&result}, false));
    std::printf("\nwrote Lorenz CSV to %s\n", csv_path.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
