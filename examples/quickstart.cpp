// Quickstart: build an overlay, simulate downloads, measure fairness.
//
//   $ ./quickstart [nodes=500] [k=4] [files=1000] [share=0.2]
//
// This is the smallest end-to-end use of the public API: a Topology, a
// Simulation with the paper's default zero-proximity policy, and the
// F1/F2 fairness report.
#include <cstdio>
#include <exception>
#include <string>

#include "common/config.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenarios.hpp"

int main(int argc, char** argv) try {
  using namespace fairswap;
  const Config args = Config::from_args(argc, argv);
  args.require_known({"nodes", "k", "files", "share", "seed"});

  // 1) Describe the experiment. paper_config() gives the paper's 1000-node
  //    setup; here we default to a smaller network for a fast first run.
  core::ExperimentConfig cfg = core::paper_config(
      /*k=*/args.get_u64("k", 4),
      /*originator_share=*/args.get_double("share", 0.2),
      /*files=*/args.get_u64("files", 1000),
      /*seed=*/args.get_u64("seed", kDefaultSeed));
  cfg.topology.node_count = args.get_u64("nodes", 500);
  cfg.label = "quickstart";

  std::printf("simulating %zu file downloads over %zu nodes (k=%zu)...\n",
              cfg.files, cfg.topology.node_count, cfg.topology.buckets.k);

  // 2) Run it. run_experiment builds the topology, runs the simulation and
  //    computes every fairness series the paper reports.
  const core::ExperimentResult result = core::run_experiment(cfg);

  // 3) Read the results.
  std::printf("\n%s", core::summarize_result(result).c_str());

  std::printf("\nLorenz curve of income (F2):\n");
  std::printf("  poorest %%   share of income\n");
  for (const auto& p : result.fairness.lorenz_f2) {
    const int pct = static_cast<int>(p.population_share * 100);
    if (pct % 20 == 0) {
      std::printf("  %3d%%        %5.1f%%\n", pct, p.value_share * 100);
    }
  }
  std::printf("\nA Gini of 0 would mean every node earns the same; 1 means "
              "one node earns everything.\nTry k=20 and compare — that is "
              "the paper's headline experiment.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
