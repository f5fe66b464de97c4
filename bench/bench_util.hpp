// Shared helpers for the benchmark harnesses. Every table/figure bench:
//  * accepts "files=<n> seed=<n> out=<dir>" overrides on the command line,
//  * prints the paper's reference numbers next to the measured ones,
//  * writes its plot-ready series as CSV under <out>/ (default bench_out/).
#pragma once

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/log.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenarios.hpp"
#include "harness/plan.hpp"

namespace fairswap::bench {

/// Command-line settings shared by all harnesses. Carries the parsed
/// Config so benches read their extra keys from `args.cfg` instead of
/// re-parsing argv a second time.
struct BenchArgs {
  Config cfg;
  std::size_t files{10'000};
  std::uint64_t seed{kDefaultSeed};
  std::string out_dir{"bench_out"};

  /// Reads the shared keys (files/seed/out/verbose). `own_keys` names the
  /// keys the main reads from `cfg` itself; any other key, or a malformed
  /// value, throws std::invalid_argument, which the main turns into
  /// exit 2 before any run.
  static BenchArgs parse(int argc, char** argv,
                         std::size_t default_files = 10'000,
                         std::vector<std::string> own_keys = {}) {
    BenchArgs args;
    args.cfg = Config::from_args(argc, argv);
    own_keys.insert(own_keys.end(), {"files", "seed", "out", "verbose"});
    args.cfg.require_known(own_keys);
    args.files = args.cfg.get_u64("files", default_files);
    args.seed = args.cfg.get_u64("seed", kDefaultSeed);
    args.out_dir = args.cfg.get_string("out", "bench_out");
    if (args.cfg.get_bool("verbose", false)) Log::set_level(LogLevel::kInfo);
    return args;
  }
};

/// Prints a section header.
inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Runs the paper's 2x2 grid: (k=4,20%), (k=4,100%), (k=20,20%),
/// (k=20,100%) through the harness grid runner, which shares one built
/// topology per k — mirroring the paper's reuse of one overlay across
/// simulations.
inline std::vector<core::ExperimentResult> run_paper_grid(
    const BenchArgs& args) {
  return harness::run_grid(core::paper_grid(args.files, args.seed),
                           [&](const core::ExperimentConfig& cfg) {
                             std::printf("running %s (%zu files)...\n",
                                         cfg.label.c_str(), args.files);
                             std::fflush(stdout);
                           });
}

/// Convenience: result pointer view for report helpers.
inline std::vector<const core::ExperimentResult*> as_ptrs(
    const std::vector<core::ExperimentResult>& results) {
  std::vector<const core::ExperimentResult*> ptrs;
  ptrs.reserve(results.size());
  for (const auto& r : results) ptrs.push_back(&r);
  return ptrs;
}

}  // namespace fairswap::bench
