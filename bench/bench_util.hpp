// Shared helpers for bench_multi_run and bench_scale, the determinism and
// scale checks. Each accepts "files=<n> seed=<n> out=<dir>" overrides on
// the command line and writes its CSV and JSON under <out>/ (default
// bench_out/). The paper tables and figures are fairswap_run scenarios
// (src/harness/paper_scenarios.cpp).
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

/// Convenience: result pointer view for report helpers.
inline std::vector<const core::ExperimentResult*> as_ptrs(
    const std::vector<core::ExperimentResult>& results) {
  std::vector<const core::ExperimentResult*> ptrs;
  ptrs.reserve(results.size());
  for (const auto& r : results) ptrs.push_back(&r);
  return ptrs;
}

}  // namespace fairswap::bench
