// CLI for the perf-drift gate.
//
//   bench_guard <baseline.json> <fresh.json> [--tolerance=0.5]
//
// Compares the hot-path cost ratios (routing and ledger over their test
// oracles, the flow and workload overheads) of a fresh
// fairswap.bench_scale.v1 document against the committed baseline. Exit
// 0 when every compared metric is within the tolerance band (or faster),
// 1 on drift, 2 on usage/parse errors — a malformed document can never
// masquerade as a clean gate. Arguments are read with common/config's
// grammar, as in every other binary: a tolerance that is not a finite
// decimal (nan, inf, 0.5abc) or an unknown key exits 2.
#include <algorithm>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "guard.hpp"

namespace {

void usage(std::ostream& out) {
  out << "usage: bench_guard <baseline.json> <fresh.json> "
         "[--tolerance=0.5]\n"
         "exit 0: within band, 1: drift, 2: usage or parse error\n";
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  const auto is_help = [](std::string_view arg) {
    return arg == "--help" || arg == "-h";
  };
  if (std::any_of(argv + 1, argv + argc, is_help)) {
    usage(std::cout);
    return 0;
  }
  const fairswap::Config args = fairswap::Config::from_args(argc, argv);
  args.require_known({"tolerance"});
  const std::vector<std::string>& paths = args.positional();
  if (paths.size() != 2) {
    usage(std::cerr);
    return 2;
  }
  fairswap::guard::Options options;
  options.tolerance = args.get_double("tolerance", options.tolerance);

  std::string baseline_json;
  std::string fresh_json;
  if (!read_file(paths[0], baseline_json)) {
    std::cerr << "bench_guard: cannot read baseline " << paths[0] << "\n";
    return 2;
  }
  if (!read_file(paths[1], fresh_json)) {
    std::cerr << "bench_guard: cannot read fresh document " << paths[1]
              << "\n";
    return 2;
  }

  const fairswap::guard::GuardResult result =
      fairswap::guard::compare(baseline_json, fresh_json, options);
  if (!result.error.empty()) {
    std::cerr << "bench_guard: " << result.error << "\n";
    return 2;
  }
  for (const auto& drift : result.drifts) {
    std::cout << "DRIFT: " << fairswap::guard::format(drift, options) << "\n";
  }
  std::cout << "bench_guard: " << result.compared << " metrics compared, "
            << result.drifts.size() << " drifted (tolerance "
            << options.tolerance << ")\n";
  return result.drifts.empty() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "bench_guard: " << e.what() << "\n";
  return 2;
}
