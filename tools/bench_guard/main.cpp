// CLI for the perf-drift gate.
//
//   bench_guard <baseline.json> <fresh.json> [--tolerance=0.5]
//
// Compares the hot-path cost ratios (routing and ledger over their test
// oracles, the flow and workload overheads) of a fresh
// fairswap.bench_scale.v1 document against the committed baseline. Exit 0 when every compared metric is within the
// tolerance band (or faster), 1 on drift, 2 on usage/parse errors — a
// malformed document can never masquerade as a clean gate.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

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

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  fairswap::guard::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (arg.rfind("--tolerance=", 0) == 0) {
      try {
        options.tolerance = std::stod(arg.substr(12));
      } catch (...) {
        std::cerr << "bench_guard: malformed " << arg << "\n";
        return 2;
      }
      if (options.tolerance < 0) {
        std::cerr << "bench_guard: tolerance must be >= 0\n";
        return 2;
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "bench_guard: unknown option " << arg << "\n";
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.size() != 2) {
    usage(std::cerr);
    return 2;
  }

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
}
