// Free-riding extension (§V future-work thread 2) — now the registered
// harness scenario "free_riders" (src/harness/paper_scenarios.cpp). This
// binary is a thin alias kept for existing scripts: `bench_free_riders
// files=500` == `fairswap_run free_riders files=500`, byte for byte
// (pinned by tests/harness/scenario_equivalence_test.cpp).
#include <exception>
#include <iostream>

#include "harness/scenario.hpp"

int main(int argc, char** argv) try {
  return fairswap::harness::run_scenario("free_riders", argc, argv, std::cout);
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
