// Seed-variance analysis — now the registered harness scenario "variance"
// (src/harness/paper_scenarios.cpp). This binary is a thin alias kept for
// existing scripts: `bench_variance files=500 seeds=3` == `fairswap_run
// variance files=500 seeds=3`, byte for byte (pinned by
// tests/harness/scenario_equivalence_test.cpp).
#include <exception>
#include <iostream>

#include "harness/scenario.hpp"

int main(int argc, char** argv) try {
  return fairswap::harness::run_scenario("variance", argc, argv, std::cout);
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
