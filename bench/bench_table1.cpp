// Table I reproduction — now the registered harness scenario "table1"
// (src/harness/paper_scenarios.cpp, where the paper reference values are
// documented). This binary is a thin alias kept for existing scripts:
// `bench_table1 files=2000` == `fairswap_run table1 files=2000`, byte for
// byte (pinned by tests/harness/scenario_equivalence_test.cpp).
#include <exception>
#include <iostream>

#include "harness/scenario.hpp"

int main(int argc, char** argv) try {
  return fairswap::harness::run_scenario("table1", argc, argv, std::cout);
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
