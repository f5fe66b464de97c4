// Fig. 4 reproduction — now the registered harness scenario "fig4"
// (src/harness/paper_scenarios.cpp, where the paper claims are
// documented). This binary is a thin alias kept for existing scripts:
// `bench_fig4 files=2000` == `fairswap_run fig4 files=2000`, byte for
// byte (pinned by tests/harness/scenario_equivalence_test.cpp).
#include <exception>
#include <iostream>

#include "harness/scenario.hpp"

int main(int argc, char** argv) try {
  return fairswap::harness::run_scenario("fig4", argc, argv, std::cout);
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
