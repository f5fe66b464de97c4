// Fig. 5 reproduction: "F2 property using Lorenz curve and the Gini
// coefficient for 10000 file downloads" — income fairness across the 2x2
// grid.
//
// Claims to reproduce:
//  * k=20 yields a more equitable income distribution (lower Gini) for
//    both originator shares.
//  * The paper's conclusion quantifies the improvement at ~7% for F2.
//  * For k=4, the 20%-originator (skewed) workload is even less fair.
#include <cstdio>
#include <sstream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace fairswap;
  const auto args = bench::BenchArgs::parse(argc, argv);

  bench::banner("Fig. 5: F2 (income) Lorenz curves and Gini coefficients");
  const auto results = bench::run_paper_grid(args);

  TextTable table({"configuration", "Gini F2 (income)", "earning nodes"});
  for (const auto& r : results) {
    table.add_row({r.config.label, TextTable::num(r.fairness.gini_f2, 4),
                   std::to_string(r.fairness.earning_nodes)});
  }
  std::printf("%s", table.render().c_str());

  const double delta_20 = (results[0].fairness.gini_f2 -
                           results[2].fairness.gini_f2) /
                          results[0].fairness.gini_f2;
  const double delta_100 = (results[1].fairness.gini_f2 -
                            results[3].fairness.gini_f2) /
                           results[1].fairness.gini_f2;
  std::printf("\nGini F2 reduction from k=4 to k=20: %.1f%% at 20%% "
              "originators, %.1f%% at 100%% (paper: ~7%%)\n",
              100.0 * delta_20, 100.0 * delta_100);
  std::printf("skew check (k=4): Gini %.4f at 20%% vs %.4f at 100%% "
              "originators (paper: skewed workload is less fair)\n",
              results[0].fairness.gini_f2, results[1].fairness.gini_f2);

  core::write_text_file(args.out_dir + "/fig5_lorenz_f2.csv",
                        core::lorenz_csv(bench::as_ptrs(results), false));
  std::printf("wrote %s/fig5_lorenz_f2.csv\n", args.out_dir.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
