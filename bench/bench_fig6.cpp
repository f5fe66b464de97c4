// Fig. 6 reproduction: "Lorenz curve and Gini coefficient for correlation
// of total forwarded chunks and forwarded chunks as the first hop" — the
// F1 (reward-proportionality) property.
//
// Per the paper's method: for every node that received payment (served at
// least once as the zero-proximity first hop), compute the ratio of total
// chunks served to paid chunks served; report the Gini of those ratios.
//
// Claims to reproduce:
//  * k=20 with 100% originators is "very close to entire equity".
//  * k=4 with 20% originators rewards bandwidth most unevenly.
//  * The paper's conclusion quantifies the k=20 improvement at ~6%.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace fairswap;
  const auto args = bench::BenchArgs::parse(argc, argv);

  bench::banner("Fig. 6: F1 (serve/paid ratio) Lorenz curves and Gini");
  const auto results = bench::run_paper_grid(args);

  TextTable table({"configuration", "Gini F1", "Gini F1 (token income)",
                   "rewarded nodes"});
  for (const auto& r : results) {
    table.add_row({r.config.label, TextTable::num(r.fairness.gini_f1, 4),
                   TextTable::num(r.fairness.gini_f1_income, 4),
                   std::to_string(r.fairness.rewarded_nodes)});
  }
  std::printf("%s", table.render().c_str());

  const double delta_20 = (results[0].fairness.gini_f1 -
                           results[2].fairness.gini_f1) /
                          results[0].fairness.gini_f1;
  const double delta_100 = (results[1].fairness.gini_f1 -
                            results[3].fairness.gini_f1) /
                           results[1].fairness.gini_f1;
  std::printf("\nGini F1 reduction from k=4 to k=20: %.1f%% at 20%% "
              "originators, %.1f%% at 100%% (paper: ~6%%)\n",
              100.0 * delta_20, 100.0 * delta_100);
  std::printf("best case k=20/100%%: Gini %.4f (paper: 'very close to "
              "entire equity'); worst case k=4/20%%: Gini %.4f\n",
              results[3].fairness.gini_f1, results[0].fairness.gini_f1);

  core::write_text_file(args.out_dir + "/fig6_lorenz_f1.csv",
                        core::lorenz_csv(bench::as_ptrs(results), true));
  std::printf("wrote %s/fig6_lorenz_f1.csv\n", args.out_dir.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
