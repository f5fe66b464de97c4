// Ablation: enlarging only bucket zero.
//
// §V: "it is interesting to see what happens in payment distribution if
// we only increase the k for a particular bucket, e.g., bucket zero."
// Zero-proximity payments flow to first hops, and for a uniformly chosen
// chunk the first hop is in bucket 0 about half the time — so widening
// only bucket 0 should recover much of the k=20 fairness gain at a
// fraction of the connection cost.
#include <cstdio>
#include <numeric>
#include <sstream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "overlay/graph_metrics.hpp"

int main(int argc, char** argv) try {
  using namespace fairswap;
  const auto args = bench::BenchArgs::parse(argc, argv, 2'000);

  bench::banner("Ablation: increasing k for bucket 0 only (base k=4)");

  TextTable table({"k_bucket0", "Gini F2", "Gini F1", "avg forwarded",
                   "avg out-degree"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("k_bucket0", "gini_f2", "gini_f1", "avg_forwarded",
            "avg_out_degree");

  for (const std::size_t k0 : {4u, 8u, 16u, 20u, 32u}) {
    auto cfg = core::paper_config(4, 0.2, args.files, args.seed);
    cfg.topology.buckets.k_bucket0 = k0;
    cfg.label = "k=4, bucket0=" + std::to_string(k0);
    std::printf("running %s...\n", cfg.label.c_str());
    std::fflush(stdout);
    const auto topo = core::build_topology(cfg);
    const auto result = core::run_experiment(topo, cfg);
    const auto degrees = overlay::out_degrees(topo);
    const double avg_degree =
        static_cast<double>(
            std::accumulate(degrees.begin(), degrees.end(), std::uint64_t{0})) /
        static_cast<double>(degrees.size());
    table.add_row({std::to_string(k0),
                   TextTable::num(result.fairness.gini_f2, 4),
                   TextTable::num(result.fairness.gini_f1, 4),
                   TextTable::num(result.avg_forwarded_chunks, 0),
                   TextTable::num(avg_degree, 1)});
    csv.cells(k0, result.fairness.gini_f2, result.fairness.gini_f1,
              result.avg_forwarded_chunks, avg_degree);
  }
  std::printf("%s", table.render().c_str());
  core::write_text_file(args.out_dir + "/ablation_bucket0.csv", csv_text.str());
  std::printf("wrote %s/ablation_bucket0.csv\n", args.out_dir.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
