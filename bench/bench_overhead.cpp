// Extension: overhead measurement (§V future-work thread 1).
//
// "We demonstrated that with k=20 the Gini coefficient approaches a
// smaller value, but we did not identify the produced overhead in terms
// of extra bandwidth consumption. There should be a trade-off between the
// quantity of overhead generated and the amount of money received."
//
// This bench quantifies, for every paper configuration:
//  * total bandwidth (chunk transmissions) vs paid bandwidth,
//  * the unpaid-forwarding overhang (SWAP debt left to amortization),
//  * income per transmitted chunk — the "money received per overhead".
#include <cstdio>
#include <sstream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace fairswap;
  const auto args = bench::BenchArgs::parse(argc, argv, 2'000);

  bench::banner("Extension: overhead vs reward (the SWAP trade-off)");
  const auto results = bench::run_paper_grid(args);

  TextTable table({"configuration", "transmissions", "paid serves",
                   "paid share", "unsettled debt (units)",
                   "income / transmission"});
  std::ostringstream csv_text;
  CsvWriter csv(csv_text);
  csv.cells("label", "transmissions", "paid_serves", "paid_share",
            "outstanding_debt", "income_per_transmission");
  for (const auto& r : results) {
    std::uint64_t paid = 0;
    for (const auto v : r.first_hop_per_node) paid += v;
    const double paid_share =
        static_cast<double>(paid) /
        static_cast<double>(r.totals.total_transmissions);
    const double income_per_tx =
        r.total_income / static_cast<double>(r.totals.total_transmissions);
    table.add_row({r.config.label, std::to_string(r.totals.total_transmissions),
                   std::to_string(paid), TextTable::num(paid_share, 3),
                   TextTable::num(r.outstanding_debt, 0),
                   TextTable::num(income_per_tx, 1)});
    csv.cells(r.config.label, r.totals.total_transmissions, paid, paid_share,
              r.outstanding_debt, income_per_tx);
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nreading: only the first hop of every route is paid; with "
              "k=20 routes are shorter, so a larger share of transmissions "
              "is paid work — more money per unit of bandwidth overhead.\n");

  core::write_text_file(args.out_dir + "/overhead.csv", csv_text.str());
  std::printf("wrote %s/overhead.csv\n", args.out_dir.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
