#include "core/report.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/table.hpp"

namespace fairswap::core {

std::string lorenz_csv(const std::vector<const ExperimentResult*>& results,
                       bool f1_curve) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.cells("label", "population_share", "value_share");
  for (const auto* r : results) {
    const auto& curve =
        f1_curve ? r->fairness.lorenz_f1 : r->fairness.lorenz_f2;
    for (const auto& p : curve) {
      csv.cells(r->config.label, p.population_share, p.value_share);
    }
  }
  return out.str();
}

std::string totals_csv(const std::vector<const ExperimentResult*>& results) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.cells("label", "files", "chunk_requests", "delivered", "refused",
            "failed_routes", "truncated_routes", "local_hits",
            "total_transmissions", "routing_success");
  for (const auto* r : results) {
    const auto& t = r->totals;
    csv.cells(r->config.label, t.files, t.chunk_requests, t.delivered,
              t.refused, t.failed_routes, t.truncated_routes, t.local_hits,
              t.total_transmissions, r->routing_success);
  }
  return out.str();
}

std::vector<Histogram> served_histograms(
    const std::vector<const ExperimentResult*>& results, std::size_t bins) {
  std::uint64_t max_served = 0;
  for (const auto* r : results) {
    for (const std::uint64_t v : r->served_per_node) {
      max_served = std::max(max_served, v);
    }
  }
  std::vector<Histogram> out;
  out.reserve(results.size());
  for (const auto* r : results) {
    Histogram h(0.0, static_cast<double>(max_served) + 1.0, bins);
    for (const std::uint64_t v : r->served_per_node) {
      h.add(static_cast<double>(v));
    }
    out.push_back(std::move(h));
  }
  return out;
}

std::string summarize_result(const ExperimentResult& r) {
  std::ostringstream out;
  out << r.config.label << ": " << r.totals.files << " files, "
      << r.totals.chunk_requests << " chunk requests, "
      << r.totals.total_transmissions << " transmissions\n"
      << "  avg forwarded chunks/node: "
      << TextTable::num(r.avg_forwarded_chunks, 1) << "\n"
      << "  Gini F2 (income):          "
      << TextTable::num(r.fairness.gini_f2, 4) << "\n"
      << "  Gini F1 (serve/paid):      "
      << TextTable::num(r.fairness.gini_f1, 4) << "\n"
      << "  routing success:           "
      << TextTable::num(100.0 * r.routing_success, 2) << "% ("
      << r.totals.failed_routes << " dead ends, " << r.totals.truncated_routes
      << " hop-capped)\n"
      << "  runtime:                   "
      << TextTable::num(r.runtime_seconds, 2) << "s\n";
  return out.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(p);
  out << content;
  out.close();  // surfaces a failed final flush, not only a failed open
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace fairswap::core
