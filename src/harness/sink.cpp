#include "harness/sink.hpp"

namespace fairswap::harness {

namespace {

/// Table cells show "mean ± sd" only when there is seed spread to report.
std::string cell(const RunningStats& stats, std::size_t seeds, int precision) {
  if (seeds > 1) return mean_pm_std(stats, precision);
  return TextTable::num(stats.mean(), precision);
}

}  // namespace

void TableSink::begin(const PlanSummary& plan) {
  (void)plan;
  std::vector<std::string> header{"run",           "Gini F2",
                                  "Gini F1",       "avg forwarded",
                                  "routing success", "total income"};
  // Headline sim-plane counter (docs/OBSERVABILITY.md): payments made.
  header.emplace_back("debits");
  table_.emplace(std::move(header));
}

void TableSink::record(const RunRecord& run) {
  std::vector<std::string> row{run.label,
                               cell(run.metrics.gini_f2, run.seeds, 4),
                               cell(run.metrics.gini_f1, run.seeds, 4),
                               cell(run.metrics.avg_forwarded, run.seeds, 0),
                               cell(run.metrics.routing_success, run.seeds, 4),
                               cell(run.metrics.total_income, run.seeds, 0)};
  row.push_back(
      std::to_string(run.counters.value(telemetry::Counter::kDebits)));
  table_->add_row(std::move(row));
}

void TableSink::end() {
  *out_ << table_->render();
  out_->flush();
}

void CsvSink::begin(const PlanSummary& plan) {
  std::vector<std::string> header{"label"};
  for (const auto& [key, values] : plan.axes) header.push_back(key);
  header.emplace_back("seeds");
  MetricStats{}.for_each([&](const char* name, const RunningStats&) {
    header.push_back(std::string(name) + "_mean");
    header.push_back(std::string(name) + "_sd");
  });
  // Counter columns are exact integer sums over seeds (no mean/sd).
  telemetry::CounterBlock{}.for_each([&](std::string_view name, std::uint64_t) {
    header.emplace_back(name);
  });
  writer_.row(header);
}

void CsvSink::record(const RunRecord& run) {
  std::vector<std::string> row{run.label};
  for (const auto& [key, value] : run.assignment) {
    (void)key;
    row.push_back(value);
  }
  row.push_back(std::to_string(run.seeds));
  run.metrics.for_each([&](const char*, const RunningStats& stats) {
    row.push_back(std::to_string(stats.mean()));
    row.push_back(std::to_string(stats.stddev()));
  });
  run.counters.for_each([&](std::string_view, std::uint64_t value) {
    row.push_back(std::to_string(value));
  });
  writer_.row(row);
}

void JsonSink::begin(const PlanSummary& plan) {
  json_.open();
  json_.field("schema", "fairswap.run.v1");
  json_.field("title", plan.title);
  json_.open("plan");
  json_.field("seeds", plan.seeds);
  json_.field("threads", plan.threads);
  json_.field("run_count", plan.run_count);
  json_.open_list("axes");
  for (const auto& [key, values] : plan.axes) {
    json_.open();
    json_.field("key", key);
    json_.open_list("values");
    for (const std::string& v : values) json_.element(v);
    json_.close_list();
    json_.close();
  }
  json_.close_list();
  json_.open("base");
  for (const auto& [key, value] : plan.base) json_.field(key.c_str(), value);
  json_.close();
  json_.close();
  json_.open_list("runs");
}

void JsonSink::record(const RunRecord& run) {
  json_.open();
  json_.field("label", run.label);
  json_.open("assignment");
  for (const auto& [key, value] : run.assignment) {
    json_.field(key.c_str(), value);
  }
  json_.close();
  json_.field("seeds", run.seeds);
  json_.open("metrics");
  run.metrics.for_each([&](const char* name, const RunningStats& stats) {
    json_.open(name);
    json_.field("mean", stats.mean());
    json_.field("stddev", stats.stddev());
    json_.field("min", stats.min());
    json_.field("max", stats.max());
    json_.close();
  });
  json_.close();
  // Sim plane: exact integer totals over seeds (part of the
  // bit-identity contract). Wall plane: timings, explicitly not.
  json_.open("counters");
  run.counters.for_each([&](std::string_view name, std::uint64_t value) {
    json_.field(std::string(name).c_str(), value);
  });
  json_.close();
  const RunningStats& runtime = run.metrics.runtime_s;
  json_.open("wall");
  json_.open("runtime_s");
  json_.field("mean", runtime.mean());
  json_.field("stddev", runtime.stddev());
  json_.field("min", runtime.min());
  json_.field("max", runtime.max());
  json_.close();
  json_.close();
  json_.close();
}

void JsonSink::end() {
  json_.close_list();
  json_.close();
}

}  // namespace fairswap::harness
