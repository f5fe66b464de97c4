// MetricSink — the stream protocol between the experiment runner and its
// outputs. The runner announces the plan (begin), emits one compact
// RunRecord per expanded run as soon as it is folded (record), and closes
// (end). Records carry only aggregated scalars, never per-node vectors, so
// a 10k-node multi-seed sweep streams through sinks without ever buffering
// full ExperimentResults.
#pragma once

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/telemetry/counters.hpp"

namespace fairswap::harness {

/// The sweep axes and fixed base parameters of a plan, as strings — what a
/// sink needs to label its output and nothing more.
struct PlanSummary {
  std::string title;
  /// Canonical key=value snapshot of the base config (binding-table order).
  std::vector<std::pair<std::string, std::string>> base;
  /// Axis keys in expansion order (last varies fastest) with their values.
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;
  std::size_t seeds{1};
  std::size_t threads{1};
  std::size_t run_count{0};
};

/// Per-run aggregates across seeds. One RunningStats per headline metric;
/// with a single seed the mean is the value and the stddev is 0.
struct MetricStats {
  RunningStats gini_f2;
  RunningStats gini_f1;
  RunningStats gini_f1_income;
  RunningStats avg_forwarded;
  RunningStats routing_success;
  RunningStats total_income;
  RunningStats outstanding_debt;
  RunningStats settlements;
  RunningStats total_transmissions;
  RunningStats delivered;
  RunningStats failed_routes;
  RunningStats truncated_routes;
  RunningStats cache_serves;
  RunningStats fct_p50;
  RunningStats fct_p99;
  RunningStats fct_mean;
  RunningStats flows_timed_out;
  RunningStats saturated_links;
  /// WALL PLANE — the one timing metric. Only the JSON sink emits it, in
  /// a `wall` section of its own that is excluded from the bit-identity
  /// contract; for_each never visits it.
  RunningStats runtime_s;
  // Streaming-sketch percentiles (common/stream_stats); hops_* are 0
  // unless stream_metrics= is on.
  RunningStats hops_p50;
  RunningStats hops_p99;
  RunningStats served_p99;
  RunningStats income_p99;
  // Agents-aware sweep outputs (epochs= on the sweep path): final
  // free-rider prevalence and the convergence epoch (-1 when the epoch
  // game did not converge; both 0 on flat runs).
  RunningStats final_prevalence;
  RunningStats converged_epoch;

  /// Visits every SIM-PLANE metric as (name, stats), in the fixed schema
  /// order the CSV and JSON sinks emit. Adding a metric here adds it to
  /// every sink. New metrics are appended at the end so existing column
  /// prefixes stay stable for downstream readers.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    fn("gini_f2", gini_f2);
    fn("gini_f1", gini_f1);
    fn("gini_f1_income", gini_f1_income);
    fn("avg_forwarded", avg_forwarded);
    fn("routing_success", routing_success);
    fn("total_income", total_income);
    fn("outstanding_debt", outstanding_debt);
    fn("settlements", settlements);
    fn("total_transmissions", total_transmissions);
    fn("delivered", delivered);
    fn("failed_routes", failed_routes);
    fn("truncated_routes", truncated_routes);
    fn("cache_serves", cache_serves);
    fn("fct_p50", fct_p50);
    fn("fct_p99", fct_p99);
    fn("fct_mean", fct_mean);
    fn("flows_timed_out", flows_timed_out);
    fn("saturated_links", saturated_links);
    fn("hops_p50", hops_p50);
    fn("hops_p99", hops_p99);
    fn("served_p99", served_p99);
    fn("income_p99", income_p99);
    fn("final_prevalence", final_prevalence);
    fn("converged_epoch", converged_epoch);
  }
};

/// One expanded run's identity plus its folded metrics.
struct RunRecord {
  std::size_t index{0};
  std::string label;
  /// The axis assignment that produced this run, in axis order.
  std::vector<std::pair<std::string, std::string>> assignment;
  std::size_t seeds{1};
  MetricStats metrics;
  /// Sim-plane counter totals summed over the run's seeds — exact
  /// integers, bit-identical for any threads=.
  telemetry::CounterBlock counters;
};

/// Receives a stream of run records. Implementations must not assume they
/// see records before end() (a failing plan may emit none).
class MetricSink {
 public:
  virtual ~MetricSink() = default;

  virtual void begin(const PlanSummary& plan) { (void)plan; }
  virtual void record(const RunRecord& run) = 0;
  virtual void end() {}
};

/// Keeps every record in memory, for callers that read the folded metrics
/// back instead of rendering them.
class CaptureSink final : public MetricSink {
 public:
  void record(const RunRecord& run) override { records.push_back(run); }
  void end() override { ended = true; }

  std::vector<RunRecord> records;
  bool ended{false};
};

/// Renders an aligned text table of the headline metrics (stdout-style
/// sink). Values print as "mean ± sd" for multi-seed runs.
class TableSink final : public MetricSink {
 public:
  explicit TableSink(std::ostream& out) : out_(&out) {}

  void begin(const PlanSummary& plan) override;
  void record(const RunRecord& run) override;
  void end() override;

 private:
  std::ostream* out_;
  std::optional<TextTable> table_;
};

/// Streams one CSV row per run: label, axis values, seed count, mean/sd
/// for every sim-plane metric, then the counter totals. The wall plane
/// stays out, so the file is bit-identical for any threads=. Header goes
/// out at begin(), rows as runs complete — nothing is buffered.
class CsvSink final : public MetricSink {
 public:
  explicit CsvSink(std::ostream& out) : writer_(out) {}

  void begin(const PlanSummary& plan) override;
  void record(const RunRecord& run) override;

 private:
  CsvWriter writer_;
};

/// Streams the general machine-readable roll-up, schema fairswap.run.v1:
/// {"schema":"fairswap.run.v1","title":...,"plan":{...},"runs":[...]}.
/// The plan header is written at begin(), each run object as it completes,
/// and the document is closed at end().
class JsonSink final : public MetricSink {
 public:
  explicit JsonSink(std::ostream& out) : json_(out) {}

  void begin(const PlanSummary& plan) override;
  void record(const RunRecord& run) override;
  void end() override;

 private:
  JsonWriter json_;
};

}  // namespace fairswap::harness
