// Tests for how perfbench derives its metrics: the fastest valid pass and
// the sum of the fastest pieces, failed passes counted and never timed,
// the output checks, and the metric names and units against
// BENCHMARK.json.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test BENCHMARK.json
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/scenarios.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::PassSample;

perfbench::RunSummary summarize(const std::vector<PassSample>& passes,
                                const PassSample& warm) {
  perfbench::RunAccumulator acc(warm);
  for (const PassSample& p : passes) acc.add(p);
  return acc.summary();
}

constexpr std::uint64_t kWarm = 0xabcdef;
// The warm pass: only its fingerprint and its (absent) pieces matter.
const PassSample kWarmPass{0.050, 3.0, 1000, kWarm, true, {}, {}};

void fastest_valid_pass_is_reported() {
  // Passes timed as one piece each: the fastest pass wins.
  const std::vector<PassSample> passes = {
      {0.030, 2.0, 1000, kWarm, true, {}, {}},  // 500/s
      {0.020, 1.0, 1000, kWarm, true, {}, {}},  // 1000/s, fastest set-up too
      {0.040, 4.0, 1000, kWarm, true, {}, {}},  // 250/s
  };
  const perfbench::RunSummary s = summarize(passes, kWarmPass);
  CHECK(s.attempted == 3);
  CHECK(s.failed == 0);
  CHECK(s.chunk_requests_per_s == 1000.0);
  CHECK(s.fastest_pass_per_s == 1000.0);
  CHECK(s.setup_s == 0.020);
}

void fastest_pieces_are_summed() {
  // Each piece's fastest time comes from another pass: 0.25 + 0.5 + 0.25
  // = 1 s for 1000 requests, faster than the fastest whole pass (1.5 s).
  const PassSample warm{0.0, 3.0, 1000, kWarm, true, {1.0, 1.0, 1.0},
                        {0.1, 0.1}};
  const std::vector<PassSample> passes = {
      {0.030, 1.5, 1000, kWarm, true, {0.25, 1.0, 0.25}, {0.020, 0.010}},
      {0.015, 2.0, 1000, kWarm, true, {1.0, 0.5, 0.5}, {0.005, 0.010}},
      {0.040, 2.5, 1000, kWarm, true, {1.5, 0.75, 0.25}, {0.030, 0.010}},
  };
  const perfbench::RunSummary s = summarize(passes, warm);
  CHECK(s.failed == 0);
  CHECK(s.chunk_requests_per_s == 1000.0);
  CHECK(s.fastest_pass_per_s == 1000.0 / 1.5);
  CHECK(s.setup_s == 0.005 + 0.010);

  // A pass cut into other pieces than the warm pass is no timing.
  std::vector<PassSample> recut = passes;
  recut.push_back({0.001, 0.3, 1000, kWarm, true, {0.1, 0.2}, {0.001, 0.0}});
  const perfbench::RunSummary r = summarize(recut, warm);
  CHECK(r.attempted == 4);
  CHECK(r.failed == 1);
  CHECK(r.chunk_requests_per_s == 1000.0);
  CHECK(!perfbench::pass_valid(recut.back(), warm));
}

void planted_fingerprint_mismatch_is_a_failure() {
  // The fastest pass has the wrong fingerprint: it is counted as failed
  // and its timing is not used.
  const std::vector<PassSample> passes = {
      {0.030, 2.0, 1000, kWarm, true, {}, {}},
      {0.001, 0.1, 1000, kWarm ^ 1, true, {}, {}},
      {0.040, 4.0, 1000, kWarm, true, {}, {}},
  };
  const perfbench::RunSummary s = summarize(passes, kWarmPass);
  CHECK(s.attempted == 3);
  CHECK(s.failed == 1);
  CHECK(s.chunk_requests_per_s == 500.0);
  CHECK(s.setup_s == 0.030);
  CHECK(!perfbench::pass_valid(passes[1], kWarmPass));
}

void failed_checks_are_failures() {
  const std::vector<PassSample> passes = {
      {0.010, 0.5, 1000, kWarm, false, {}, {}},
      {0.030, 2.0, 1000, kWarm, true, {}, {}},
  };
  const perfbench::RunSummary s = summarize(passes, kWarmPass);
  CHECK(s.failed == 1);
  CHECK(s.chunk_requests_per_s == 500.0);
  const std::vector<PassSample> none = {
      {0.010, 0.5, 1000, kWarm, false, {}, {}}};
  const perfbench::RunSummary empty = summarize(none, kWarmPass);
  CHECK(empty.failed == 1);
  CHECK(empty.chunk_requests_per_s == 0.0);
  CHECK(empty.setup_s == 0.0);
}

void result_line_carries_units_and_counts() {
  const perfbench::MetricValue values[] = {
      {"peak_rss_mb", 47.5},
      {"chunk_requests_per_s", 5.25e6},
      {"setup_s", 0.0347},
  };
  const std::string line = perfbench::result_json(
      true, 11, 1, perfbench::end_to_end_metrics(), values);
  fairswap::JsonValue doc;
  CHECK(fairswap::parse_json(line, doc));
  CHECK(doc.object.size() == 4);
  CHECK(doc.at("correct").boolean);
  CHECK(doc.at("attempted").number == 11.0);
  CHECK(doc.at("failed").number == 1.0);
  const auto& metrics = doc.at("metrics");
  CHECK(metrics.object.size() == 3);
  CHECK(metrics.at("chunk_requests_per_s").at("unit").string == "1/s");
  CHECK(metrics.at("chunk_requests_per_s").at("value").number == 5.25e6);
  CHECK(metrics.at("setup_s").at("unit").string == "s");
  CHECK(metrics.at("peak_rss_mb").at("unit").string == "MB");

  bool threw = false;
  try {
    (void)perfbench::result_json(true, 1, 0, perfbench::end_to_end_metrics(),
                                 std::span(values, 2));
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
}

void metrics_match_benchmark_json(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  fairswap::JsonValue doc;
  CHECK(in.good() && fairswap::parse_json(text.str(), doc));
  const auto compare = [&](const char* key,
                           std::span<const perfbench::MetricSpec> specs) {
    const auto& listed = doc.at(key).array;
    CHECK(listed.size() == specs.size());
    for (std::size_t i = 0; i < listed.size() && i < specs.size(); ++i) {
      CHECK(listed[i].at("name").string == specs[i].name);
      CHECK(listed[i].at("unit").string == specs[i].unit);
    }
  };
  compare("end_to_end", perfbench::end_to_end_metrics());
  compare("per_layer", perfbench::per_layer_metrics());
}

void output_checks_catch_planted_violations() {
  auto cfg = fairswap::core::paper_config(4, 1.0, 5, 7);
  cfg.topology.node_count = 64;
  cfg.topology.address_bits = 10;
  cfg.sim.workload.min_chunks_per_file = 10;
  cfg.sim.workload.max_chunks_per_file = 20;
  const fairswap::overlay::Topology topo = fairswap::core::build_topology(cfg);
  fairswap::Rng root(cfg.seed);
  fairswap::core::Simulation sim(topo, cfg.sim, root.split(1));
  sim.run(cfg.files);
  const auto result = fairswap::core::package_experiment(cfg, sim, 0.0);
  const auto w = perfbench::Workload::kPaperGrid;
  CHECK(perfbench::check_cell(w, result, sim).empty());

  auto lost_request = result;
  ++lost_request.totals.chunk_requests;
  CHECK(!perfbench::check_cell(w, lost_request, sim).empty());

  auto lost_serve = result;
  ++lost_serve.served_per_node[0];
  CHECK(!perfbench::check_cell(w, lost_serve, sim).empty());

  auto lost_flow = result;
  lost_flow.config.sim.flow_level = true;
  lost_flow.totals.flows_started = 3;
  lost_flow.totals.flows_completed = 1;
  lost_flow.totals.flows_timed_out = 1;
  CHECK(!perfbench::check_cell(w, lost_flow, sim).empty());

  // heavy_traffic's guards: this run had no flash crowd and no
  // settlements, so both must trip.
  CHECK(!perfbench::check_cell(perfbench::Workload::kHeavyTraffic, result,
                               sim)
             .empty());

  perfbench::Fingerprint a;
  perfbench::Fingerprint b;
  perfbench::add_result(a, result, sim);
  perfbench::add_result(b, lost_serve, sim);
  CHECK(a.value() != b.value());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_test BENCHMARK.json\n");
    return 2;
  }
  fastest_valid_pass_is_reported();
  fastest_pieces_are_summed();
  planted_fingerprint_mismatch_is_a_failure();
  failed_checks_are_failures();
  result_line_carries_units_and_counts();
  metrics_match_benchmark_json(argv[1]);
  output_checks_catch_planted_violations();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
