#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/report.hpp"
#include "core/scenarios.hpp"

namespace fairswap::core {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.label = "tiny";
  cfg.topology.node_count = 150;
  cfg.topology.address_bits = 12;
  cfg.topology.buckets.k = 4;
  cfg.sim.workload.min_chunks_per_file = 10;
  cfg.sim.workload.max_chunks_per_file = 30;
  cfg.files = 50;
  cfg.seed = 7;
  return cfg;
}

TEST(Experiment, RunsEndToEnd) {
  const auto result = run_experiment(tiny_config());
  EXPECT_EQ(result.totals.files, 50u);
  EXPECT_GT(result.avg_forwarded_chunks, 0.0);
  EXPECT_EQ(result.served_per_node.size(), 150u);
  EXPECT_GT(result.routing_success, 0.99);
  EXPECT_GT(result.runtime_seconds, 0.0);
}

TEST(Experiment, DeterministicForEqualConfigs) {
  const auto a = run_experiment(tiny_config());
  const auto b = run_experiment(tiny_config());
  EXPECT_EQ(a.served_per_node, b.served_per_node);
  EXPECT_EQ(a.income_per_node, b.income_per_node);
  EXPECT_DOUBLE_EQ(a.fairness.gini_f2, b.fairness.gini_f2);
}

TEST(Experiment, SeedChangesResults) {
  auto cfg = tiny_config();
  const auto a = run_experiment(cfg);
  cfg.seed = 8;
  const auto b = run_experiment(cfg);
  EXPECT_NE(a.served_per_node, b.served_per_node);
}

TEST(Experiment, SharedTopologyMatchesFreshBuild) {
  const auto cfg = tiny_config();
  const auto topo = build_topology(cfg);
  const auto shared = run_experiment(topo, cfg);
  const auto fresh = run_experiment(cfg);
  EXPECT_EQ(shared.served_per_node, fresh.served_per_node);
}

TEST(Experiment, MismatchedTopologyRejected) {
  auto cfg = tiny_config();
  const auto topo = build_topology(cfg);
  cfg.topology.node_count = 99;
  EXPECT_THROW((void)run_experiment(topo, cfg), std::invalid_argument);
}

TEST(Experiment, AverageForwardedEqualsSummaryMean) {
  const auto result = run_experiment(tiny_config());
  EXPECT_DOUBLE_EQ(result.avg_forwarded_chunks, result.served_summary.mean);
  // And equals total transmissions / node count.
  EXPECT_NEAR(result.avg_forwarded_chunks,
              static_cast<double>(result.totals.total_transmissions) / 150.0,
              1e-9);
}

TEST(Scenarios, PaperConfigMatchesEvaluationSection) {
  const auto cfg = paper_config(4, 0.2);
  EXPECT_EQ(cfg.topology.node_count, 1000u);
  EXPECT_EQ(cfg.topology.address_bits, 16);
  EXPECT_EQ(cfg.topology.buckets.k, 4u);
  EXPECT_EQ(cfg.sim.workload.min_chunks_per_file, 100u);
  EXPECT_EQ(cfg.sim.workload.max_chunks_per_file, 1000u);
  EXPECT_DOUBLE_EQ(cfg.sim.workload.originator_share, 0.2);
  EXPECT_EQ(cfg.files, 10'000u);
  EXPECT_EQ(cfg.sim.policy, "zero-proximity");
}

TEST(Scenarios, GridHasFourCellsInPaperOrder) {
  const auto grid = paper_grid(100);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].topology.buckets.k, 4u);
  EXPECT_DOUBLE_EQ(grid[0].sim.workload.originator_share, 0.2);
  EXPECT_EQ(grid[3].topology.buckets.k, 20u);
  EXPECT_DOUBLE_EQ(grid[3].sim.workload.originator_share, 1.0);
  for (const auto& cfg : grid) EXPECT_EQ(cfg.files, 100u);
}

TEST(Scenarios, LabelsAreHumanReadable) {
  EXPECT_EQ(scenario_label(4, 0.2), "k=4, 20% originators");
  EXPECT_EQ(scenario_label(20, 1.0), "k=20, 100% originators");
}

TEST(Report, SummaryMentionsKeyNumbers) {
  const auto result = run_experiment(tiny_config());
  const std::string s = summarize_result(result);
  EXPECT_NE(s.find("tiny"), std::string::npos);
  EXPECT_NE(s.find("Gini F2"), std::string::npos);
  EXPECT_NE(s.find("Gini F1"), std::string::npos);
}

TEST(Report, LorenzCsvHasHeaderAndRows) {
  const auto result = run_experiment(tiny_config());
  const auto csv = lorenz_csv({&result}, /*f1_curve=*/false);
  EXPECT_EQ(csv.rfind("label,population_share,value_share", 0), 0u);
  EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(Report, ServedHistogramsShareBounds) {
  const auto a = run_experiment(tiny_config());
  auto cfg = tiny_config();
  cfg.seed = 9;
  const auto b = run_experiment(cfg);
  const auto histos = served_histograms({&a, &b}, 20);
  ASSERT_EQ(histos.size(), 2u);
  EXPECT_DOUBLE_EQ(histos[0].hi(), histos[1].hi());
  EXPECT_EQ(histos[0].total(), 150u);
}

TEST(Report, WriteTextFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/fairswap_report_test.txt";
  EXPECT_NO_THROW(write_text_file(path, "hello fairswap"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello fairswap");
}

TEST(Report, WriteTextFileThrowsWhenTheParentIsAFile) {
  const std::string file = ::testing::TempDir() + "/fairswap_report_file";
  write_text_file(file, "a regular file, not a directory");
  const std::string path = file + "/out.csv";
  try {
    write_text_file(path, "x");
    ADD_FAILURE() << "wrote below a regular file";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "cannot write " + path);
  }
}

}  // namespace
}  // namespace fairswap::core
