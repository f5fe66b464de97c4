#include "harness/sink.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/scenarios.hpp"
#include "harness/plan.hpp"

namespace fairswap::harness {
namespace {

/// A tiny but real plan so the sinks see genuine simulation output.
ExperimentPlan tiny_plan() {
  ExperimentPlan plan;
  plan.title = "sink-test";
  plan.base = core::paper_config(4, 1.0, /*files=*/4);
  plan.base.topology.node_count = 64;
  plan.base.topology.address_bits = 10;
  plan.base.sim.workload.min_chunks_per_file = 5;
  plan.base.sim.workload.max_chunks_per_file = 10;
  plan.axes = {{"k", {"4", "8"}}, {"originators", {"0.5", "1.0"}}};
  plan.seeds = 2;
  return plan;
}

TEST(JsonSink, EmitsRunV1SchemaThatParsesBack) {
  std::ostringstream out;
  JsonSink sink(out);
  MetricSink* sinks[] = {&sink};
  std::string error;
  ASSERT_TRUE(run_plan(tiny_plan(), sinks, error)) << error;

  JsonValue doc;
  ASSERT_TRUE(parse_json(out.str(), doc, &error)) << error;

  EXPECT_EQ(doc.at("schema").string, "fairswap.run.v1");
  EXPECT_EQ(doc.at("title").string, "sink-test");

  const JsonValue& plan = doc.at("plan");
  EXPECT_DOUBLE_EQ(plan.at("seeds").number, 2.0);
  EXPECT_DOUBLE_EQ(plan.at("run_count").number, 4.0);
  ASSERT_EQ(plan.at("axes").array.size(), 2u);
  EXPECT_EQ(plan.at("axes").array[0].at("key").string, "k");
  ASSERT_EQ(plan.at("axes").array[0].at("values").array.size(), 2u);
  EXPECT_EQ(plan.at("axes").array[0].at("values").array[1].string, "8");
  // The base object carries the full binding snapshot.
  EXPECT_EQ(plan.at("base").at("nodes").string, "64");
  EXPECT_EQ(plan.at("base").at("policy").string, "zero-proximity");

  const auto& runs = doc.at("runs").array;
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].at("label").string, "k=4, originators=0.5");
  EXPECT_EQ(runs[0].at("assignment").at("k").string, "4");
  EXPECT_EQ(runs[3].at("assignment").at("originators").string, "1.0");
  for (const JsonValue& run : runs) {
    EXPECT_DOUBLE_EQ(run.at("seeds").number, 2.0);
    const JsonValue& metrics = run.at("metrics");
    for (const char* name :
         {"gini_f2", "gini_f1", "avg_forwarded", "routing_success",
          "total_income", "delivered"}) {
      ASSERT_TRUE(metrics.has(name)) << name;
      EXPECT_TRUE(metrics.at(name).has("mean"));
      EXPECT_TRUE(metrics.at(name).has("stddev"));
      EXPECT_TRUE(metrics.at(name).has("min"));
      EXPECT_TRUE(metrics.at(name).has("max"));
    }
    // Wall plane in its own section; runtime_s no longer pollutes the
    // sim-plane metrics object.
    EXPECT_FALSE(metrics.has("runtime_s"));
    ASSERT_TRUE(run.has("wall"));
    EXPECT_TRUE(run.at("wall").at("runtime_s").has("mean"));
    // Sim-plane counters: integer totals, present for every counter.
    ASSERT_TRUE(run.has("counters"));
    const JsonValue& counters = run.at("counters");
    telemetry::CounterBlock{}.for_each(
        [&](std::string_view name, std::uint64_t) {
          EXPECT_TRUE(counters.has(std::string(name).c_str()))
              << std::string(name);
        });
    EXPECT_GT(counters.at("chunks_delivered").number, 0.0);
    EXPECT_GT(counters.at("debits").number, 0.0);
    // A 64-node run always delivers something: the sink carried real data.
    EXPECT_GT(run.at("metrics").at("delivered").at("mean").number, 0.0);
  }
}

TEST(CsvSink, StreamsHeaderAxesAndOneRowPerRun) {
  const auto render = [](std::size_t threads) {
    ExperimentPlan plan = tiny_plan();
    plan.threads = threads;
    std::ostringstream out;
    CsvSink sink(out);
    MetricSink* sinks[] = {&sink};
    std::string error;
    EXPECT_TRUE(run_plan(plan, sinks, error)) << error;
    return out.str();
  };
  const std::string text = render(1);
  // The CSV carries the sim plane only, so it is the same file for any
  // threads= (the wall-clock runtime_s lives in the JSON wall section).
  EXPECT_EQ(render(2), text);

  std::istringstream in(text);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header.rfind("label,k,originators,seeds,gini_f2_mean,gini_f2_sd",
                         0),
            0u)
      << header;
  // Counter columns (exact integers, no _mean/_sd suffix) come after
  // the sim-plane metrics.
  EXPECT_NE(header.find(",route_walks,"), std::string::npos) << header;
  EXPECT_EQ(header.find("runtime_s"), std::string::npos) << header;
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 4u);
}

TEST(TableSink, RendersOneRowPerRunWithErrorBars) {
  std::ostringstream out;
  TableSink sink(out);
  MetricSink* sinks[] = {&sink};
  std::string error;
  ASSERT_TRUE(run_plan(tiny_plan(), sinks, error)) << error;

  const std::string text = out.str();
  EXPECT_NE(text.find("k=4, originators=0.5"), std::string::npos);
  EXPECT_NE(text.find("k=8, originators=1.0"), std::string::npos);
  EXPECT_NE(text.find("±"), std::string::npos);  // multi-seed error bars
  EXPECT_NE(text.find("Gini F2"), std::string::npos);
}

}  // namespace
}  // namespace fairswap::harness
