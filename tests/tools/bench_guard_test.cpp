// In-process proof of the perf-drift gate: the comparison engine must
// flag exactly the regressed metrics (direction-sensitive), key sweep
// points by k rather than array index, and turn malformed input into a
// hard error instead of a clean pass. The binary-level exit-code
// contract over the same fixtures lives in tools/bench_guard/CMakeLists.
#include "guard.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/json.hpp"

namespace fairswap::guard {
namespace {

std::string fixture(const std::string& name) {
  const std::string path =
      std::string(FAIRSWAP_GUARD_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(BenchGuard, BaselineAgainstItselfIsClean) {
  const std::string base = fixture("baseline.json");
  const GuardResult r = compare(base, base, Options{});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.drifts.empty());
  // 2 routing k-points x 2 ratios + 2 ledger k-points x 1 ratio + 2 flow
  // k-points x 1 overhead + the workload overhead.
  EXPECT_EQ(r.compared, 9u);
}

TEST(BenchGuard, InjectedRegressionFiresOnExactlyTheSlowedMetrics) {
  const GuardResult r =
      compare(fixture("baseline.json"), fixture("regression.json"),
              Options{});
  ASSERT_TRUE(r.error.empty()) << r.error;
  // The regression fixture doubles batched_over_greedy, edge_over_map and
  // the flow overhead at both k points, and the workload overhead;
  // compiled_over_greedy moves < 2%.
  ASSERT_EQ(r.drifts.size(), 7u);
  std::size_t routing_hits = 0;
  std::size_t ledger_hits = 0;
  std::size_t flow_hits = 0;
  std::size_t workload_hits = 0;
  for (const Drift& d : r.drifts) {
    EXPECT_GT(d.ratio, 1.5);
    if (d.section == "workload") {
      EXPECT_EQ(d.metric, "overhead");
      EXPECT_FALSE(d.k.has_value());
      ++workload_hits;
      continue;
    }
    if (d.section == "routing") {
      EXPECT_EQ(d.metric, "batched_over_greedy");
      ++routing_hits;
    } else if (d.section == "ledger") {
      EXPECT_EQ(d.metric, "edge_over_map");
      ++ledger_hits;
    } else {
      EXPECT_EQ(d.section, "flow");
      EXPECT_EQ(d.metric, "overhead");
      ++flow_hits;
    }
    EXPECT_TRUE(d.k == 4 || d.k == 8);
  }
  EXPECT_EQ(routing_hits, 2u);
  EXPECT_EQ(ledger_hits, 2u);
  EXPECT_EQ(flow_hits, 2u);
  EXPECT_EQ(workload_hits, 1u);
}

TEST(BenchGuard, BaselineWithoutAWorkloadSectionStillGatesTheOtherRows) {
  // A baseline written before the workload row was gated: its routing
  // and flow rows still compare, and the fresh workload row is ignored.
  const std::string baseline =
      R"({"routing":[{"k":4,"compiled_over_greedy":0.365,)"
      R"("batched_over_greedy":0.141}],)"
      R"("flow":[{"k":4,"overhead":205.18}]})";
  const GuardResult r =
      compare(baseline, fixture("regression.json"), Options{});
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.compared, 3u);
  ASSERT_EQ(r.drifts.size(), 2u);
  for (const Drift& d : r.drifts) {
    EXPECT_NE(d.section, "workload");
    EXPECT_EQ(d.k, 4u);
  }
}

TEST(BenchGuard, GettingFasterNeverFails) {
  const GuardResult r = compare(fixture("baseline.json"),
                                fixture("improved.json"), Options{});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.drifts.empty());
  EXPECT_EQ(r.compared, 9u);
}

TEST(BenchGuard, ToleranceIsAdjustable) {
  Options loose;
  loose.tolerance = 3.0;  // a 2x regression sits inside a 4x band
  const GuardResult r = compare(fixture("baseline.json"),
                                fixture("regression.json"), loose);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.drifts.empty());

  Options strict;
  strict.tolerance = 0.0;
  const GuardResult s = compare(fixture("baseline.json"),
                                fixture("regression.json"), strict);
  // With no band, every metric that moved up at all drifts.
  EXPECT_GE(s.drifts.size(), 7u);
}

TEST(BenchGuard, SweepPointsMatchByKNotArrayIndex) {
  // Fresh document carries only k=8, listed first: the k=4 baseline
  // entries are skipped, and k=8 compares against k=8 (clean), not
  // against the k=4 index-0 baseline (its edge_over_map of 0.232 would
  // drift at 0.396).
  const std::string fresh =
      R"({"routing":[{"k":8,"compiled_over_greedy":0.374,)"
      R"("batched_over_greedy":0.144}],)"
      R"("ledger":[{"k":8,"edge_over_map":0.396}]})";
  const GuardResult r = compare(fixture("baseline.json"), fresh, Options{});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.drifts.empty());
  EXPECT_EQ(r.compared, 3u);
}

TEST(BenchGuard, MalformedInputIsAHardError) {
  const GuardResult r =
      compare(fixture("baseline.json"), "{\"routing\":[", Options{});
  EXPECT_FALSE(r.error.empty());
  EXPECT_TRUE(r.drifts.empty());
}

TEST(BenchGuard, DeepNestingIsAnErrorNotACrash) {
  // 100,000 open brackets used to recurse until the stack overflowed.
  const std::string deep(100'000, '[');
  const std::string base = fixture("baseline.json");
  EXPECT_NE(compare(deep, base, Options{}).error.find("nesting"),
            std::string::npos);
  EXPECT_NE(compare(base, deep, Options{}).error.find("nesting"),
            std::string::npos);

  // At the limit a document still parses: the root object is one level,
  // the "deep" arrays the other kMaxJsonDepth - 1.
  const auto nested = [](std::size_t levels) {
    return R"({"deep":)" + std::string(levels, '[') + "1" +
           std::string(levels, ']') +
           R"(,"routing":[{"k":4,"batched_over_greedy":0.141}]})";
  };
  const std::string at_limit = nested(kMaxJsonDepth - 1);
  const GuardResult ok = compare(at_limit, at_limit, Options{});
  EXPECT_TRUE(ok.error.empty()) << ok.error;
  EXPECT_EQ(ok.compared, 1u);
  const std::string too_deep = nested(kMaxJsonDepth);
  EXPECT_FALSE(compare(too_deep, too_deep, Options{}).error.empty());
}

TEST(BenchGuard, TrailingGarbageIsAHardError) {
  // The gated value alone would read as in-band (1 compared, 0 drifted).
  const GuardResult r = compare(fixture("baseline.json"),
                                fixture("trailing_garbage.json"), Options{});
  EXPECT_NE(r.error.find("trailing"), std::string::npos) << r.error;
}

TEST(BenchGuard, MalformedNumberIsAHardError) {
  // Each reads as the in-band 0.141 to a reader that takes the longest
  // prefix strtod accepts.
  const std::string base = fixture("baseline.json");
  for (const char* bad : {"0.141.9.9", "0.141-5", "0.141e", "00.141", ".141"}) {
    std::string fresh = base;
    fresh.replace(fresh.find("0.141"), 5, bad);
    EXPECT_FALSE(compare(base, fresh, Options{}).error.empty()) << bad;
  }
}

TEST(BenchGuard, BadUnicodeEscapeIsAHardError) {
  const GuardResult r = compare(fixture("baseline.json"),
                                fixture("bad_escape.json"), Options{});
  EXPECT_NE(r.error.find("escape"), std::string::npos) << r.error;
}

TEST(BenchGuard, RepeatedSectionIsAHardError) {
  // Which of the two routing arrays is gated must not be the reader's
  // choice: the second one here is a 60x regression.
  const std::string fresh =
      R"({"routing":[{"k":4,"batched_over_greedy":0.141}],)"
      R"("routing":[{"k":4,"batched_over_greedy":9}]})";
  const GuardResult r = compare(fixture("baseline.json"), fresh, Options{});
  EXPECT_NE(r.error.find("duplicate"), std::string::npos) << r.error;
}

TEST(BenchGuard, NonFiniteOrNegativeToleranceIsAHardError) {
  // A NaN band fails no ratio test, so it would turn the gate off.
  const std::string base = fixture("baseline.json");
  const std::string regression = fixture("regression.json");
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double tolerance : {kNaN, kInf, -0.1}) {
    Options options;
    options.tolerance = tolerance;
    const GuardResult r = compare(base, regression, options);
    EXPECT_FALSE(r.error.empty()) << tolerance;
    EXPECT_TRUE(r.drifts.empty());
  }
}

TEST(BenchGuard, UnrelatedSchemaIsAHardError) {
  // Parseable JSON with no routing/ledger/flow metrics must error, not
  // pass.
  const GuardResult r = compare(fixture("baseline.json"),
                                R"({"schema":"other","x":1})", Options{});
  EXPECT_FALSE(r.error.empty());
}

TEST(BenchGuard, FormatNamesTheMetricAndBand) {
  Drift d{"routing", 8, "batched_over_greedy", 0.14, 0.28, 2.0};
  const std::string line = format(d, Options{});
  EXPECT_NE(line.find("routing k=8"), std::string::npos);
  EXPECT_NE(line.find("batched_over_greedy"), std::string::npos);
  EXPECT_NE(line.find("2.00x"), std::string::npos);
  EXPECT_NE(line.find("1.50x"), std::string::npos);

  // A section without sweep points names no k.
  const Drift w{"workload", std::nullopt, "overhead", 2.5, 5.0, 2.0};
  const std::string ratio_line = format(w, Options{});
  EXPECT_EQ(ratio_line, "workload overhead: 2.50 -> 5.00 (2.00x, limit 1.50x)");
}

}  // namespace
}  // namespace fairswap::guard
