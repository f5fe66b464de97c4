// Fixture-driven proof that every fairswap_lint rule (a) fires on a
// violation, (b) passes an allowlisted site, and (c) honors a reasoned
// allow(...) suppression. The fixtures are mini source trees under
// tools/fairswap_lint/fixtures/ — the same trees the CTest binary runs
// cover with exit codes; here the library API pins exact rules and lines.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace fairswap::lint {
namespace {

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(FAIRSWAP_LINT_FIXTURES) / name;
}

std::vector<std::string> rules_of(const std::vector<Violation>& vs) {
  std::vector<std::string> rules;
  rules.reserve(vs.size());
  for (const auto& v : vs) rules.push_back(v.rule);
  return rules;
}

TEST(LintUnorderedContainer, FiresOnUnjustifiedDeclaration) {
  const auto vs = lint_tree(fixture("unordered_container_violation"));
  ASSERT_EQ(vs.size(), 1u) << format(vs.empty() ? Violation{} : vs[0]);
  EXPECT_EQ(vs[0].rule, "unordered-container");
  EXPECT_EQ(vs[0].file, "src/core/bad_map.hpp");
  EXPECT_EQ(vs[0].line, 12u);
}

TEST(LintUnorderedContainer, ReasonedSuppressionPasses) {
  EXPECT_TRUE(lint_tree(fixture("unordered_container_suppressed")).empty());
}

TEST(LintUnorderedIteration, FiresOnRangeForAndBeginWalk) {
  Options only_iteration;
  only_iteration.rules = {"unordered-iteration"};
  const auto vs =
      lint_tree(fixture("unordered_iteration_violation"), only_iteration);
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "unordered-iteration");
  EXPECT_EQ(vs[0].line, 18u);  // range-for over `totals`
  EXPECT_EQ(vs[1].rule, "unordered-iteration");
  EXPECT_EQ(vs[1].line, 24u);  // members.begin() walk

  // The full rule set finds exactly the same two: the declarations are
  // justified, so no unordered-container noise.
  EXPECT_EQ(lint_tree(fixture("unordered_iteration_violation")).size(), 2u);
}

TEST(LintUnorderedIteration, JustifiedIterationPasses) {
  EXPECT_TRUE(lint_tree(fixture("unordered_iteration_suppressed")).empty());
}

TEST(LintUnorderedIteration, ResolvesMemberDeclaredInIncludedHeader) {
  const auto vs = lint_tree(fixture("unordered_iteration_cross_file"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "unordered-iteration");
  EXPECT_EQ(vs[0].file, "src/core/state.cpp");
  EXPECT_EQ(vs[0].line, 9u);
}

TEST(LintRawRandom, FiresOnEveryAdHocEntropySource) {
  const auto vs = lint_tree(fixture("raw_random_violation"));
  ASSERT_EQ(vs.size(), 4u);
  for (const auto& v : vs) EXPECT_EQ(v.rule, "raw-random");
  const std::vector<std::size_t> lines = {vs[0].line, vs[1].line, vs[2].line,
                                          vs[3].line};
  EXPECT_EQ(lines, (std::vector<std::size_t>{10, 11, 12, 13}));
}

TEST(LintRawRandom, CommonRngIsTheBlessedEntropySite) {
  EXPECT_TRUE(lint_tree(fixture("raw_random_allowlisted")).empty());
}

TEST(LintRawParse, FiresOnEveryAdHocNumberParser) {
  const auto vs = lint_tree(fixture("raw_parse_violation"));
  ASSERT_EQ(vs.size(), 4u);
  for (const auto& v : vs) {
    EXPECT_EQ(v.rule, "raw-parse");
    EXPECT_EQ(v.file, "bench/own_parser.cpp");
  }
  const std::vector<std::size_t> lines = {vs[0].line, vs[1].line, vs[2].line,
                                          vs[3].line};
  EXPECT_EQ(lines, (std::vector<std::size_t>{11, 12, 13, 15}));
}

TEST(LintRawParse, CommonConfigIsTheOneGrammar) {
  EXPECT_TRUE(lint_tree(fixture("raw_parse_allowlisted")).empty());
  // The same call anywhere else in src/ fires.
  const auto vs = lint_file("src/common/json.cpp",
                            "double f(const char* s) {\n"
                            "  return strtod(s, nullptr);\n"
                            "}\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "raw-parse");
}

TEST(LintWallClock, FiresOnChronoInSimCode) {
  const auto vs = lint_tree(fixture("wall_clock_violation"));
  ASSERT_EQ(vs.size(), 3u);
  for (const auto& v : vs) EXPECT_EQ(v.rule, "wall-clock");
  EXPECT_EQ(vs[0].file, "src/core/timer.cpp");
  EXPECT_EQ(vs[0].line, 3u);   // #include <chrono>
  EXPECT_EQ(vs[1].line, 8u);   // steady_clock::now()
  EXPECT_EQ(vs[2].line, 9u);   // duration cast
}

TEST(LintWallClock, TelemetryIsTheBlessedWallClockSite) {
  EXPECT_TRUE(lint_tree(fixture("wall_clock_allowlisted")).empty());
}

TEST(LintWallClock, ReasonedSuppressionPasses) {
  EXPECT_TRUE(lint_tree(fixture("wall_clock_suppressed")).empty());
}

TEST(LintFloatType, FiresOnFloatButNotProseOrIdentifiers) {
  const auto vs = lint_tree(fixture("float_violation"));
  ASSERT_EQ(vs.size(), 3u);
  for (const auto& v : vs) EXPECT_EQ(v.rule, "float-type");
  EXPECT_EQ(vs[0].line, 12u);
  EXPECT_EQ(vs[1].line, 13u);
  EXPECT_EQ(vs[2].line, 14u);
}

TEST(LintFloatType, JustifiedFloatPasses) {
  EXPECT_TRUE(lint_tree(fixture("float_suppressed")).empty());
}

TEST(LintPragmaOnce, FiresWhenCodePrecedesPragma) {
  const auto vs = lint_tree(fixture("pragma_once_violation"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "pragma-once");
  EXPECT_EQ(vs[0].line, 3u);
}

TEST(LintPragmaOnce, CommentThenPragmaPasses) {
  EXPECT_TRUE(lint_tree(fixture("pragma_once_ok")).empty());
}

TEST(LintIncludeLayering, FiresOnUpwardIncludes) {
  const auto vs = lint_tree(fixture("layering_violation"));
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, "include-layering");
  EXPECT_EQ(vs[0].line, 4u);  // overlay -> core
  EXPECT_EQ(vs[1].rule, "include-layering");
  EXPECT_EQ(vs[1].line, 5u);  // overlay -> harness
}

TEST(LintIncludeLayering, TopLayerMayIncludeEverything) {
  EXPECT_TRUE(lint_tree(fixture("layering_ok")).empty());
}

TEST(LintMutableGlobal, FiresOnNamespaceScopeAndStaticLocalState) {
  const auto vs = lint_tree(fixture("mutable_global_violation"));
  ASSERT_EQ(vs.size(), 3u);
  for (const auto& v : vs) EXPECT_EQ(v.rule, "mutable-global");
  EXPECT_EQ(vs[0].line, 12u);  // std::uint64_t request_counter
  EXPECT_EQ(vs[1].line, 13u);  // std::vector<int> scratch
  EXPECT_EQ(vs[2].line, 16u);  // static local counter
  // The const/constexpr declarations on lines 10-11 must not appear.
}

TEST(LintMutableGlobal, ReasonedRegistrySingletonPasses) {
  EXPECT_TRUE(lint_tree(fixture("mutable_global_suppressed")).empty());
}

TEST(LintNakedMutex, FiresOnRawPrimitiveAndRawGuard) {
  const auto vs = lint_tree(fixture("naked_mutex_violation"));
  ASSERT_EQ(vs.size(), 2u);
  for (const auto& v : vs) EXPECT_EQ(v.rule, "naked-mutex");
  EXPECT_EQ(vs[0].line, 13u);  // std::lock_guard<std::mutex>
  EXPECT_EQ(vs[1].line, 18u);  // std::mutex member
}

TEST(LintNakedMutex, ReasonedForeignInterfacePasses) {
  EXPECT_TRUE(lint_tree(fixture("naked_mutex_suppressed")).empty());
}

TEST(LintNakedMutex, ThreadAnnotationsHeaderIsTheBlessedHome) {
  // The wrapper header itself holds the raw primitives; allowlisted by
  // path, no suppression comments needed. (Rule-filtered: the snippet is
  // not a full header, so pragma-once would fire on it.)
  Options only_mutex;
  only_mutex.rules = {"naked-mutex"};
  EXPECT_TRUE(lint_file("src/common/thread_annotations.hpp",
                        "std::mutex m_;\n", only_mutex)
                  .empty());
  const auto vs =
      lint_file("src/core/other.hpp", "std::mutex m_;\n", only_mutex);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "naked-mutex");
}

TEST(LintSharedCapture, FiresOnInlineAndNamedRefLambdas) {
  const auto vs = lint_tree(fixture("shared_capture_violation"));
  ASSERT_EQ(vs.size(), 2u);
  for (const auto& v : vs) EXPECT_EQ(v.rule, "shared-capture");
  EXPECT_EQ(vs[0].line, 14u);  // inline [&] lambda
  EXPECT_EQ(vs[1].line, 17u);  // named `bump` lambda, by-ref
  // The by-value [base] lambda on line 20 must not appear.
}

TEST(LintSharedCapture, ReasonedDisjointSlotFoldPasses) {
  EXPECT_TRUE(lint_tree(fixture("shared_capture_suppressed")).empty());
}

TEST(LintSuppression, ReasonlessMarkerIsItselfAViolationAndDoesNotSuppress) {
  const auto vs = lint_tree(fixture("bad_suppression"));
  const auto rules = rules_of(vs);
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_NE(std::find(rules.begin(), rules.end(), "bad-suppression"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "unordered-container"),
            rules.end());
}

// ---- direct engine edge cases (no fixture tree needed) -------------------

TEST(LintEngine, CommentsStringsAndRawStringsNeverMatch) {
  const std::string contents =
      "// float in a comment\n"
      "/* std::unordered_map<int,int> in a block comment */\n"
      "const char* s = \"float rand() std::unordered_set<int>\";\n"
      "const char* r = R\"(float time(nullptr))\";\n";
  EXPECT_TRUE(lint_file("src/core/prose.cpp", contents).empty());
}

TEST(LintEngine, DigitSeparatorsDoNotDerailLiteralStripping) {
  // The 1'000 separator must not open a char literal that would swallow
  // the `float` on the same line.
  const auto vs = lint_file("src/core/sep.cpp",
                            "const int x = 1'000; float y = 2.0F;\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "float-type");
}

TEST(LintEngine, IncludeDirectiveQuotesSurviveStripping) {
  const auto vs = lint_file("src/core/up.cpp",
                            "#include \"harness/plan.hpp\"\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "include-layering");
}

TEST(LintEngine, RuleFilterRestrictsFindings) {
  Options only_float;
  only_float.rules = {"float-type"};
  const std::string contents =
      "#include \"harness/plan.hpp\"\n"
      "float x = 0.0F;\n";
  const auto vs = lint_file("src/core/multi.cpp", contents, only_float);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "float-type");
}

// ---- --format=json round trip --------------------------------------------

TEST(LintJson, RoundTripsThroughTheProjectParser) {
  const auto vs = lint_tree(fixture("mutable_global_violation"));
  ASSERT_EQ(vs.size(), 3u);
  const std::string text = format_json(vs);

  fairswap::JsonValue doc;
  std::string error;
  ASSERT_TRUE(fairswap::parse_json(text, doc, &error)) << error;
  EXPECT_EQ(doc.at("schema").string, "fairswap.lint.v1");
  EXPECT_EQ(doc.at("count").number, 3.0);
  const auto& arr = doc.at("violations");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.array.size(), vs.size());
  for (std::size_t i = 0; i < vs.size(); ++i) {
    EXPECT_EQ(arr.array[i].at("rule").string, vs[i].rule);
    EXPECT_EQ(arr.array[i].at("file").string, vs[i].file);
    EXPECT_EQ(arr.array[i].at("line").number,
              static_cast<double>(vs[i].line));
    EXPECT_EQ(arr.array[i].at("reason").string, vs[i].message);
  }
}

TEST(LintJson, EmptyResultIsAValidDocumentWithCountZero) {
  fairswap::JsonValue doc;
  ASSERT_TRUE(fairswap::parse_json(format_json({}), doc));
  EXPECT_EQ(doc.at("count").number, 0.0);
  EXPECT_TRUE(doc.at("violations").is_array());
  EXPECT_TRUE(doc.at("violations").array.empty());
}

TEST(LintJson, EscapesQuotesAndControlCharactersInMessages) {
  const Violation v{"src/core/a.cpp", 3, "demo",
                    "path \"x\\y\"\n\ttab and \x01 control"};
  fairswap::JsonValue doc;
  std::string error;
  ASSERT_TRUE(fairswap::parse_json(format_json({v}), doc, &error)) << error;
  EXPECT_EQ(doc.at("violations").array[0].at("reason").string, v.message);
}

TEST(LintEngine, ViolationsAreSortedByFileAndLine) {
  const auto vs = lint_tree(fixture("raw_random_violation"));
  ASSERT_FALSE(vs.empty());
  for (std::size_t i = 1; i < vs.size(); ++i) {
    EXPECT_LE(vs[i - 1].file, vs[i].file);
    if (vs[i - 1].file == vs[i].file) {
      EXPECT_LE(vs[i - 1].line, vs[i].line);
    }
  }
}

}  // namespace
}  // namespace fairswap::lint
