#include "common/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace fairswap {
namespace {

Config parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

/// The message a typed read throws for `key=value`, or "" when it parses.
template <typename Read>
std::string read_error(const std::string& value, Read read) {
  Config c;
  c.set("x", value);
  try {
    read(c);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(Config, ParsesKeyValueArgs) {
  const Config c = parse({"nodes=1000", "k=4"});
  EXPECT_EQ(c.get_u64("nodes", 0), 1000u);
  EXPECT_EQ(c.get_u64("k", 0), 4u);
}

TEST(Config, AcceptsDoubleDashPrefix) {
  const Config c = parse({"--seed=42"});
  EXPECT_EQ(c.get_u64("seed", 0), 42u);
}

TEST(Config, CollectsPositionalArguments) {
  const Config c = parse({"run", "files=10"});
  ASSERT_EQ(c.positional().size(), 1u);
  EXPECT_EQ(c.positional()[0], "run");
}

TEST(Config, TypedGettersFallBackOnMissingKey) {
  const Config c = parse({});
  EXPECT_EQ(c.get_u64("absent", 7), 7u);
  EXPECT_DOUBLE_EQ(c.get_double("absent", 2.5), 2.5);
  EXPECT_EQ(c.get_string("absent", "x"), "x");
  EXPECT_TRUE(c.get_bool("absent", true));
  // The lower bound applies to given values, not to the default.
  EXPECT_EQ(c.get_u64("absent", 0, /*min=*/1), 0u);
}

TEST(Config, ParsesDoubles) {
  const Config c = parse({"share=0.2", "neg=-1.5", "exp=1e-3", "dot=.5"});
  EXPECT_DOUBLE_EQ(c.get_double("share", 0.0), 0.2);
  EXPECT_DOUBLE_EQ(c.get_double("neg", 0.0), -1.5);
  EXPECT_DOUBLE_EQ(c.get_double("exp", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(c.get_double("dot", 0.0), 0.5);
}

TEST(Config, ParsesBooleans) {
  const Config c = parse({"a=true", "b=0", "c=YES", "d=off"});
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_FALSE(c.get_bool("b", true));
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
}

TEST(Config, FromTextSkipsCommentsAndBlanks) {
  const Config c = Config::from_text("# comment\n\nnodes=10\nk=4 # trailing\n");
  EXPECT_EQ(c.get_u64("nodes", 0), 10u);
  EXPECT_EQ(c.get_u64("k", 0), 4u);
}

TEST(Config, LaterValuesOverwrite) {
  const Config c = parse({"k=4", "k=20"});
  EXPECT_EQ(c.get_u64("k", 0), 20u);
}

TEST(Config, TypedReadsRejectMalformedValues) {
  const auto u64 = [](const Config& c) { (void)c.get_u64("x", 0); };
  const auto number = [](const Config& c) { (void)c.get_double("x", 0.0); };
  const auto flag = [](const Config& c) { (void)c.get_bool("x", false); };
  for (const char* bad : {" -1", "+3", "nan", "inf", "1e999", "abc", ""}) {
    EXPECT_NE(read_error(bad, u64), "") << "'" << bad << "'";
    EXPECT_NE(read_error(bad, number), "") << "'" << bad << "'";
    EXPECT_NE(read_error(bad, flag), "") << "'" << bad << "'";
  }
  // Unsigned reads also refuse what strtoull would wrap or clamp; thread
  // and shard counts are read this way, so no binary starts 2^64 - 1
  // workers.
  for (const char* bad : {"-1", "-0", "18446744073709551616", "0x10", "3 "}) {
    EXPECT_NE(read_error(bad, u64), "") << "'" << bad << "'";
  }
  EXPECT_EQ(read_error("18446744073709551615", u64), "");
  for (const char* bad : {"-inf", "-nan", "0x1p3", "1e-999"}) {
    EXPECT_NE(read_error(bad, number), "") << "'" << bad << "'";
  }
  // The message names the key and the value, as the binding table does.
  EXPECT_EQ(read_error("-1", u64), "x: '-1' is not an unsigned integer");

  // A lower bound rejects what lies below it.
  const auto positive = [](const Config& c) { (void)c.get_u64("x", 5, 1); };
  EXPECT_EQ(read_error("0", positive), "x: must be at least 1");
  EXPECT_EQ(read_error("1", positive), "");

  // A string read takes any value but an empty one.
  const auto text = [](const Config& c) { (void)c.get_string("x", "d"); };
  EXPECT_EQ(read_error("", text), "x: must not be empty");
  EXPECT_EQ(read_error("-1", text), "");

  // The unknown-key check names the key and what is accepted.
  const Config c = parse({"files=5", "filez=10"});
  EXPECT_NO_THROW(c.require_known({"files", "filez"}));
  try {
    c.require_known({"files", "seed"});
    ADD_FAILURE() << "filez= was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown argument 'filez' (accepted: files seed)");
  }
}

TEST(Config, HasAndGet) {
  const Config c = parse({"x=1"});
  EXPECT_TRUE(c.has("x"));
  EXPECT_FALSE(c.has("y"));
  EXPECT_EQ(c.get("x").value(), "1");
  EXPECT_FALSE(c.get("y").has_value());
}

}  // namespace
}  // namespace fairswap
