#include "common/json.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace fairswap {
namespace {

TEST(JsonWriter, WritesNestedObjectsAndLists) {
  std::ostringstream out;
  JsonWriter json(out);
  json.open();
  json.field("name", "fairswap");
  json.field("count", 3);
  json.field("ratio", 0.5);
  json.field("ok", true);
  json.open_list("items");
  json.element("a");
  json.element(2.0);
  json.close_list();
  json.open("nested");
  json.field("x", 1);
  json.close();
  json.close();
  EXPECT_EQ(out.str(),
            "{\"name\":\"fairswap\",\"count\":3,\"ratio\":0.5,\"ok\":true,"
            "\"items\":[\"a\",2],\"nested\":{\"x\":1}}");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  std::ostringstream out;
  JsonWriter json(out);
  json.open();
  json.field("label", "k=4, 20% \"quoted\"\n");
  json.field("value", 0.123456789);
  json.field("flag", false);
  json.open_list("seq");
  json.element(1.0);
  json.element(2.0);
  json.close_list();
  json.close();

  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(parse_json(out.str(), parsed, &error)) << error;
  EXPECT_EQ(parsed.at("label").string, "k=4, 20% \"quoted\"\n");
  EXPECT_DOUBLE_EQ(parsed.at("value").number, 0.123456789);
  EXPECT_FALSE(parsed.at("flag").boolean);
  ASSERT_EQ(parsed.at("seq").array.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.at("seq").array[1].number, 2.0);
}

TEST(JsonParse, AcceptsScalarsAndRejectsGarbage) {
  JsonValue v;
  EXPECT_TRUE(parse_json("42", v));
  EXPECT_DOUBLE_EQ(v.number, 42.0);
  EXPECT_TRUE(parse_json("-1.5e3", v));
  EXPECT_DOUBLE_EQ(v.number, -1500.0);
  EXPECT_TRUE(parse_json("null", v));
  EXPECT_EQ(v.kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(parse_json("  [1, 2]  ", v));
  EXPECT_TRUE(parse_json("{\"a\": {\"b\": []}}", v));

  std::string error;
  EXPECT_FALSE(parse_json("{", v, &error));
  EXPECT_FALSE(parse_json("{} trailing", v, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
  EXPECT_FALSE(parse_json("{'single': 1}", v, &error));
  EXPECT_FALSE(parse_json("\"unterminated", v, &error));
  EXPECT_FALSE(parse_json("truish", v, &error));
}

TEST(JsonParse, DeepNestingIsAnErrorNotACrash) {
  // 100,000 open brackets used to recurse until the stack overflowed.
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parse_json(std::string(100'000, '['), v, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  EXPECT_FALSE(parse_json(std::string(100'000, '{'), v, &error));

  // Exactly kMaxJsonDepth levels parse, objects and arrays mixed; one
  // more is refused.
  const auto nested = [](std::size_t levels) {
    std::string doc;
    for (std::size_t i = 0; i < levels; ++i) {
      doc += i % 2 == 0 ? "{\"a\":" : "[";
    }
    doc += '1';
    for (std::size_t i = levels; i-- > 0;) doc += i % 2 == 0 ? '}' : ']';
    return doc;
  };
  EXPECT_TRUE(parse_json(nested(kMaxJsonDepth), v, &error)) << error;
  const JsonValue* inner = &v;
  for (std::size_t i = 0; i < kMaxJsonDepth; ++i) {
    inner = i % 2 == 0 ? &inner->at("a") : &inner->array.at(0);
  }
  EXPECT_DOUBLE_EQ(inner->number, 1.0);
  EXPECT_FALSE(parse_json(nested(kMaxJsonDepth + 1), v, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

TEST(JsonParse, RepeatedMemberNameIsAnError) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parse_json(R"({"a": 1, "b": 2, "a": 3})", v, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  // The same name in two different objects is fine.
  const std::string nested = R"({"a": {"a": 1}, "b": [{"a": 2}, {"a": 3}]})";
  EXPECT_TRUE(parse_json(nested, v, &error)) << error;
}

TEST(JsonValue, MissingKeysChainToNull) {
  JsonValue v;
  ASSERT_TRUE(parse_json("{\"a\": 1}", v));
  EXPECT_EQ(v.at("missing").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.at("missing").at("deeper").kind, JsonValue::Kind::kNull);
  EXPECT_FALSE(v.has("missing"));
  EXPECT_TRUE(v.has("a"));
}

}  // namespace
}  // namespace fairswap
