/**
 * @file
 * JsonWriter / JsonValue unit tests: string escaping, numeric
 * formatting stability (write -> parse round trip), structural
 * correctness, and parser error handling. The ecobench report and
 * diff pipeline rides entirely on these two classes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/json.h"
#include "util/logging.h"

namespace ecov {
namespace {

TEST(JsonWriterTest, EscapesSpecialCharacters)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "\"plain\"");
    EXPECT_EQ(JsonWriter::escape("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(JsonWriter::escape("back\\slash"), "\"back\\\\slash\"");
    EXPECT_EQ(JsonWriter::escape("line\nbreak"), "\"line\\nbreak\"");
    EXPECT_EQ(JsonWriter::escape("tab\there"), "\"tab\\there\"");
    EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)),
              "\"\\u0001\"");
    // UTF-8 passes through verbatim.
    EXPECT_EQ(JsonWriter::escape("gCO\xE2\x82\x82"),
              "\"gCO\xE2\x82\x82\"");
}

TEST(JsonWriterTest, FormatsDoubles)
{
    EXPECT_EQ(JsonWriter::formatDouble(0.0), "0");
    EXPECT_EQ(JsonWriter::formatDouble(1.5), "1.5");
    EXPECT_EQ(JsonWriter::formatDouble(-2.0), "-2");
    // Non-finite values have no JSON representation.
    EXPECT_EQ(JsonWriter::formatDouble(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(JsonWriter::formatDouble(
                  std::numeric_limits<double>::infinity()),
              "null");
}

TEST(JsonWriterTest, DoubleFormatRoundTrips)
{
    // Shortest-form output must re-parse to the identical bits; the
    // diff tool depends on this for same-binary comparisons.
    const double cases[] = {0.1,         1.0 / 3.0,      6.02214076e23,
                            -1.25e-7,    3600.000000001, 0.30000000000000004,
                            1e308,       -4.9e-324};
    for (double d : cases) {
        auto parsed = JsonValue::parse(JsonWriter::formatDouble(d));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->asDouble(), d) << JsonWriter::formatDouble(d);
    }
}

TEST(JsonWriterTest, BuildsNestedDocument)
{
    JsonWriter w(0); // compact
    w.beginObject();
    w.key("name");
    w.value("fig04");
    w.key("ticks");
    w.value(std::uint64_t{2880});
    w.key("metrics");
    w.beginObject();
    w.key("carbon_g");
    w.value(12.5);
    w.endObject();
    w.key("tags");
    w.beginArray();
    w.value("batch");
    w.value(true);
    w.endArray();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"name\":\"fig04\",\"ticks\":2880,"
              "\"metrics\":{\"carbon_g\":12.5},"
              "\"tags\":[\"batch\",true]}");
}

TEST(JsonWriterTest, IndentedOutputParses)
{
    JsonWriter w(2);
    w.beginObject();
    w.key("a");
    w.beginArray();
    w.value(1.0);
    w.value(2.0);
    w.endArray();
    w.key("b");
    w.beginObject();
    w.endObject();
    w.endObject();
    auto parsed = JsonValue::parse(w.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->asObject().size(), 2u);
    EXPECT_EQ(parsed->find("a")->asArray().size(), 2u);
}

TEST(JsonWriterTest, MisuseIsFatal)
{
    {
        JsonWriter w;
        w.beginObject();
        EXPECT_THROW(w.value(1.0), FatalError); // value without key
    }
    {
        JsonWriter w;
        w.beginArray();
        EXPECT_THROW(w.key("k"), FatalError); // key inside array
    }
    {
        JsonWriter w;
        w.beginObject();
        EXPECT_THROW(w.str(), FatalError); // unclosed container
    }
}

TEST(JsonValueTest, ParsesScalars)
{
    EXPECT_TRUE(JsonValue::parse("null")->isNull());
    EXPECT_EQ(JsonValue::parse("true")->asBool(), true);
    EXPECT_EQ(JsonValue::parse("false")->asBool(), false);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-12.5e2")->asDouble(), -1250.0);
    EXPECT_EQ(JsonValue::parse("\"hi\"")->asString(), "hi");
}

TEST(JsonValueTest, ParsesEscapes)
{
    auto v = JsonValue::parse("\"a\\n\\t\\\\\\\"\\u0041\\u00e9\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->asString(), "a\n\t\\\"A\xC3\xA9");
}

TEST(JsonValueTest, CombinesSurrogatePairsToUtf8)
{
    // U+1F600 as a surrogate pair must decode to 4-byte UTF-8, not
    // two 3-byte CESU-8 triples.
    auto v = JsonValue::parse("\"\\ud83d\\ude00\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->asString(), "\xF0\x9F\x98\x80");
    // Lone or mismatched surrogates are malformed input.
    EXPECT_FALSE(JsonValue::parse("\"\\ud83d\"").has_value());
    EXPECT_FALSE(JsonValue::parse("\"\\ud83dx\"").has_value());
    EXPECT_FALSE(JsonValue::parse("\"\\ud83d\\u0041\"").has_value());
    EXPECT_FALSE(JsonValue::parse("\"\\ude00\"").has_value());
}

TEST(JsonValueTest, ParsesNestedStructures)
{
    auto v = JsonValue::parse(R"({
        "schema_version": 1,
        "scenarios": [
            {"name": "fig01", "metrics": {"mean": 212.5}},
            {"name": "fig04", "metrics": {}}
        ]
    })");
    ASSERT_TRUE(v.has_value());
    const auto &scen = v->find("scenarios")->asArray();
    ASSERT_EQ(scen.size(), 2u);
    EXPECT_EQ(scen[0].stringOr("name", ""), "fig01");
    EXPECT_DOUBLE_EQ(
        scen[0].find("metrics")->numberOr("mean", 0.0), 212.5);
    EXPECT_EQ(v->numberOr("schema_version", 0.0), 1.0);
    EXPECT_EQ(v->numberOr("absent", -1.0), -1.0);
}

TEST(JsonValueTest, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(JsonValue::parse("", &err).has_value());
    EXPECT_FALSE(JsonValue::parse("{", &err).has_value());
    EXPECT_FALSE(JsonValue::parse("[1,]", &err).has_value());
    EXPECT_FALSE(JsonValue::parse("{\"a\" 1}", &err).has_value());
    EXPECT_FALSE(JsonValue::parse("\"unterminated", &err).has_value());
    EXPECT_FALSE(JsonValue::parse("12 34", &err).has_value());
    EXPECT_FALSE(JsonValue::parse("nul", &err).has_value());
    EXPECT_FALSE(err.empty());
}

TEST(JsonValueTest, DeepNestingIsAParseErrorNotACrash)
{
    // Hostile/corrupt input must fail cleanly, not overflow the
    // parser's recursion stack.
    std::string deep(200000, '[');
    std::string err;
    EXPECT_FALSE(JsonValue::parse(deep, &err).has_value());
    EXPECT_NE(err.find("depth"), std::string::npos);
    // A few hundred levels short of the limit still parses.
    std::string ok = std::string(200, '[') + "1" + std::string(200, ']');
    EXPECT_TRUE(JsonValue::parse(ok).has_value());
}

TEST(JsonValueTest, TypeMismatchIsFatal)
{
    auto v = JsonValue::parse("{\"a\": 1}");
    ASSERT_TRUE(v.has_value());
    EXPECT_THROW(v->asArray(), FatalError);
    EXPECT_THROW(v->find("a")->asString(), FatalError);
}

} // namespace
} // namespace ecov
