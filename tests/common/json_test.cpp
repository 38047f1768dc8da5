#include "common/json.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"

namespace bb {
namespace {

TEST(JsonParse, ObjectWithScalars) {
  JsonValue v;
  ASSERT_TRUE(json_parse(
      R"({"s":"hi","n":2.5,"i":-3,"t":true,"f":false,"z":null})", v));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get_string("s"), "hi");
  EXPECT_DOUBLE_EQ(v.get_number("n"), 2.5);
  EXPECT_DOUBLE_EQ(v.get_number("i"), -3.0);
  ASSERT_NE(v.find("t"), nullptr);
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_FALSE(v.find("f")->boolean);
  EXPECT_TRUE(v.find("z")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.get_string("missing", "fb"), "fb");
  EXPECT_DOUBLE_EQ(v.get_number("s", 9.0), 9.0);  // type mismatch: fallback
}

TEST(JsonParse, NestedArraysAndObjects) {
  JsonValue v;
  ASSERT_TRUE(json_parse(R"({"a":[1,2,{"b":[3]}],"o":{"k":"v"}})", v));
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[2].find("b")->array[0].number, 3.0);
  EXPECT_EQ(v.find("o")->get_string("k"), "v");
}

TEST(JsonParse, StringEscapes) {
  JsonValue v;
  ASSERT_TRUE(json_parse(R"({"s":"a\"b\\c\nA"})", v));
  EXPECT_EQ(v.get_string("s"), "a\"b\\c\nA");
}

TEST(JsonParse, RoundTripsJsonDouble) {
  const double val = 130.92317960000001;
  JsonValue v;
  ASSERT_TRUE(json_parse("{\"x\":" + json_double(val) + "}", v));
  EXPECT_DOUBLE_EQ(v.get_number("x"), val);
}

// Integer literals keep their exact 64-bit value (a double rounds above
// 2^53); anything that is not a plain non-negative integer fitting in 64
// bits is refused by get_u64.
TEST(JsonParse, ExactUnsignedIntegers) {
  JsonValue v;
  ASSERT_TRUE(json_parse(
      R"({"a":9007199254740993,"b":18446744073709551615,)"
      R"("c":18446744073709551616,"d":-1,"e":1.5,"f":1e3,"g":"7","h":0})",
      v));
  std::uint64_t x = 7;
  ASSERT_TRUE(v.get_u64("a", x));
  EXPECT_EQ(x, 9'007'199'254'740'993u);
  ASSERT_TRUE(v.get_u64("b", x));
  EXPECT_EQ(x, ~std::uint64_t{0});
  ASSERT_TRUE(v.get_u64("h", x));
  EXPECT_EQ(x, 0u);
  x = 7;
  for (const char* bad : {"c", "d", "e", "f", "g"}) {
    EXPECT_FALSE(v.get_u64(bad, x)) << bad;
    EXPECT_EQ(x, 7u) << bad;
  }
  EXPECT_TRUE(v.get_u64("absent", x));
  EXPECT_EQ(x, 0u);
}

TEST(JsonParse, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("", v, &err));
  EXPECT_FALSE(json_parse("{", v));
  EXPECT_FALSE(json_parse(R"({"a":})", v));
  EXPECT_FALSE(json_parse(R"({"a":1,})", v));
  EXPECT_FALSE(json_parse("[1,2", v));
  EXPECT_FALSE(json_parse("\"unterminated", v));
  EXPECT_FALSE(json_parse("nul", v));
}

TEST(JsonParse, RejectsTrailingGarbage) {
  JsonValue v;
  EXPECT_FALSE(json_parse("{} trailing", v));
  EXPECT_FALSE(json_parse("1 2", v));
}

TEST(JsonParse, AcceptsSurroundingWhitespace) {
  JsonValue v;
  ASSERT_TRUE(json_parse("  { \"a\" : 1 }  ", v));
  EXPECT_DOUBLE_EQ(v.get_number("a"), 1.0);
}

// Every proper prefix of a valid document must be rejected (journal files
// end in torn lines exactly like these after a crash or SIGINT).
TEST(JsonParseFuzz, RejectsEveryTruncation) {
  const std::string doc =
      R"({"design":"Bumblebee","cores":[{"ipc":1.5},{"ipc":0.25}],)"
      R"("ok":true,"note":"a\"b\\c"})";
  JsonValue probe;
  ASSERT_TRUE(json_parse(doc, probe));
  for (std::size_t len = 0; len < doc.size(); ++len) {
    JsonValue v;
    EXPECT_FALSE(json_parse(doc.substr(0, len), v)) << "prefix len " << len;
  }
}

// Random byte mutations of a valid document — including bytes that are not
// valid UTF-8 (0x80..0xFF) — must parse or fail cleanly, never crash.
TEST(JsonParseFuzz, MutatedDocumentsNeverCrash) {
  const std::string doc =
      R"({"k":[1,2.5,-3e2,true,false,null,"s"],"o":{"n":{"m":[[]]}}})";
  SplitMix64 rng(0x1505);
  for (int iter = 0; iter < 5000; ++iter) {
    std::string mutated = doc;
    const u64 edits = 1 + rng.next() % 4;
    for (u64 e = 0; e < edits; ++e) {
      mutated[rng.next() % mutated.size()] =
          static_cast<char>(rng.next() & 0xFF);
    }
    JsonValue v;
    std::string err;
    (void)json_parse(mutated, v, &err);  // outcome is free; crashing is not
  }
}

// Pure byte soup, not derived from any valid document.
TEST(JsonParseFuzz, GarbageInputNeverCrashes) {
  SplitMix64 rng(0xBADF00D);
  for (int iter = 0; iter < 5000; ++iter) {
    std::string garbage;
    const u64 len = rng.next() % 64;
    for (u64 i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.next() & 0xFF));
    }
    JsonValue v;
    (void)json_parse(garbage, v);
  }
}

TEST(JsonParseFuzz, DeeplyNestedInputFailsInsteadOfOverflowing) {
  // Past the parser's depth cap (64) the answer must be a clean failure,
  // not a stack overflow.
  const std::string deep_array(1000, '[');
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse(deep_array, v, &err));
  EXPECT_FALSE(json_parse(deep_array + std::string(1000, ']'), v, &err));

  std::string deep_object;
  for (int i = 0; i < 200; ++i) deep_object += "{\"a\":";
  EXPECT_FALSE(json_parse(deep_object, v));

  // At depth well under the cap, nesting still parses.
  std::string ok = std::string(32, '[') + "1" + std::string(32, ']');
  EXPECT_TRUE(json_parse(ok, v));
}

TEST(JsonParseFuzz, NonUtf8BytesInsideStringsDoNotCrash) {
  std::string doc = "{\"s\":\"";
  doc.push_back(static_cast<char>(0xFF));
  doc.push_back(static_cast<char>(0xC3));
  doc.push_back(static_cast<char>(0x28));  // invalid 2-byte sequence
  doc += "\"}";
  JsonValue v;
  (void)json_parse(doc, v);  // accept or reject; must not crash
}

}  // namespace
}  // namespace bb
