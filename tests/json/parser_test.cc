#include "json/parser.h"

#include <gtest/gtest.h>

#include "json/node.h"
#include "json/serializer.h"

namespace fsdm::json {
namespace {

std::unique_ptr<JsonNode> MustParse(std::string_view text) {
  Result<std::unique_ptr<JsonNode>> r = Parse(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() ? r.MoveValue() : nullptr;
}

TEST(ParserTest, Scalars) {
  EXPECT_TRUE(MustParse("null")->scalar().is_null());
  EXPECT_EQ(MustParse("true")->scalar().AsBool(), true);
  EXPECT_EQ(MustParse("false")->scalar().AsBool(), false);
  EXPECT_EQ(MustParse("42")->scalar().AsInt64(), 42);
  EXPECT_EQ(MustParse("-17")->scalar().AsInt64(), -17);
  EXPECT_EQ(MustParse("\"hello\"")->scalar().AsString(), "hello");
}

TEST(ParserTest, NumberTyping) {
  // Integral fits int64 -> kInt64.
  EXPECT_EQ(MustParse("123")->scalar().type(), ScalarType::kInt64);
  // 1e2 is integral -> int64 fast path after Decimal normalization.
  EXPECT_EQ(MustParse("1e2")->scalar().AsInt64(), 100);
  // Fractional -> Decimal, exactly.
  const JsonNode* n = MustParse("0.1").release();
  EXPECT_EQ(n->scalar().type(), ScalarType::kDecimal);
  EXPECT_EQ(n->scalar().AsDecimal().ToString(), "0.1");
  delete n;
  // Beyond int64 -> Decimal.
  EXPECT_EQ(MustParse("99999999999999999999")->scalar().type(),
            ScalarType::kDecimal);
}

TEST(ParserTest, Objects) {
  auto doc = MustParse(R"({"a": 1, "b": {"c": [2, 3]}})");
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->field_count(), 2u);
  EXPECT_EQ(doc->GetField("a")->scalar().AsInt64(), 1);
  const JsonNode* b = doc->GetField("b");
  ASSERT_TRUE(b->is_object());
  const JsonNode* c = b->GetField("c");
  ASSERT_TRUE(c->is_array());
  EXPECT_EQ(c->array_size(), 2u);
  EXPECT_EQ(c->element(1)->scalar().AsInt64(), 3);
}

TEST(ParserTest, EmptyContainers) {
  EXPECT_EQ(MustParse("{}")->field_count(), 0u);
  EXPECT_EQ(MustParse("[]")->array_size(), 0u);
  EXPECT_EQ(MustParse("[{},[]]")->array_size(), 2u);
}

TEST(ParserTest, WhitespaceTolerance) {
  auto doc = MustParse(" \t\n{ \"a\" :\r [ 1 , 2 ] } \n");
  EXPECT_EQ(doc->GetField("a")->array_size(), 2u);
}

TEST(ParserTest, StringEscapes) {
  EXPECT_EQ(MustParse(R"("a\"b")")->scalar().AsString(), "a\"b");
  EXPECT_EQ(MustParse(R"("a\\b")")->scalar().AsString(), "a\\b");
  EXPECT_EQ(MustParse(R"("a\/b")")->scalar().AsString(), "a/b");
  EXPECT_EQ(MustParse(R"("\b\f\n\r\t")")->scalar().AsString(),
            "\b\f\n\r\t");
  EXPECT_EQ(MustParse(R"("A")")->scalar().AsString(), "A");
  EXPECT_EQ(MustParse(R"("é")")->scalar().AsString(), "\xc3\xa9");
  EXPECT_EQ(MustParse(R"("中")")->scalar().AsString(),
            "\xe4\xb8\xad");  // CJK, 3-byte UTF-8
  // Surrogate pair: U+1F600.
  EXPECT_EQ(MustParse(R"("😀")")->scalar().AsString(),
            "\xf0\x9f\x98\x80");
}

TEST(ParserTest, EscapesInsideLongerString) {
  EXPECT_EQ(MustParse(R"("preApost")")->scalar().AsString(), "preApost");
  EXPECT_EQ(MustParse(R"("x\ny")")->scalar().AsString(), "x\ny");
}

TEST(ParserTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "}", "[1,", "[1 2]", "{\"a\":}", "{\"a\" 1}", "{a:1}",
        "tru", "nul", "+1", "01", "1.", ".5", "1e", "\"abc", "\"\\x\"",
        "\"\\u12\"", "[1]]", "{}{}", "\"\\ud800\"", "\"\\ud800\\u0041\"",
        "\x01", "\"tab\tliteral\""}) {
    EXPECT_FALSE(Parse(bad).ok()) << "should reject: " << bad;
  }
}

TEST(ParserTest, DepthLimit) {
  std::string deep(600, '[');
  deep += std::string(600, ']');
  EXPECT_FALSE(Parse(deep).ok());
  ParseOptions opts;
  opts.max_depth = 1000;
  EXPECT_TRUE(Parse(deep, opts).ok());
}

TEST(ParserTest, DuplicateKeysPolicy) {
  const char* doc = R"({"a":1,"a":2})";
  EXPECT_TRUE(Parse(doc).ok());  // allowed by default
  ParseOptions strict;
  strict.reject_duplicate_keys = true;
  EXPECT_FALSE(Parse(doc, strict).ok());
  // Keys compare decoded, and only within one object.
  EXPECT_FALSE(Parse(R"({"a\u0062":1,"ab":2})", strict).ok());
  EXPECT_FALSE(Parse(R"({"x":{"y":1},"x":2})", strict).ok());
  EXPECT_TRUE(Parse(R"({"\u0061":1,"\u0062":{"\u0061":2},"c":3})", strict)
                  .ok());
  EXPECT_TRUE(Parse(R"([{"a":1},{"a":2}])", strict).ok());
}

TEST(ParserTest, DuplicateKeyCheckKeepsEscapedKeysAndNesting) {
  ParseOptions strict;
  strict.reject_duplicate_keys = true;
  // Escaped keys are decoded into one reused buffer: each one the check
  // remembers must keep its own text.
  EXPECT_TRUE(Parse(R"({"a\u0062":1,"a\u0063":2,"\u0061d":3})", strict).ok());
  EXPECT_TRUE(Parse(R"({"a\nb":1,"a\tb":2,"a b":3})", strict).ok());
  EXPECT_FALSE(Parse(R"({"a\u0062":1,"x\u0079":2,"a\u0062":3})", strict)
                   .ok());
  EXPECT_FALSE(Parse(R"({"x\u0079":1,"a\u0062":2,"xy":3})", strict).ok());
  // Nested objects may reuse their parents' names, and closing one leaves
  // its parent's keys in force.
  EXPECT_TRUE(
      Parse(R"({"a":{"a":{"a":1},"b":2},"b":{"a":3,"b":4}})", strict).ok());
  EXPECT_TRUE(Parse(R"({"a":{"b":1},"b":2})", strict).ok());
  EXPECT_FALSE(Parse(R"({"a":{"b":1},"c":[{"a":2}],"a":3})", strict).ok());
  Result<std::unique_ptr<JsonNode>> dup =
      Parse(R"({"k":{"x":1},"m":{"x":2},"k":3})", strict);
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate object key 'k'"),
            std::string::npos);
}

TEST(ParserTest, ValidateMatchesParse) {
  EXPECT_TRUE(Validate(R"({"a":[1,2,{"b":null}]})").ok());
  EXPECT_FALSE(Validate("{bad}").ok());
}

TEST(ParserTest, ErrorsCarryOffset) {
  Status st = Validate("[1, 2, oops]");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("offset"), std::string::npos);
}

// Event-stream test: count events of each kind.
class CountingHandler : public JsonEventHandler {
 public:
  Status OnStartObject() override { ++objects; return Status::Ok(); }
  Status OnEndObject() override { return Status::Ok(); }
  Status OnStartArray() override { ++arrays; return Status::Ok(); }
  Status OnEndArray() override { return Status::Ok(); }
  Status OnKey(std::string_view) override { ++keys; return Status::Ok(); }
  Status OnString(std::string_view) override { ++strings; return Status::Ok(); }
  Status OnNumber(std::string_view) override { ++numbers; return Status::Ok(); }
  Status OnBool(bool) override { ++bools; return Status::Ok(); }
  Status OnNull() override { ++nulls; return Status::Ok(); }

  int objects = 0, arrays = 0, keys = 0, strings = 0, numbers = 0, bools = 0,
      nulls = 0;
};

TEST(ParserTest, EventStream) {
  CountingHandler h;
  ASSERT_TRUE(ParseEvents(
                  R"({"a":[1,"x",true,null],"b":{"c":2.5}})", &h)
                  .ok());
  EXPECT_EQ(h.objects, 2);
  EXPECT_EQ(h.arrays, 1);
  EXPECT_EQ(h.keys, 3);
  EXPECT_EQ(h.strings, 1);
  EXPECT_EQ(h.numbers, 2);
  EXPECT_EQ(h.bools, 1);
  EXPECT_EQ(h.nulls, 1);
}

TEST(ParserTest, HandlerErrorAbortsParse) {
  class Aborting final : public CountingHandler {
   public:
    Status OnNumber(std::string_view) override {
      return Status::Internal("stop");
    }
  } h;
  EXPECT_FALSE(ParseEvents("[1]", &h).ok());
}

TEST(NumberTextToValueTest, FastAndSlowPaths) {
  EXPECT_EQ(NumberTextToValue("0").value().AsInt64(), 0);
  EXPECT_EQ(NumberTextToValue("-123456789012345678").value().AsInt64(),
            -123456789012345678LL);
  EXPECT_EQ(NumberTextToValue("3.5").value().type(), ScalarType::kDecimal);
  // 19-digit integer exceeds the fast path but still lands in int64.
  EXPECT_EQ(NumberTextToValue("1234567890123456789").value().AsInt64(),
            1234567890123456789LL);
}

}  // namespace
}  // namespace fsdm::json
