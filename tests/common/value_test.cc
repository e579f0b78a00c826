#include "common/value.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace fsdm {
namespace {

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value::Null().type(), ScalarType::kNull);
  EXPECT_EQ(Value::Bool(true).type(), ScalarType::kBool);
  EXPECT_EQ(Value::Int64(1).type(), ScalarType::kInt64);
  EXPECT_EQ(Value::Double(1.5).type(), ScalarType::kDouble);
  EXPECT_EQ(Value::Dec(Decimal::FromInt64(1)).type(), ScalarType::kDecimal);
  EXPECT_EQ(Value::String("x").type(), ScalarType::kString);
  EXPECT_EQ(Value::Date(19000).type(), ScalarType::kDate);
  EXPECT_EQ(Value::Timestamp(1).type(), ScalarType::kTimestamp);
  EXPECT_EQ(Value::Binary("ab").type(), ScalarType::kBinary);
}

TEST(ValueTest, TypeNamesMatchDataGuideVocabulary) {
  EXPECT_EQ(ScalarTypeName(ScalarType::kInt64), "number");
  EXPECT_EQ(ScalarTypeName(ScalarType::kDouble), "number");
  EXPECT_EQ(ScalarTypeName(ScalarType::kDecimal), "number");
  EXPECT_EQ(ScalarTypeName(ScalarType::kString), "string");
  EXPECT_EQ(ScalarTypeName(ScalarType::kBool), "boolean");
  EXPECT_EQ(ScalarTypeName(ScalarType::kNull), "null");
}

TEST(ValueTest, NumericCoercionInCompare) {
  Value i = Value::Int64(2);
  Value d = Value::Double(2.0);
  Value dec = Value::Dec(Decimal::FromInt64(2));
  EXPECT_EQ(i.CompareTo(d).value(), 0);
  EXPECT_EQ(i.CompareTo(dec).value(), 0);
  EXPECT_EQ(d.CompareTo(dec).value(), 0);
  EXPECT_EQ(Value::Int64(1).CompareTo(Value::Double(1.5)).value(), -1);
  EXPECT_EQ(Value::Dec(Decimal::FromString("2.5").MoveValue())
                .CompareTo(Value::Int64(2))
                .value(),
            1);
}

TEST(ValueTest, ExactInt64Compare) {
  // Values that lose precision as doubles must still compare exactly.
  Value a = Value::Int64(9007199254740993LL);  // 2^53 + 1
  Value b = Value::Int64(9007199254740992LL);  // 2^53
  EXPECT_EQ(a.CompareTo(b).value(), 1);
}

Decimal Dec(const char* text) { return Decimal::FromString(text).MoveValue(); }

// Integral decimals that fit compare with int64 values on an int64 path
// that builds no Decimal; every answer must equal the Decimal path's.
TEST(ValueTest, DecimalVersusIntCompareMatchesDecimalPath) {
  const char* decimals[] = {
      "-9223372036854775808", "-9223372036854775809", "9223372036854775807",
      "9223372036854775808",  "1E+19",  "-1E+19",  "1.5",  "-1.5",
      "0",  "-0",  "-7",  "100.00",  "-2",  "12345678901234567890123.5"};
  const int64_t ints[] = {INT64_MIN, INT64_MIN + 1, INT64_MAX, INT64_MAX - 1,
                          -7, -2, -1, 0, 1, 2, 100};
  for (const char* text : decimals) {
    const Decimal d = Dec(text);
    for (int64_t n : ints) {
      const int expected = d.CompareTo(Decimal::FromInt64(n));
      EXPECT_EQ(Value::Dec(d).CompareTo(Value::Int64(n)).value(), expected)
          << text << " vs " << n;
      EXPECT_EQ(Value::Int64(n).CompareTo(Value::Dec(d)).value(), -expected)
          << n << " vs " << text;
    }
    for (const char* other : decimals) {
      EXPECT_EQ(Value::Dec(d).CompareTo(Value::Dec(Dec(other))).value(),
                d.CompareTo(Dec(other)))
          << text << " vs " << other;
    }
  }
  // The boundary answers, spelled out.
  EXPECT_EQ(Value::Dec(Dec("-9223372036854775808"))
                .CompareTo(Value::Int64(INT64_MIN))
                .value(),
            0);
  EXPECT_EQ(Value::Dec(Dec("9223372036854775807"))
                .CompareTo(Value::Int64(INT64_MAX))
                .value(),
            0);
  EXPECT_EQ(Value::Dec(Dec("9223372036854775808"))
                .CompareTo(Value::Int64(INT64_MAX))
                .value(),
            1);
  EXPECT_EQ(Value::Dec(Dec("1E+19")).CompareTo(Value::Int64(INT64_MAX)).value(),
            1);
  EXPECT_EQ(Value::Dec(Dec("1.5")).CompareTo(Value::Int64(1)).value(), 1);
  EXPECT_EQ(Value::Dec(Dec("1.5")).CompareTo(Value::Int64(2)).value(), -1);
  EXPECT_EQ(Value::Dec(Dec("-1.5")).CompareTo(Value::Int64(-1)).value(), -1);
  EXPECT_EQ(Value::Dec(Dec("-0")).CompareTo(Value::Int64(0)).value(), 0);
}

TEST(ValueTest, IncomparableTypesError) {
  EXPECT_FALSE(Value::String("a").CompareTo(Value::Int64(1)).ok());
  EXPECT_FALSE(Value::Bool(true).CompareTo(Value::String("true")).ok());
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_EQ(Value::Null().CompareTo(Value::Int64(-100)).value(), -1);
  EXPECT_EQ(Value::Int64(-100).CompareTo(Value::Null()).value(), 1);
  EXPECT_EQ(Value::Null().CompareTo(Value::Null()).value(), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_EQ(Value::String("a").CompareTo(Value::String("b")).value(), -1);
  EXPECT_EQ(Value::String("b").CompareTo(Value::String("b")).value(), 0);
  EXPECT_EQ(Value::String("ba").CompareTo(Value::String("b")).value(), 1);
}

TEST(ValueTest, GroupingEqualityCoalescesNumericKinds) {
  Value i = Value::Int64(100);
  Value dec = Value::Dec(Decimal::FromString("100.00").MoveValue());
  EXPECT_TRUE(i.EqualsForGrouping(dec));
  EXPECT_EQ(i.HashForGrouping(), dec.HashForGrouping());
  EXPECT_FALSE(i.EqualsForGrouping(Value::String("100")));
  EXPECT_TRUE(Value::Null().EqualsForGrouping(Value::Null()));
  EXPECT_FALSE(Value::Null().EqualsForGrouping(Value::Int64(0)));
}

TEST(ValueTest, GroupingHashDistinguishesValues) {
  EXPECT_NE(Value::Int64(1).HashForGrouping(),
            Value::Int64(2).HashForGrouping());
  EXPECT_NE(Value::String("a").HashForGrouping(),
            Value::String("b").HashForGrouping());
}

// Copying a binary Value shares its payload; comparison, grouping
// equality and hashing read the bytes, so they do not depend on whether
// two values share one payload or hold equal copies.
TEST(ValueTest, CopiedBinarySharesItsPayload) {
  const Value a = Value::Binary(std::string(100, 'x'));
  const Value shared = a;
  EXPECT_EQ(&shared.AsBinary(), &a.AsBinary());
  EXPECT_EQ(a.BinaryPayload().use_count(), 2);

  const Value equal = Value::Binary(std::string(100, 'x'));
  const Value other = Value::Binary(std::string(100, 'y'));
  EXPECT_NE(&equal.AsBinary(), &a.AsBinary());
  for (const Value* v : {&shared, &equal}) {
    EXPECT_EQ(a.CompareTo(*v).value(), 0);
    EXPECT_TRUE(a.EqualsForGrouping(*v));
    EXPECT_EQ(a.HashForGrouping(), v->HashForGrouping());
  }
  EXPECT_EQ(a.CompareTo(other).value(), -1);
  EXPECT_EQ(other.CompareTo(a).value(), 1);
  EXPECT_FALSE(a.EqualsForGrouping(other));
  EXPECT_NE(a.HashForGrouping(), other.HashForGrouping());
  EXPECT_EQ(a.ToDisplayString(), "<binary:100B>");
}

TEST(ValueTest, DisplayStrings) {
  EXPECT_EQ(Value::Null().ToDisplayString(), "NULL");
  EXPECT_EQ(Value::Bool(false).ToDisplayString(), "false");
  EXPECT_EQ(Value::Int64(-7).ToDisplayString(), "-7");
  EXPECT_EQ(Value::String("hi").ToDisplayString(), "hi");
  EXPECT_EQ(Value::Dec(Decimal::FromString("3.5").MoveValue())
                .ToDisplayString(),
            "3.5");
}

TEST(ValueTest, NumericConversions) {
  EXPECT_DOUBLE_EQ(Value::Int64(3).NumericAsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).NumericAsDouble(), 2.5);
  EXPECT_EQ(Value::Double(2.5).NumericAsDecimal().ToString(), "2.5");
  EXPECT_EQ(Value::Int64(42).NumericAsDecimal().ToString(), "42");
}

}  // namespace
}  // namespace fsdm
