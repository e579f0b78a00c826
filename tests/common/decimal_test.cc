#include "common/decimal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"

namespace fsdm {
namespace {

Decimal Dec(const std::string& s) {
  Result<Decimal> r = Decimal::FromString(s);
  EXPECT_TRUE(r.ok()) << s << ": " << r.status().ToString();
  return r.MoveValue();
}

TEST(DecimalTest, ParseAndPrintCanonical) {
  EXPECT_EQ(Dec("0").ToString(), "0");
  EXPECT_EQ(Dec("-0").ToString(), "0");
  EXPECT_EQ(Dec("0.0").ToString(), "0");
  EXPECT_EQ(Dec("42").ToString(), "42");
  EXPECT_EQ(Dec("-42").ToString(), "-42");
  EXPECT_EQ(Dec("3.14").ToString(), "3.14");
  EXPECT_EQ(Dec("0.001").ToString(), "0.001");
  EXPECT_EQ(Dec("100").ToString(), "100");
  EXPECT_EQ(Dec("1e2").ToString(), "100");
  EXPECT_EQ(Dec("1.5e3").ToString(), "1500");
  EXPECT_EQ(Dec("12.500").ToString(), "12.5");
  EXPECT_EQ(Dec("0012.5").ToString(), "12.5");
}

TEST(DecimalTest, ScientificFormForExtremeExponents) {
  EXPECT_EQ(Dec("1e30").ToString(), "1E+30");
  EXPECT_EQ(Dec("-2.5e-10").ToString(), "-2.5E-10");
  // Round-trip through text.
  for (const char* s : {"1e30", "-2.5e-10", "9.99e21", "1e-7"}) {
    Decimal d = Dec(s);
    EXPECT_EQ(d.CompareTo(Dec(d.ToString())), 0) << s;
  }
}

TEST(DecimalTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Decimal::FromString("").ok());
  EXPECT_FALSE(Decimal::FromString("abc").ok());
  EXPECT_FALSE(Decimal::FromString("1.2.3").ok());
  EXPECT_FALSE(Decimal::FromString("1e").ok());
  EXPECT_FALSE(Decimal::FromString("--1").ok());
  EXPECT_FALSE(Decimal::FromString("1x").ok());
}

TEST(DecimalTest, FromInt64Extremes) {
  EXPECT_EQ(Decimal::FromInt64(0).ToString(), "0");
  EXPECT_EQ(Decimal::FromInt64(INT64_MAX).ToString(), "9223372036854775807");
  EXPECT_EQ(Decimal::FromInt64(INT64_MIN).ToString(), "-9223372036854775808");
}

TEST(DecimalTest, Int64RoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{999999},
                    INT64_MAX, INT64_MIN}) {
    Result<int64_t> back = Decimal::FromInt64(v).ToInt64();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), v);
  }
}

TEST(DecimalTest, ToInt64RejectsFractionAndOverflow) {
  EXPECT_FALSE(Dec("1.5").ToInt64().ok());
  EXPECT_FALSE(Dec("1e40").ToInt64().ok());
  EXPECT_FALSE(Dec("9223372036854775808").ToInt64().ok());   // INT64_MAX+1
  EXPECT_TRUE(Dec("-9223372036854775808").ToInt64().ok());   // INT64_MIN
  EXPECT_FALSE(Dec("-9223372036854775809").ToInt64().ok());
}

TEST(DecimalTest, TryToInt64AgreesWithToInt64) {
  for (const char* text :
       {"0", "-0", "1", "-1", "1.5", "-1.5", "100.00", "1e40", "1E+19",
        "9223372036854775807", "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "18446744073709551616"}) {
    const Decimal d = Dec(text);
    Result<int64_t> checked = d.ToInt64();
    int64_t got = 12345;
    EXPECT_EQ(d.TryToInt64(&got), checked.ok()) << text;
    if (checked.ok()) {
      EXPECT_EQ(got, checked.value()) << text;
    } else {
      EXPECT_EQ(got, 12345) << text;  // untouched on a miss
    }
  }
}

TEST(DecimalTest, DoubleRoundTrip) {
  for (double v : {0.0, 1.0, -1.0, 3.14159, 1e-300, 2.2250738585072014e-308,
                   1.7976931348623157e308, 100.25}) {
    Result<Decimal> d = Decimal::FromDouble(v);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.value().ToDouble(), v);
  }
  EXPECT_FALSE(Decimal::FromDouble(std::numeric_limits<double>::quiet_NaN()).ok());
  EXPECT_FALSE(Decimal::FromDouble(std::numeric_limits<double>::infinity()).ok());
}

TEST(DecimalTest, CompareOrdering) {
  std::vector<std::string> ordered = {"-1000", "-3.15", "-3.14", "-0.001",
                                      "0",     "0.001", "1",     "1.0001",
                                      "2",     "10",    "99.9",  "1e10"};
  for (size_t i = 0; i < ordered.size(); ++i) {
    for (size_t j = 0; j < ordered.size(); ++j) {
      int expected = i < j ? -1 : (i > j ? 1 : 0);
      EXPECT_EQ(Dec(ordered[i]).CompareTo(Dec(ordered[j])), expected)
          << ordered[i] << " vs " << ordered[j];
    }
  }
}

TEST(DecimalTest, CompareIgnoresRepresentation) {
  EXPECT_EQ(Dec("100").CompareTo(Dec("1e2")), 0);
  EXPECT_EQ(Dec("0.5").CompareTo(Dec("5e-1")), 0);
  EXPECT_EQ(Dec("-12.50").CompareTo(Dec("-12.5")), 0);
}

TEST(DecimalTest, Addition) {
  EXPECT_EQ(Dec("1").Add(Dec("2")).ToString(), "3");
  EXPECT_EQ(Dec("0.1").Add(Dec("0.2")).ToString(), "0.3");  // exact!
  EXPECT_EQ(Dec("99.99").Add(Dec("0.01")).ToString(), "100");
  EXPECT_EQ(Dec("1").Add(Dec("-1")).ToString(), "0");
  EXPECT_EQ(Dec("-5").Add(Dec("3")).ToString(), "-2");
  EXPECT_EQ(Dec("3").Add(Dec("-5")).ToString(), "-2");
  EXPECT_EQ(Dec("1e10").Add(Dec("1")).ToString(), "10000000001");
  EXPECT_EQ(Dec("123.456").Add(Decimal()).ToString(), "123.456");
}

TEST(DecimalTest, Subtraction) {
  EXPECT_EQ(Dec("10").Subtract(Dec("0.5")).ToString(), "9.5");
  EXPECT_EQ(Dec("0.3").Subtract(Dec("0.1")).ToString(), "0.2");
  EXPECT_EQ(Dec("5").Subtract(Dec("5")).ToString(), "0");
}

TEST(DecimalTest, Multiplication) {
  EXPECT_EQ(Dec("12").Multiply(Dec("12")).ToString(), "144");
  EXPECT_EQ(Dec("0.5").Multiply(Dec("0.5")).ToString(), "0.25");
  EXPECT_EQ(Dec("-3").Multiply(Dec("4")).ToString(), "-12");
  EXPECT_EQ(Dec("1.5").Multiply(Dec("2")).ToString(), "3");
  EXPECT_EQ(Dec("100").Multiply(Decimal()).ToString(), "0");
  EXPECT_EQ(Dec("99999999").Multiply(Dec("99999999")).ToString(),
            "9999999800000001");
}

TEST(DecimalTest, DivideApprox) {
  Result<Decimal> r = Dec("1").DivideApprox(Dec("4"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ToString(), "0.25");
  EXPECT_FALSE(Dec("1").DivideApprox(Decimal()).ok());
}

TEST(DecimalTest, BinaryRoundTrip) {
  for (const char* s :
       {"0", "1", "-1", "42", "-42", "3.14", "-3.14", "0.001", "-0.001",
        "123456789.123456789", "1e20", "-1e20", "1e-20", "-1e-20", "9.9",
        "10", "100", "0.5", "-0.5", "55.5555"}) {
    Decimal d = Dec(s);
    std::string enc;
    d.EncodeBinary(&enc);
    Result<Decimal> back = Decimal::DecodeBinary(
        reinterpret_cast<const uint8_t*>(enc.data()), enc.size());
    ASSERT_TRUE(back.ok()) << s << ": " << back.status().ToString();
    EXPECT_EQ(back.value().CompareTo(d), 0) << s;
  }
}

TEST(DecimalTest, BinaryEncodingIsOrderPreserving) {
  // memcmp order of encodings must equal numeric order.
  std::vector<std::string> ordered = {"-1e10", "-123.45", "-1",    "-0.5",
                                      "-0.001", "0",      "0.001", "0.5",
                                      "1",      "1.5",    "2",     "123.45",
                                      "1e10"};
  std::vector<std::string> encs;
  for (const std::string& s : ordered) {
    std::string e;
    Dec(s).EncodeBinary(&e);
    encs.push_back(e);
  }
  for (size_t i = 0; i + 1 < encs.size(); ++i) {
    EXPECT_LT(encs[i], encs[i + 1])
        << ordered[i] << " should encode below " << ordered[i + 1];
  }
}

TEST(DecimalTest, DecodeRejectsCorruptImages) {
  EXPECT_FALSE(Decimal::DecodeBinary(nullptr, 0).ok());
  uint8_t zero_with_tail[] = {0x80, 0x01};
  EXPECT_FALSE(Decimal::DecodeBinary(zero_with_tail, 2).ok());
  uint8_t neg_no_term[] = {0x40, 0x50};
  EXPECT_FALSE(Decimal::DecodeBinary(neg_no_term, 2).ok());
  uint8_t pos_no_mantissa[] = {0xC1};
  EXPECT_FALSE(Decimal::DecodeBinary(pos_no_mantissa, 1).ok());
}

TEST(DecimalTest, DecodeBinaryInt64MatchesDecodeThenConvert) {
  std::vector<Decimal> cases;
  for (const char* text :
       {"0", "1", "-1", "5", "50", "-50", "99", "100", "-100", "0.5", "-0.5",
        "1.5", "12345678901234567", "9223372036854775807",
        "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "1E+19", "-1E+19", "1E+18", "1e40", "-1e40",
        "1e-5"}) {
    cases.push_back(Dec(text));
  }
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.Next()) >>
                      static_cast<int>(rng.Uniform(63));
    cases.push_back(Decimal::FromInt64(v));
  }
  for (const Decimal& d : cases) {
    std::string enc;
    d.EncodeBinary(&enc);
    const auto* bytes = reinterpret_cast<const uint8_t*>(enc.data());
    int64_t want = 0, got = 0;
    const bool fits = d.TryToInt64(&want);
    ASSERT_EQ(Decimal::DecodeBinaryInt64(bytes, enc.size(), &got), fits)
        << d.ToString();
    if (fits) EXPECT_EQ(got, want) << d.ToString();
  }
  // Malformed images are left to DecodeBinary, which reports them.
  uint8_t zero_with_tail[] = {0x80, 0x01};
  uint8_t neg_no_term[] = {0x3F, 0x50};
  uint8_t bad_pair[] = {0xC1, 0x00};
  uint8_t pos_no_mantissa[] = {0xC1};
  int64_t out = 7;
  EXPECT_FALSE(Decimal::DecodeBinaryInt64(nullptr, 0, &out));
  EXPECT_FALSE(Decimal::DecodeBinaryInt64(zero_with_tail, 2, &out));
  EXPECT_FALSE(Decimal::DecodeBinaryInt64(neg_no_term, 2, &out));
  EXPECT_FALSE(Decimal::DecodeBinaryInt64(bad_pair, 2, &out));
  EXPECT_FALSE(Decimal::DecodeBinaryInt64(pos_no_mantissa, 1, &out));
  EXPECT_EQ(out, 7);
}

TEST(DecimalTest, EncodeInt64BinaryMatchesFromInt64) {
  std::vector<int64_t> cases = {0,     1,       -1,      9,      10,
                                -10,   99,      100,     -100,   101,
                                1200,  120,     -1230,   1000000,
                                std::numeric_limits<int64_t>::max(),
                                std::numeric_limits<int64_t>::min()};
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    cases.push_back(static_cast<int64_t>(rng.Next()) >>
                    static_cast<int>(rng.Uniform(64)));
  }
  for (int64_t v : cases) {
    std::string want;
    std::string got = "prefix";
    Decimal::FromInt64(v).EncodeBinary(&want);
    Decimal::EncodeInt64Binary(v, &got);
    EXPECT_EQ(got, "prefix" + want) << v;
  }
}

TEST(DecimalTest, RoundsBeyondMaxDigits) {
  std::string fifty_nines(50, '9');
  Decimal d = Dec(fifty_nines);
  // Rounds up to 1e50.
  EXPECT_EQ(d.CompareTo(Dec("1e50")), 0);
}

// Property sweep: random decimal pairs round-trip and order correctly.
class DecimalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecimalPropertyTest, RandomizedRoundTripAndOrder) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    // Random decimal: up to 20 digits, exponent in [-15, 15].
    auto random_dec = [&]() {
      int ndigits = static_cast<int>(rng.Range(1, 20));
      std::string s;
      if (rng.NextBool()) s.push_back('-');
      for (int i = 0; i < ndigits; ++i) {
        s.push_back(static_cast<char>('0' + rng.Range(i == 0 ? 1 : 0, 9)));
      }
      long e = rng.Range(-15, 15);
      s += "e" + std::to_string(e);
      return Dec(s);
    };
    Decimal a = random_dec();
    Decimal b = random_dec();

    // Round-trip through binary.
    std::string ea, eb;
    a.EncodeBinary(&ea);
    b.EncodeBinary(&eb);
    Result<Decimal> ra = Decimal::DecodeBinary(
        reinterpret_cast<const uint8_t*>(ea.data()), ea.size());
    ASSERT_TRUE(ra.ok());
    EXPECT_EQ(ra.value().CompareTo(a), 0);

    // memcmp(ea, eb) sign must match CompareTo sign.
    int byte_cmp = ea < eb ? -1 : (ea > eb ? 1 : 0);
    EXPECT_EQ(byte_cmp, a.CompareTo(b)) << a.ToString() << " vs "
                                        << b.ToString();

    // The direct int64 decode agrees with decode-then-convert.
    for (const std::string* enc : {&ea, &eb}) {
      const auto* bytes = reinterpret_cast<const uint8_t*>(enc->data());
      const Decimal d = Decimal::DecodeBinary(bytes, enc->size()).MoveValue();
      int64_t want = 0, got = 0;
      const bool fits = d.TryToInt64(&want);
      EXPECT_EQ(Decimal::DecodeBinaryInt64(bytes, enc->size(), &got), fits)
          << d.ToString();
      if (fits) EXPECT_EQ(got, want) << d.ToString();
    }

    // Round-trip through text.
    EXPECT_EQ(Dec(a.ToString()).CompareTo(a), 0) << a.ToString();

    // Algebra on a narrower pair whose combined digit span stays inside
    // kMaxDigits, so a + b - b == a holds exactly (with the wide pair the
    // sum legitimately rounds a away, as in any fixed-precision decimal).
    auto narrow_dec = [&]() {
      int ndigits = static_cast<int>(rng.Range(1, 12));
      std::string s;
      if (rng.NextBool()) s.push_back('-');
      for (int i = 0; i < ndigits; ++i) {
        s.push_back(static_cast<char>('0' + rng.Range(i == 0 ? 1 : 0, 9)));
      }
      s += "e" + std::to_string(rng.Range(-5, 5));
      return Dec(s);
    };
    Decimal na = narrow_dec();
    Decimal nb = narrow_dec();
    EXPECT_EQ(na.Add(nb).Subtract(nb).CompareTo(na), 0)
        << na.ToString() << " + " << nb.ToString();
    // Commutativity (holds regardless of rounding).
    EXPECT_EQ(a.Add(b).CompareTo(b.Add(a)), 0);
    EXPECT_EQ(a.Multiply(b).CompareTo(b.Multiply(a)), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecimalPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 20160626));

}  // namespace
}  // namespace fsdm
