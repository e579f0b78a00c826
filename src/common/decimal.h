#ifndef FSDM_COMMON_DECIMAL_H_
#define FSDM_COMMON_DECIMAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fsdm {

/// Arbitrary-precision (up to 40 significant digits) decimal number in the
/// style of the Oracle NUMBER type. This is the engine-native scalar numeric
/// format: SQL expression evaluation, OSON leaf values and the in-memory
/// column store all use it, so JSON numbers cross the JSON<->SQL boundary
/// without reformatting (OSON design criterion 3, §4.1).
///
/// Value model: sign * 0.d1 d2 ... dn * 10^exponent with d1 != 0 and
/// dn != 0 (normalized), or exact zero.
///
/// The binary image produced by EncodeBinary() is order-preserving under
/// unsigned bytewise (memcmp) comparison, like Oracle NUMBER:
///   - zero encodes as the single byte 0x80;
///   - positive values: header 0xC0+E (E = base-100 exponent), then base-100
///     mantissa digits each stored as d+1 (range 1..100);
///   - negative values: header 0x40-E, mantissa digits stored as 101-d, then
///     a 0x66 terminator so that shorter (greater) negatives sort above
///     longer ones.
class Decimal {
 public:
  /// Zero.
  Decimal() = default;

  static Decimal FromInt64(int64_t v);
  /// Converts via the shortest decimal string that round-trips the double.
  /// Infinities and NaN are rejected.
  static Result<Decimal> FromDouble(double v);
  /// Parses a JSON-grammar number ("-12.5e+3"). Leading '+' also accepted.
  static Result<Decimal> FromString(std::string_view text);

  /// Decodes an EncodeBinary() image; consumes exactly `len` bytes.
  static Result<Decimal> DecodeBinary(const uint8_t* data, size_t len);
  /// Decodes an EncodeBinary() image straight to int64 when it holds an
  /// integer that fits, building no Decimal. False (and *out untouched)
  /// otherwise, malformed images included: DecodeBinary reports those.
  static bool DecodeBinaryInt64(const uint8_t* data, size_t len,
                                int64_t* out);

  bool is_zero() const { return sign_ == 0; }
  bool is_negative() const { return sign_ < 0; }
  /// True if the value has no fractional part.
  bool IsInteger() const;

  /// Number of significant decimal digits (0 for zero).
  int digit_count() const { return static_cast<int>(digits_.size()); }

  /// Canonical text form: plain decimal notation when the exponent is
  /// moderate, scientific otherwise ("1.5E+40"). Round-trips via FromString.
  std::string ToString() const;

  /// Nearest double (may lose precision for >17 digits).
  double ToDouble() const;

  /// Exact conversion to int64; fails if fractional or out of range.
  Result<int64_t> ToInt64() const;
  /// ToInt64 without a Status: false (and *out untouched) when fractional
  /// or out of range. For hot paths where a miss is an ordinary outcome.
  bool TryToInt64(int64_t* out) const;

  /// Appends the order-preserving binary image to *out.
  void EncodeBinary(std::string* out) const;
  /// Appends FromInt64(v)'s binary image to *out, building no Decimal.
  static void EncodeInt64Binary(int64_t v, std::string* out);

  /// Three-way comparison: -1, 0, +1.
  int CompareTo(const Decimal& other) const;

  Decimal Negated() const;
  Decimal Add(const Decimal& other) const;
  Decimal Subtract(const Decimal& other) const;
  Decimal Multiply(const Decimal& other) const;
  /// Division via double arithmetic (sufficient for AVG-style aggregates).
  Result<Decimal> DivideApprox(const Decimal& other) const;

  bool operator==(const Decimal& other) const { return CompareTo(other) == 0; }
  bool operator<(const Decimal& other) const { return CompareTo(other) < 0; }

  /// Hard cap on stored significant digits; excess digits are rounded.
  static constexpr int kMaxDigits = 40;

 private:
  // Builds a normalized value; rounds to kMaxDigits.
  static Decimal Make(int sign, long exponent, std::vector<uint8_t> digits);

  int8_t sign_ = 0;       // -1, 0, +1
  int32_t exponent_ = 0;  // decimal point position; see class comment
  std::vector<uint8_t> digits_;  // significant digits, most significant first
};

}  // namespace fsdm

#endif  // FSDM_COMMON_DECIMAL_H_
