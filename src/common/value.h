#ifndef FSDM_COMMON_VALUE_H_
#define FSDM_COMMON_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>

#include "common/decimal.h"
#include "common/status.h"

namespace fsdm {

/// Scalar type tags shared by the SQL engine, the JSON scalar model and the
/// binary codecs. JSON itself only has string/number/bool/null; like BSON
/// and OSON we extend the set with date/timestamp/binary so typed virtual
/// columns can round-trip engine-native values.
enum class ScalarType : uint8_t {
  kNull = 0,
  kBool,
  kInt64,    ///< fast path for integral numbers that fit in 64 bits
  kDouble,   ///< IEEE-754 binary64 encoding option for JSON numbers
  kDecimal,  ///< engine-native Decimal (default JSON number encoding)
  kString,
  kDate,       ///< days since 1970-01-01
  kTimestamp,  ///< microseconds since epoch
  kBinary,     ///< raw bytes
};

/// Returns a stable lowercase name ("number", "string", ...) matching the
/// vocabulary the paper's DataGuide tables use. Int64/double/decimal all
/// report "number".
std::string_view ScalarTypeName(ScalarType type);

/// A SQL scalar value. Small, copyable; strings are owned. Binary payloads
/// are immutable and shared: copying a binary Value bumps a reference count
/// instead of copying the bytes, so an OSON image can flow from the IMC or
/// the table heap through scans, filters and result rows without a copy.
class Value {
 public:
  /// SQL NULL.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Repr(v)); }
  static Value Int64(int64_t v) { return Value(Repr(v)); }
  static Value Double(double v) { return Value(Repr(v)); }
  static Value Dec(Decimal v) { return Value(Repr(std::move(v))); }
  static Value String(std::string v) { return Value(Repr(std::move(v))); }
  static Value Date(int32_t days);
  static Value Timestamp(int64_t micros);
  static Value Binary(std::string bytes);
  /// Shares an existing payload; `bytes` must not be null.
  static Value Binary(std::shared_ptr<const std::string> bytes);

  ScalarType type() const;
  bool is_null() const { return type() == ScalarType::kNull; }
  /// True for int64/double/decimal.
  bool IsNumeric() const;

  bool AsBool() const { return std::get<bool>(repr_); }
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const Decimal& AsDecimal() const { return std::get<Decimal>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }
  int32_t AsDate() const;
  int64_t AsTimestamp() const;
  const std::string& AsBinary() const;
  /// The shared payload behind AsBinary(), for holders that keep it.
  const std::shared_ptr<const std::string>& BinaryPayload() const;

  /// Any numeric kind to double (lossy for wide decimals).
  double NumericAsDouble() const;
  /// Any numeric kind to Decimal (exact).
  Decimal NumericAsDecimal() const;

  /// SQL-style three-way comparison with numeric coercion across
  /// int64/double/decimal. Returns error for incomparable type pairs
  /// (e.g. string vs number); NULL compares less than everything else
  /// (NULLS FIRST total order for sorting — predicate evaluation handles
  /// NULL separately).
  Result<int> CompareTo(const Value& other) const;

  /// Equality used by hash join/group-by keys: type-tagged, no coercion
  /// except among numeric kinds.
  bool EqualsForGrouping(const Value& other) const;
  /// Hash consistent with EqualsForGrouping.
  uint64_t HashForGrouping() const;

  /// Display form: SQL-ish text (strings unquoted). NULL -> "NULL".
  std::string ToDisplayString() const;

 private:
  // Date/timestamp/binary piggyback on tagged wrappers so the variant can
  // distinguish them from int64/string.
  struct DateRepr {
    int32_t days;
  };
  struct TimestampRepr {
    int64_t micros;
  };
  struct BinaryRepr {
    std::shared_ptr<const std::string> bytes;  // never null
  };
  using Repr = std::variant<std::monostate, bool, int64_t, double, Decimal,
                            std::string, DateRepr, TimestampRepr, BinaryRepr>;

  explicit Value(Repr repr) : repr_(std::move(repr)) {}

  // Int64, or a Decimal that is integral and fits: the exact int64 value.
  bool ExactInt64(int64_t* out) const;

  Repr repr_;
};

}  // namespace fsdm

#endif  // FSDM_COMMON_VALUE_H_
