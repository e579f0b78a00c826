#include "common/value.h"

#include <cstdio>
#include <cstdlib>

#include "common/hash.h"

namespace fsdm {

std::string_view ScalarTypeName(ScalarType type) {
  switch (type) {
    case ScalarType::kNull:
      return "null";
    case ScalarType::kBool:
      return "boolean";
    case ScalarType::kInt64:
    case ScalarType::kDouble:
    case ScalarType::kDecimal:
      return "number";
    case ScalarType::kString:
      return "string";
    case ScalarType::kDate:
      return "date";
    case ScalarType::kTimestamp:
      return "timestamp";
    case ScalarType::kBinary:
      return "binary";
  }
  return "unknown";
}

Value Value::Date(int32_t days) { return Value(Repr(DateRepr{days})); }
Value Value::Timestamp(int64_t micros) {
  return Value(Repr(TimestampRepr{micros}));
}
Value Value::Binary(std::string bytes) {
  return Binary(std::make_shared<const std::string>(std::move(bytes)));
}
Value Value::Binary(std::shared_ptr<const std::string> bytes) {
  return Value(Repr(BinaryRepr{std::move(bytes)}));
}

ScalarType Value::type() const {
  switch (repr_.index()) {
    case 0:
      return ScalarType::kNull;
    case 1:
      return ScalarType::kBool;
    case 2:
      return ScalarType::kInt64;
    case 3:
      return ScalarType::kDouble;
    case 4:
      return ScalarType::kDecimal;
    case 5:
      return ScalarType::kString;
    case 6:
      return ScalarType::kDate;
    case 7:
      return ScalarType::kTimestamp;
    default:
      return ScalarType::kBinary;
  }
}

bool Value::IsNumeric() const {
  ScalarType t = type();
  return t == ScalarType::kInt64 || t == ScalarType::kDouble ||
         t == ScalarType::kDecimal;
}

int32_t Value::AsDate() const { return std::get<DateRepr>(repr_).days; }
int64_t Value::AsTimestamp() const {
  return std::get<TimestampRepr>(repr_).micros;
}
const std::string& Value::AsBinary() const {
  return *std::get<BinaryRepr>(repr_).bytes;
}
const std::shared_ptr<const std::string>& Value::BinaryPayload() const {
  return std::get<BinaryRepr>(repr_).bytes;
}

double Value::NumericAsDouble() const {
  switch (type()) {
    case ScalarType::kInt64:
      return static_cast<double>(AsInt64());
    case ScalarType::kDouble:
      return AsDouble();
    case ScalarType::kDecimal:
      return AsDecimal().ToDouble();
    default:
      return 0.0;
  }
}

Decimal Value::NumericAsDecimal() const {
  switch (type()) {
    case ScalarType::kInt64:
      return Decimal::FromInt64(AsInt64());
    case ScalarType::kDouble: {
      Result<Decimal> d = Decimal::FromDouble(AsDouble());
      return d.ok() ? d.MoveValue() : Decimal();
    }
    case ScalarType::kDecimal:
      return AsDecimal();
    default:
      return Decimal();
  }
}

bool Value::ExactInt64(int64_t* out) const {
  if (type() == ScalarType::kInt64) {
    *out = AsInt64();
    return true;
  }
  return type() == ScalarType::kDecimal && AsDecimal().TryToInt64(out);
}

namespace {

int Spaceship(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

template <typename T>
int Spaceship(const T& a, const T& b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

}  // namespace

Result<int> Value::CompareTo(const Value& other) const {
  ScalarType ta = type();
  ScalarType tb = other.type();
  if (ta == ScalarType::kNull || tb == ScalarType::kNull) {
    if (ta == tb) return 0;
    return ta == ScalarType::kNull ? -1 : 1;
  }
  if (IsNumeric() && other.IsNumeric()) {
    // Exact path when both are int64; exact decimal path unless a double is
    // involved.
    if (ta == ScalarType::kInt64 && tb == ScalarType::kInt64) {
      return Spaceship(AsInt64(), other.AsInt64());
    }
    if (ta != ScalarType::kDouble && tb != ScalarType::kDouble) {
      // Integral decimals that fit compare as int64, building no Decimal.
      int64_t a = 0, b = 0;
      if (ExactInt64(&a) && other.ExactInt64(&b)) return Spaceship(a, b);
      return NumericAsDecimal().CompareTo(other.NumericAsDecimal());
    }
    return Spaceship(NumericAsDouble(), other.NumericAsDouble());
  }
  if (ta != tb) {
    return Status::InvalidArgument(
        std::string("cannot compare ") + std::string(ScalarTypeName(ta)) +
        " with " + std::string(ScalarTypeName(tb)));
  }
  switch (ta) {
    case ScalarType::kBool:
      return Spaceship(AsBool() ? 1 : 0, other.AsBool() ? 1 : 0);
    case ScalarType::kString:
      return Spaceship(AsString(), other.AsString());
    case ScalarType::kDate:
      return Spaceship(AsDate(), other.AsDate());
    case ScalarType::kTimestamp:
      return Spaceship(AsTimestamp(), other.AsTimestamp());
    case ScalarType::kBinary:
      return Spaceship(AsBinary(), other.AsBinary());
    default:
      return Status::Internal("unexpected type in CompareTo");
  }
}

bool Value::EqualsForGrouping(const Value& other) const {
  ScalarType ta = type();
  ScalarType tb = other.type();
  if (ta == ScalarType::kNull || tb == ScalarType::kNull) return ta == tb;
  if (IsNumeric() && other.IsNumeric()) {
    Result<int> cmp = CompareTo(other);
    return cmp.ok() && cmp.value() == 0;
  }
  if (ta != tb) return false;
  Result<int> cmp = CompareTo(other);
  return cmp.ok() && cmp.value() == 0;
}

uint64_t Value::HashForGrouping() const {
  switch (type()) {
    case ScalarType::kNull:
      return 0x9e3779b97f4a7c15ull;
    case ScalarType::kBool:
      return AsBool() ? 2 : 1;
    case ScalarType::kInt64:
    case ScalarType::kDouble:
    case ScalarType::kDecimal: {
      // Hash the canonical decimal binary image so numerically equal values
      // collide regardless of representation.
      std::string enc;
      NumericAsDecimal().EncodeBinary(&enc);
      return Hash64(enc, /*seed=*/3);
    }
    case ScalarType::kString:
      return Hash64(AsString(), /*seed=*/5);
    case ScalarType::kDate:
      return Hash64(std::string_view(
                        reinterpret_cast<const char*>(&std::get<DateRepr>(repr_).days),
                        sizeof(int32_t)),
                    /*seed=*/7);
    case ScalarType::kTimestamp: {
      int64_t v = AsTimestamp();
      return Hash64(std::string_view(reinterpret_cast<const char*>(&v),
                                     sizeof(v)),
                    /*seed=*/11);
    }
    case ScalarType::kBinary:
      return Hash64(AsBinary(), /*seed=*/13);
  }
  return 0;
}

std::string Value::ToDisplayString() const {
  switch (type()) {
    case ScalarType::kNull:
      return "NULL";
    case ScalarType::kBool:
      return AsBool() ? "true" : "false";
    case ScalarType::kInt64:
      return std::to_string(AsInt64());
    case ScalarType::kDouble: {
      // Shortest representation that round-trips the double.
      char buf[40];
      double d = AsDouble();
      for (int prec = 15; prec <= 17; ++prec) {
        snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (strtod(buf, nullptr) == d) break;
      }
      return buf;
    }
    case ScalarType::kDecimal:
      return AsDecimal().ToString();
    case ScalarType::kString:
      return AsString();
    case ScalarType::kDate: {
      char buf[24];
      snprintf(buf, sizeof(buf), "DATE(%d)", AsDate());
      return buf;
    }
    case ScalarType::kTimestamp: {
      char buf[40];
      snprintf(buf, sizeof(buf), "TS(%lld)",
               static_cast<long long>(AsTimestamp()));
      return buf;
    }
    case ScalarType::kBinary:
      return "<binary:" + std::to_string(AsBinary().size()) + "B>";
  }
  return "?";
}

}  // namespace fsdm
