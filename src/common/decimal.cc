#include "common/decimal.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>

namespace fsdm {

namespace {

// Rounds a digit vector (most significant first) to at most max_digits,
// using round-half-up. May carry out of the leading digit, in which case the
// vector grows back by one and *exponent is bumped.
void RoundDigits(std::vector<uint8_t>* digits, long* exponent,
                 int max_digits) {
  if (static_cast<int>(digits->size()) <= max_digits) return;
  bool round_up = (*digits)[max_digits] >= 5;
  digits->resize(max_digits);
  if (round_up) {
    int i = max_digits - 1;
    while (i >= 0) {
      if ((*digits)[i] == 9) {
        (*digits)[i] = 0;
        --i;
      } else {
        (*digits)[i]++;
        break;
      }
    }
    if (i < 0) {
      digits->insert(digits->begin(), 1);
      digits->resize(max_digits);  // keep cap after carry
      ++*exponent;
    }
  }
}

}  // namespace

Decimal Decimal::Make(int sign, long exponent, std::vector<uint8_t> digits) {
  // Strip leading zeros (adjusting exponent) and trailing zeros.
  size_t lead = 0;
  while (lead < digits.size() && digits[lead] == 0) ++lead;
  if (lead > 0) {
    digits.erase(digits.begin(), digits.begin() + lead);
    exponent -= static_cast<long>(lead);
  }
  while (!digits.empty() && digits.back() == 0) digits.pop_back();
  if (digits.empty() || sign == 0) return Decimal();

  RoundDigits(&digits, &exponent, kMaxDigits);
  // Rounding can leave trailing zeros ("0.999..9" -> "1.000..0").
  while (!digits.empty() && digits.back() == 0) digits.pop_back();
  if (digits.empty()) return Decimal();

  Decimal d;
  d.sign_ = static_cast<int8_t>(sign < 0 ? -1 : 1);
  d.exponent_ = static_cast<int32_t>(exponent);
  d.digits_ = std::move(digits);
  return d;
}

Decimal Decimal::FromInt64(int64_t v) {
  if (v == 0) return Decimal();
  int sign = 1;
  uint64_t mag;
  if (v < 0) {
    sign = -1;
    mag = static_cast<uint64_t>(-(v + 1)) + 1;  // avoid INT64_MIN overflow
  } else {
    mag = static_cast<uint64_t>(v);
  }
  std::vector<uint8_t> digits;
  while (mag > 0) {
    digits.push_back(static_cast<uint8_t>(mag % 10));
    mag /= 10;
  }
  std::reverse(digits.begin(), digits.end());
  long exponent = static_cast<long>(digits.size());
  return Make(sign, exponent, std::move(digits));
}

Result<Decimal> Decimal::FromDouble(double v) {
  if (std::isnan(v) || std::isinf(v)) {
    return Status::InvalidArgument("non-finite double has no Decimal value");
  }
  // Shortest round-tripping decimal text.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (strtod(buf, nullptr) == v) break;
  }
  return FromString(buf);
}

Result<Decimal> Decimal::FromString(std::string_view text) {
  const char* p = text.data();
  const char* end = p + text.size();
  if (p == end) return Status::ParseError("empty number");

  int sign = 1;
  if (*p == '-') {
    sign = -1;
    ++p;
  } else if (*p == '+') {
    ++p;
  }

  std::vector<uint8_t> digits;
  long exponent = 0;
  bool seen_digit = false;
  bool seen_point = false;
  long frac_digits = 0;
  long int_digits = 0;

  while (p < end) {
    char c = *p;
    if (c >= '0' && c <= '9') {
      seen_digit = true;
      digits.push_back(static_cast<uint8_t>(c - '0'));
      if (seen_point) {
        ++frac_digits;
      } else {
        ++int_digits;
      }
      ++p;
    } else if (c == '.' && !seen_point) {
      seen_point = true;
      ++p;
    } else {
      break;
    }
  }
  if (!seen_digit) return Status::ParseError("number has no digits");

  long exp_part = 0;
  if (p < end && (*p == 'e' || *p == 'E')) {
    ++p;
    int esign = 1;
    if (p < end && (*p == '-' || *p == '+')) {
      if (*p == '-') esign = -1;
      ++p;
    }
    if (p == end || *p < '0' || *p > '9') {
      return Status::ParseError("malformed exponent");
    }
    while (p < end && *p >= '0' && *p <= '9') {
      exp_part = exp_part * 10 + (*p - '0');
      if (exp_part > 1000000) return Status::ParseError("exponent overflow");
      ++p;
    }
    exp_part *= esign;
  }
  if (p != end) return Status::ParseError("trailing characters after number");

  exponent = int_digits + exp_part;
  (void)frac_digits;
  return Make(sign, exponent, std::move(digits));
}

bool Decimal::IsInteger() const {
  if (is_zero()) return true;
  return exponent_ >= static_cast<int32_t>(digits_.size());
}

std::string Decimal::ToString() const {
  if (is_zero()) return "0";
  std::string out;
  if (sign_ < 0) out.push_back('-');

  long n = static_cast<long>(digits_.size());
  long e = exponent_;
  // Plain notation when it stays compact.
  if (e >= 1 && e <= 21 && e >= n) {
    // Integer with trailing zeros: d1..dn 0...0
    for (uint8_t d : digits_) out.push_back(static_cast<char>('0' + d));
    out.append(static_cast<size_t>(e - n), '0');
  } else if (e >= 1 && e <= 21) {
    // d1..de . d(e+1)..dn
    for (long i = 0; i < e; ++i)
      out.push_back(static_cast<char>('0' + digits_[i]));
    out.push_back('.');
    for (long i = e; i < n; ++i)
      out.push_back(static_cast<char>('0' + digits_[i]));
  } else if (e <= 0 && e > -6) {
    out += "0.";
    out.append(static_cast<size_t>(-e), '0');
    for (uint8_t d : digits_) out.push_back(static_cast<char>('0' + d));
  } else {
    // Scientific: d1.d2..dn E (e-1)
    out.push_back(static_cast<char>('0' + digits_[0]));
    if (n > 1) {
      out.push_back('.');
      for (long i = 1; i < n; ++i)
        out.push_back(static_cast<char>('0' + digits_[i]));
    }
    char buf[16];
    snprintf(buf, sizeof(buf), "E%+ld", e - 1);
    out += buf;
  }
  return out;
}

double Decimal::ToDouble() const {
  if (is_zero()) return 0.0;
  return strtod(ToString().c_str(), nullptr);
}

namespace {

// The int64 with magnitude `mag` and the given sign, when it is in range.
bool SignedInt64(bool negative, uint64_t mag, int64_t* out) {
  if (!negative) {
    if (mag > static_cast<uint64_t>(INT64_MAX)) return false;
    *out = static_cast<int64_t>(mag);
    return true;
  }
  if (mag > static_cast<uint64_t>(INT64_MAX) + 1) return false;
  *out = static_cast<int64_t>(-static_cast<int64_t>(mag - 1) - 1);
  return true;
}

}  // namespace

Result<int64_t> Decimal::ToInt64() const {
  int64_t v = 0;
  if (TryToInt64(&v)) return v;
  if (!IsInteger()) return Status::InvalidArgument("not an integer");
  return Status::OutOfRange("exceeds int64 range");
}

bool Decimal::TryToInt64(int64_t* out) const {
  if (is_zero()) {
    *out = 0;
    return true;
  }
  if (!IsInteger() || exponent_ > 19) return false;
  uint64_t mag = 0;
  long n = static_cast<long>(digits_.size());
  for (long i = 0; i < exponent_; ++i) {
    uint8_t d = i < n ? digits_[i] : 0;
    if (mag > (UINT64_MAX - d) / 10) return false;
    mag = mag * 10 + d;
  }
  return SignedInt64(sign_ < 0, mag, out);
}

void Decimal::EncodeBinary(std::string* out) const {
  if (is_zero()) {
    out->push_back(static_cast<char>(0x80));
    return;
  }
  // Re-express as base-100: value = 0.P1P2... * 100^E. An odd decimal
  // exponent gets one leading zero digit so pairs align, and an odd digit
  // count one trailing zero.
  const long lead = exponent_ & 1;
  const long e100 = (exponent_ + lead) / 2;
  const long n = static_cast<long>(digits_.size()) + lead;
  auto digit = [&](long i) -> uint8_t {
    i -= lead;
    return i >= 0 && i < static_cast<long>(digits_.size()) ? digits_[i] : 0;
  };
  const bool negative = sign_ < 0;
  out->push_back(static_cast<char>(
      negative ? 0x40 - std::clamp(e100, -62L, 62L)
               : 0xC0 + std::clamp(e100, -62L, 62L)));
  for (long i = 0; i < n; i += 2) {
    uint8_t pair = static_cast<uint8_t>(digit(i) * 10 + digit(i + 1));
    out->push_back(static_cast<char>(negative ? 101 - pair : pair + 1));
  }
  if (negative) out->push_back(static_cast<char>(0x66));  // orders negatives
}

void Decimal::EncodeInt64Binary(int64_t v, std::string* out) {
  if (v == 0) {
    out->push_back(static_cast<char>(0x80));
    return;
  }
  const bool negative = v < 0;
  uint64_t mag = negative ? static_cast<uint64_t>(-(v + 1)) + 1
                          : static_cast<uint64_t>(v);
  // Base-100 digits of the magnitude, least significant first; the count
  // is the base-100 exponent, and trailing zero pairs are not stored (the
  // mantissa is normalized).
  uint8_t pairs[10];
  int count = 0;
  while (mag > 0) {
    pairs[count++] = static_cast<uint8_t>(mag % 100);
    mag /= 100;
  }
  int low = 0;
  while (pairs[low] == 0) ++low;
  out->push_back(static_cast<char>(negative ? 0x40 - count : 0xC0 + count));
  for (int i = count - 1; i >= low; --i) {
    out->push_back(
        static_cast<char>(negative ? 101 - pairs[i] : pairs[i] + 1));
  }
  if (negative) out->push_back(static_cast<char>(0x66));
}

Result<Decimal> Decimal::DecodeBinary(const uint8_t* data, size_t len) {
  if (len == 0) return Status::Corruption("empty decimal image");
  uint8_t header = data[0];
  if (header == 0x80) {
    if (len != 1) return Status::Corruption("zero decimal with trailing bytes");
    return Decimal();
  }
  bool negative = header < 0x80;
  long e100;
  size_t mant_len;
  if (negative) {
    e100 = 0x40 - static_cast<long>(header);
    if (len < 3 || data[len - 1] != 0x66) {
      return Status::Corruption("negative decimal missing terminator");
    }
    mant_len = len - 2;
  } else {
    e100 = static_cast<long>(header) - 0xC0;
    if (len < 2) return Status::Corruption("decimal image truncated");
    mant_len = len - 1;
  }

  std::vector<uint8_t> digits;
  digits.reserve(mant_len * 2);
  for (size_t i = 0; i < mant_len; ++i) {
    uint8_t b = data[1 + i];
    uint8_t pair;
    if (negative) {
      if (b < 1 || b > 101) return Status::Corruption("bad mantissa byte");
      pair = static_cast<uint8_t>(101 - b);
    } else {
      if (b < 1 || b > 100) return Status::Corruption("bad mantissa byte");
      pair = static_cast<uint8_t>(b - 1);
    }
    digits.push_back(static_cast<uint8_t>(pair / 10));
    digits.push_back(static_cast<uint8_t>(pair % 10));
  }
  return Make(negative ? -1 : 1, e100 * 2, std::move(digits));
}

bool Decimal::DecodeBinaryInt64(const uint8_t* data, size_t len,
                                int64_t* out) {
  if (len == 0) return false;
  const uint8_t header = data[0];
  if (header == 0x80) {
    if (len != 1) return false;
    *out = 0;
    return true;
  }
  const bool negative = header < 0x80;
  size_t pairs;
  long e100;
  if (negative) {
    if (len < 3 || data[len - 1] != 0x66) return false;
    pairs = len - 2;
    e100 = 0x40 - static_cast<long>(header);
  } else {
    if (len < 2) return false;
    pairs = len - 1;
    e100 = static_cast<long>(header) - 0xC0;
  }
  // value = 0.P1 P2 ... Pn * 100^e100 with base-100 pairs P: an integer
  // when every pair sits left of the point, and within int64 only below
  // 100^10.
  if (e100 < static_cast<long>(pairs) || e100 > 10) return false;
  uint64_t mag = 0;
  for (long i = 0; i < e100; ++i) {
    uint64_t pair = 0;
    if (static_cast<size_t>(i) < pairs) {
      const uint8_t b = data[1 + i];
      if (negative ? (b < 1 || b > 101) : (b < 1 || b > 100)) return false;
      pair = negative ? 101u - b : b - 1u;
    }
    if (mag > (UINT64_MAX - pair) / 100) return false;
    mag = mag * 100 + pair;
  }
  return SignedInt64(negative, mag, out);
}

int Decimal::CompareTo(const Decimal& other) const {
  if (sign_ != other.sign_) return sign_ < other.sign_ ? -1 : 1;
  if (sign_ == 0) return 0;
  int mag;  // comparison of magnitudes
  if (exponent_ != other.exponent_) {
    mag = exponent_ < other.exponent_ ? -1 : 1;
  } else {
    size_t n = std::min(digits_.size(), other.digits_.size());
    mag = 0;
    for (size_t i = 0; i < n; ++i) {
      if (digits_[i] != other.digits_[i]) {
        mag = digits_[i] < other.digits_[i] ? -1 : 1;
        break;
      }
    }
    if (mag == 0 && digits_.size() != other.digits_.size()) {
      mag = digits_.size() < other.digits_.size() ? -1 : 1;
    }
  }
  return sign_ > 0 ? mag : -mag;
}

Decimal Decimal::Negated() const {
  Decimal d = *this;
  d.sign_ = static_cast<int8_t>(-d.sign_);
  return d;
}

Decimal Decimal::Add(const Decimal& other) const {
  if (is_zero()) return other;
  if (other.is_zero()) return *this;

  // Work on magnitude digit strings aligned at a common exponent.
  auto aligned = [](const Decimal& d, long top_exp) {
    std::vector<uint8_t> v;
    long lead_zeros = top_exp - d.exponent_;
    v.insert(v.end(), static_cast<size_t>(lead_zeros), 0);
    v.insert(v.end(), d.digits_.begin(), d.digits_.end());
    return v;
  };
  long top = std::max(exponent_, other.exponent_) + 1;  // +1 headroom for carry
  std::vector<uint8_t> a = aligned(*this, top);
  std::vector<uint8_t> b = aligned(other, top);
  size_t n = std::max(a.size(), b.size());
  a.resize(n, 0);
  b.resize(n, 0);

  if (sign_ == other.sign_) {
    // Magnitude addition.
    std::vector<uint8_t> sum(n, 0);
    int carry = 0;
    for (size_t i = n; i-- > 0;) {
      int s = a[i] + b[i] + carry;
      sum[i] = static_cast<uint8_t>(s % 10);
      carry = s / 10;
    }
    // top had headroom, so carry must be consumed.
    return Make(sign_, top, std::move(sum));
  }

  // Opposite signs: subtract smaller magnitude from larger.
  int cmp = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      cmp = a[i] < b[i] ? -1 : 1;
      break;
    }
  }
  if (cmp == 0) return Decimal();
  const std::vector<uint8_t>& big = cmp > 0 ? a : b;
  const std::vector<uint8_t>& small = cmp > 0 ? b : a;
  int result_sign = cmp > 0 ? sign_ : other.sign_;
  std::vector<uint8_t> diff(n, 0);
  int borrow = 0;
  for (size_t i = n; i-- > 0;) {
    int s = big[i] - small[i] - borrow;
    if (s < 0) {
      s += 10;
      borrow = 1;
    } else {
      borrow = 0;
    }
    diff[i] = static_cast<uint8_t>(s);
  }
  return Make(result_sign, top, std::move(diff));
}

Decimal Decimal::Subtract(const Decimal& other) const {
  return Add(other.Negated());
}

Decimal Decimal::Multiply(const Decimal& other) const {
  if (is_zero() || other.is_zero()) return Decimal();
  size_t na = digits_.size();
  size_t nb = other.digits_.size();
  std::vector<int> acc(na + nb, 0);
  for (size_t i = na; i-- > 0;) {
    for (size_t j = nb; j-- > 0;) {
      acc[i + j + 1] += digits_[i] * other.digits_[j];
    }
  }
  for (size_t k = acc.size(); k-- > 1;) {
    acc[k - 1] += acc[k] / 10;
    acc[k] %= 10;
  }
  std::vector<uint8_t> digits(acc.begin(), acc.end());
  long exponent = static_cast<long>(exponent_) + other.exponent_;
  return Make(sign_ * other.sign_, exponent, std::move(digits));
}

Result<Decimal> Decimal::DivideApprox(const Decimal& other) const {
  if (other.is_zero()) return Status::InvalidArgument("division by zero");
  return FromDouble(ToDouble() / other.ToDouble());
}

}  // namespace fsdm
