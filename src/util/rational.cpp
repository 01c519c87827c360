#include "util/rational.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace flowsched {
namespace {

std::int64_t narrow(__int128 x) {
  if (x > std::numeric_limits<std::int64_t>::max() ||
      x < std::numeric_limits<std::int64_t>::min()) {
    throw std::overflow_error("Rational: 64-bit overflow after reduction");
  }
  return static_cast<std::int64_t>(x);
}

int countr_zero128(unsigned __int128 x) {
  const auto lo = static_cast<std::uint64_t>(x);
  return lo != 0 ? std::countr_zero(lo)
                 : 64 + std::countr_zero(static_cast<std::uint64_t>(x >> 64));
}

}  // namespace

unsigned __int128 gcd128(__int128 a, __int128 b) {
  // Stein's binary gcd: shifts and subtractions only, where Euclid pays a
  // 128-bit software division per step. Magnitudes are taken unsigned, so
  // the most negative value is safe too.
  using U = unsigned __int128;
  U u = a < 0 ? -static_cast<U>(a) : static_cast<U>(a);
  U v = b < 0 ? -static_cast<U>(b) : static_cast<U>(b);
  if (u == 0) return v;
  if (v == 0) return u;
  const int shift = countr_zero128(u | v);
  u >>= countr_zero128(u);
  do {
    v >>= countr_zero128(v);
    if (u > v) std::swap(u, v);
    if (u == 1) break;  // coprime; at once when one side is a power of two
    v -= u;
  } while (v != 0);
  return u << shift;
}

Rational Rational::make(__int128 num, __int128 den) {
  if (den == 0) throw std::invalid_argument("Rational: zero denominator");
  if (den < 0) {
    num = -num;
    den = -den;
  }
  if (num == 0) den = 1;
  const auto g = static_cast<__int128>(num == 0 ? 1 : gcd128(num, den));
  Rational r;
  r.num_ = narrow(num / g);
  r.den_ = narrow(den / g);
  return r;
}

Rational::Rational(std::int64_t numerator) : num_(numerator), den_(1) {}

Rational::Rational(std::int64_t numerator, std::int64_t denominator) {
  *this = make(numerator, denominator);
}

double Rational::to_double() const {
  return static_cast<double>(num_) / static_cast<double>(den_);
}

std::string Rational::str() const {
  std::ostringstream out;
  out << *this;
  return out.str();
}

Rational Rational::operator-() const {
  Rational r;
  r.num_ = -num_;
  r.den_ = den_;
  return r;
}

Rational& Rational::operator+=(const Rational& o) {
  *this = make(static_cast<__int128>(num_) * o.den_ +
                   static_cast<__int128>(o.num_) * den_,
               static_cast<__int128>(den_) * o.den_);
  return *this;
}

Rational& Rational::operator-=(const Rational& o) { return *this += -o; }

Rational& Rational::operator*=(const Rational& o) {
  *this = make(static_cast<__int128>(num_) * o.num_,
               static_cast<__int128>(den_) * o.den_);
  return *this;
}

Rational& Rational::operator/=(const Rational& o) {
  if (o.num_ == 0) throw std::domain_error("Rational: division by zero");
  *this = make(static_cast<__int128>(num_) * o.den_,
               static_cast<__int128>(den_) * o.num_);
  return *this;
}

std::strong_ordering operator<=>(const Rational& a, const Rational& b) {
  const __int128 lhs = static_cast<__int128>(a.num_) * b.den_;
  const __int128 rhs = static_cast<__int128>(b.num_) * a.den_;
  if (lhs < rhs) return std::strong_ordering::less;
  if (lhs > rhs) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  os << r.num();
  if (r.den() != 1) os << '/' << r.den();
  return os;
}

std::optional<Rational> rational_from_double(double x) {
  if (!std::isfinite(x)) return std::nullopt;
  if (x == 0.0) return Rational(0);
  int exp = 0;
  const double frac = std::frexp(x, &exp);  // x = frac * 2^exp, |frac| in [0.5, 1)
  // frac * 2^53 is an odd-or-even integer with |.| < 2^53: exact in int64.
  auto mant = static_cast<std::int64_t>(std::ldexp(frac, 53));
  int e = exp - 53;  // x = mant * 2^e
  const bool negative = mant < 0;
  std::uint64_t umant = negative ? static_cast<std::uint64_t>(-mant)
                                 : static_cast<std::uint64_t>(mant);
  const int shift = std::countr_zero(umant);
  umant >>= shift;
  e += shift;
  if (e >= 0) {
    if (e >= 63 ||
        umant > static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max() >> e)) {
      return std::nullopt;
    }
    const auto num = static_cast<std::int64_t>(umant << e);
    return Rational(negative ? -num : num);
  }
  if (-e >= 63) return std::nullopt;  // denominator would exceed int64
  // An odd mantissa over a power of two is already in lowest terms.
  const auto num = static_cast<std::int64_t>(umant);
  Rational r;
  r.num_ = negative ? -num : num;
  r.den_ = static_cast<std::int64_t>(std::uint64_t{1} << -e);
  return r;
}

}  // namespace flowsched
