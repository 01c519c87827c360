// Exact rational arithmetic on 64-bit numerator/denominator.
//
// Used by the exact instantiation of the simplex solver (lp/simplex.hpp) and
// by tie-sensitive checks in the adversary constructions, where floating
// point could turn an exact tie into an arbitrary ordering. Intermediate
// products are computed in 128 bits and every result is normalized; overflow
// of the reduced result throws std::overflow_error rather than wrapping.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

namespace flowsched {

class Rational {
 public:
  constexpr Rational() = default;
  Rational(std::int64_t numerator);  // NOLINT(google-explicit-constructor)
  Rational(std::int64_t numerator, std::int64_t denominator);

  std::int64_t num() const { return num_; }
  std::int64_t den() const { return den_; }

  double to_double() const;
  std::string str() const;

  Rational operator-() const;
  Rational& operator+=(const Rational& o);
  Rational& operator-=(const Rational& o);
  Rational& operator*=(const Rational& o);
  Rational& operator/=(const Rational& o);

  friend Rational operator+(Rational a, const Rational& b) { return a += b; }
  friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
  friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
  friend Rational operator/(Rational a, const Rational& b) { return a /= b; }

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& a, const Rational& b);

  friend Rational abs(const Rational& r) { return r.num_ < 0 ? -r : r; }
  friend std::optional<Rational> rational_from_double(double x);

 private:
  // Normalizes sign (den > 0) and reduces by gcd; throws on den == 0 or if
  // the reduced value does not fit in 64 bits.
  static Rational make(__int128 num, __int128 den);

  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

/// Exact conversion of a double to the Rational it represents. Every finite
/// double is a binary rational mantissa * 2^e; the conversion succeeds iff
/// that value fits in int64/int64 after reduction (it does for all the
/// integer and power-of-two times the theory instances use, and for any
/// double whose reduced denominator is below 2^63). Returns nullopt for
/// non-finite input or when the exact value cannot be represented —
/// callers fall back to double arithmetic (see FlowHistogram).
std::optional<Rational> rational_from_double(double x);

/// gcd(|a|, |b|), with gcd(0, 0) = 0; the reduction step of every Rational
/// operation (Stein's binary algorithm).
unsigned __int128 gcd128(__int128 a, __int128 b);

}  // namespace flowsched
