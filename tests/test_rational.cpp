#include "util/rational.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "util/rng.hpp"

namespace flowsched {
namespace {

TEST(Rational, NormalizesSignAndGcd) {
  const Rational r(6, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 2);
}

TEST(Rational, ZeroHasCanonicalForm) {
  const Rational r(0, 7);
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, RejectsZeroDenominator) {
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
}

TEST(Rational, Arithmetic) {
  const Rational a(1, 3);
  const Rational b(1, 6);
  EXPECT_EQ(a + b, Rational(1, 2));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 18));
  EXPECT_EQ(a / b, Rational(2));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rational(1) / Rational(0), std::domain_error);
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_LE(Rational(5, 10), Rational(1, 2));
}

TEST(Rational, AbsAndNegation) {
  EXPECT_EQ(abs(Rational(-3, 4)), Rational(3, 4));
  EXPECT_EQ(-Rational(3, 4), Rational(-3, 4));
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
  EXPECT_DOUBLE_EQ(Rational(-7, 2).to_double(), -3.5);
}

TEST(Rational, StreamOutput) {
  std::ostringstream out;
  out << Rational(3, 4) << ' ' << Rational(5);
  EXPECT_EQ(out.str(), "3/4 5");
}

TEST(Rational, LargeIntermediatesReduce) {
  // (2^40 / 3) * (3 / 2^40) = 1: the 128-bit intermediate products must not
  // overflow before reduction.
  const Rational big(1LL << 40, 3);
  const Rational inv(3, 1LL << 40);
  EXPECT_EQ(big * inv, Rational(1));
}

TEST(Rational, OverflowAfterReductionThrows) {
  const Rational big((1LL << 62), 1);
  EXPECT_THROW(big * Rational(4), std::overflow_error);
}

TEST(Rational, SummingSeriesExactly) {
  // 1/1 + 1/2 + ... + 1/10 = 7381/2520.
  Rational sum(0);
  for (int i = 1; i <= 10; ++i) sum += Rational(1, i);
  EXPECT_EQ(sum, Rational(7381, 2520));
}

// Reference for the binary gcd: Euclid's remainder loop on magnitudes.
unsigned __int128 euclid_gcd(__int128 a, __int128 b) {
  using U = unsigned __int128;
  U u = a < 0 ? -static_cast<U>(a) : static_cast<U>(a);
  U v = b < 0 ? -static_cast<U>(b) : static_cast<U>(b);
  while (v != 0) {
    const U t = u % v;
    u = v;
    v = t;
  }
  return u;
}

// A signed 64-bit draw of random bit length, so products span every
// magnitude from 0 to about 2^126.
std::int64_t random_factor(Rng& rng) {
  const auto bits = static_cast<int>(rng.uniform_int(0, 63));
  const auto mag = bits == 0 ? std::int64_t{0}
                             : static_cast<std::int64_t>(rng() >> (64 - bits));
  return rng.bernoulli(0.5) ? -mag : mag;
}

TEST(Rational, BinaryGcdMatchesEuclidOnRandomProducts) {
  Rng rng(20260117);
  for (int trial = 0; trial < 20000; ++trial) {
    // A shared factor makes most gcds non-trivial.
    const __int128 common = random_factor(rng);
    const __int128 a = static_cast<__int128>(random_factor(rng)) * common;
    const __int128 b = static_cast<__int128>(random_factor(rng)) * common;
    ASSERT_TRUE(gcd128(a, b) == euclid_gcd(a, b)) << "trial " << trial;
  }
}

TEST(Rational, BinaryGcdMatchesEuclidOnEdgeValues) {
  constexpr __int128 max63 = (__int128{1} << 63) - 1;
  std::vector<__int128> values = {0, 1, -1, max63 * max63, -(max63 * max63)};
  for (int e = 0; e <= 126; ++e) {
    values.push_back(__int128{1} << e);
    values.push_back(-(__int128{1} << e));
  }
  for (const __int128 a : values) {
    for (const __int128 b : values) {
      ASSERT_TRUE(gcd128(a, b) == euclid_gcd(a, b));
    }
  }
}

TEST(Rational, FromDoubleIsInLowestTerms) {
  // The conversion skips the gcd; it must still agree with the reducing
  // constructor on the unreduced mantissa / 2^53 form.
  Rng rng(7);
  for (int trial = 0; trial < 5000; ++trial) {
    // |x| in [2^-10, 2^9): the mantissa's denominator fits in int64.
    const double mag = std::ldexp(rng.uniform(0.5, 1.0),
                                  static_cast<int>(rng.uniform_int(-9, 9)));
    const double x = rng.bernoulli(0.5) ? -mag : mag;
    const auto r = rational_from_double(x);
    ASSERT_TRUE(r.has_value()) << x;
    int exp = 0;
    const double frac = std::frexp(x, &exp);
    const auto mant = static_cast<std::int64_t>(std::ldexp(frac, 53));
    const int e = exp - 53;
    EXPECT_EQ(*r, Rational(mant, std::int64_t{1} << -e)) << x;
    EXPECT_EQ(r->to_double(), x);
  }
}

}  // namespace
}  // namespace flowsched
