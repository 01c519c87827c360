// Zipf popularity law (Section 7.1).
//
// P(E_j) = 1 / (j^s * H_{m,s}) for 1-based rank j, where H_{m,s} is the m-th
// generalized harmonic number of order s. s = 0 degenerates to the uniform
// distribution; larger s concentrates popularity on low ranks.
#pragma once

#include <vector>

namespace flowsched {

/// Generalized harmonic number H_{m,s} = sum_{j=1..m} j^-s.
double generalized_harmonic(int m, double s);

/// The probability vector {P(E_1), ..., P(E_m)} (sums to 1, decreasing).
std::vector<double> zipf_weights(int m, double s);

}  // namespace flowsched
