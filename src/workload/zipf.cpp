#include "workload/zipf.hpp"

#include <cmath>
#include <stdexcept>

namespace flowsched {

double generalized_harmonic(int m, double s) {
  if (m <= 0) throw std::invalid_argument("generalized_harmonic: m <= 0");
  double h = 0;
  for (int j = 1; j <= m; ++j) h += std::pow(static_cast<double>(j), -s);
  return h;
}

std::vector<double> zipf_weights(int m, double s) {
  if (!(s >= 0)) throw std::invalid_argument("zipf_weights: need s >= 0");
  const double h = generalized_harmonic(m, s);
  std::vector<double> w(static_cast<std::size_t>(m));
  for (int j = 1; j <= m; ++j) {
    w[static_cast<std::size_t>(j - 1)] = std::pow(static_cast<double>(j), -s) / h;
  }
  return w;
}

}  // namespace flowsched
