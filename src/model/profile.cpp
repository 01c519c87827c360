#include "model/profile.hpp"

#include <algorithm>

namespace flowsched {

std::vector<double> stable_profile(int m, int k) {
  std::vector<double> w(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    w[static_cast<std::size_t>(j)] = std::min(m - 1 - j, m - k);
  }
  return w;
}

}  // namespace flowsched
