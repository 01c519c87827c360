// The stable profile of Theorem 8 (Section 6 of the paper).
//
// The profile w_t(j) = max(0, C_{j,mt} - t) is the amount of allocated work
// still waiting on machine M_j at time t, considering only the first i tasks
// of the instance. The EFT-Min lower-bound proof (Theorem 8) shows the
// profile converges to the stable profile w_tau(j) = min(m - j, m - k)
// (1-based j) under the Theorem-8 adversary; the benches plot runs against
// it (Figure 4).
#pragma once

#include <vector>

namespace flowsched {

/// Stable profile of Theorem 8, 0-based: w_tau(j) = min(m - 1 - j, m - k).
std::vector<double> stable_profile(int m, int k);

}  // namespace flowsched
