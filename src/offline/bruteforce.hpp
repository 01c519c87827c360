// Exhaustive offline optimum for small arbitrary instances.
//
// Test oracle: enumerates machine assignments by branch-and-bound. For a
// fixed assignment, processing each machine's tasks in release order is
// optimal for Fmax on a single machine (exchange argument, as in the proof
// of Theorem 2 generalized to arbitrary processing times), so the search
// space is m^n assignments, pruned by the incumbent.
//
// Intended for n <= ~12; throws std::invalid_argument beyond `max_n` to
// avoid accidental exponential blowups in tests.
#pragma once

#include "model/instance.hpp"
#include "model/schedule.hpp"

namespace flowsched {

/// Exact optimal Fmax by branch-and-bound.
double brute_force_opt_fmax(const Instance& inst, int max_n = 14);

}  // namespace flowsched
