// Exact offline optimum for unit tasks: P | r_i, p_i = 1, M_i | Fmax.
//
// The paper notes (Section 6, via Brucker et al.) that this problem is
// polynomial. We solve it directly: with unit tasks and integer releases
// there is an optimal schedule with integer start times (exchange argument),
// so a flow bound F is feasible iff the tasks can be perfectly matched to
// (integer slot, eligible machine) pairs with slot in [r_i, r_i + F - 1].
// Binary search on F with a Hopcroft-Karp feasibility check gives the
// optimum in O(log n) matchings.
//
// This is the OPT oracle the competitive-ratio benches divide by (all of
// the paper's adversary constructions use unit tasks except Theorem 10,
// whose optimum the paper derives analytically).
#pragma once

#include "model/instance.hpp"
#include "model/schedule.hpp"

namespace flowsched {

/// True iff some schedule achieves Fmax <= F. Requires unit tasks and
/// integer release times (throws std::invalid_argument otherwise).
/// If `out` is non-null and the bound is feasible, *out receives a schedule
/// realizing it.
bool unit_fmax_feasible(const Instance& inst, int F, Schedule* out = nullptr);

/// Optimal Fmax. Requires unit tasks and integer releases.
int unit_optimal_fmax(const Instance& inst);

}  // namespace flowsched
