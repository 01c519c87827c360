// Exact SUM objective for unit tasks with processing sets.
//
// The paper derives the polynomiality of P|r_i, p_i=1, M_i|Fmax from
// Brucker, Jurisch & Krämer's result that P|r_i, p_i=1, M_i|sum w_i T_i is
// polynomial; the algorithm is an assignment problem — match each task to
// a (time slot, machine) pair, paying that pair's contribution to the
// objective. This module implements that route for
//
//   * unit_min_total_flow — min sum (C_i - r_i), i.e. the exact minimum
//     mean flow time, the complement of the paper's max-flow objective
//     (and a reference point for EFT's mean flow in benches).
//
// Requires unit tasks with integer releases.
#pragma once

#include "model/instance.hpp"
#include "model/schedule.hpp"

namespace flowsched {

/// Minimum total flow time sum_i (C_i - r_i). If `out` is non-null it
/// receives an optimal schedule.
double unit_min_total_flow(const Instance& inst, Schedule* out = nullptr);

}  // namespace flowsched
