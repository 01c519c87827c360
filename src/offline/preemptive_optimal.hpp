// Exact preemptive offline optimum for P | r_i, pmtn, M_i | Fmax.
//
// The paper's Table 1 cites Legrand et al. / Lawler & Labetoulle: with
// preemption the problem is polynomial, because testing a flow bound F
// (i.e. deadlines d_i = r_i + F) is a network-flow feasibility question.
// Partition time at the event points {r_i} U {d_i} into intervals
// I_1 < ... < I_q. A deadline-feasible preemptive schedule exists iff a
// flow saturating every task's processing volume exists in
//
//   source --p_i--> task_i --|I|--> (task_i, I)     for I within [r_i, d_i]
//   (task_i, I) ----> (I, machine j), j in M_i
//   (I, machine j) --|I|--> sink
//
// The (task, I) caps forbid a task from running on two machines at once;
// the (I, j) caps bound machine capacity. Sufficiency of these conditions
// follows from preemptive open-shop scheduling (Gonzalez & Sahni): within
// each interval a per-(task, machine) time allocation with row and column
// sums <= |I| is realizable.
//
// The optimum F* is found by bisection. For unit tasks with integer
// releases, F* is compared against the non-preemptive matching optimum in
// the tests (preemptive OPT <= non-preemptive OPT always).
#pragma once

#include "model/instance.hpp"

namespace flowsched {

/// Core feasibility test: is there a preemptive schedule completing every
/// task i by deadlines[i] (aligned with the instance's task order)?
bool preemptive_deadline_feasible(const Instance& inst,
                                  const std::vector<double>& deadlines);

/// True iff a preemptive schedule with Fmax <= F exists.
bool preemptive_fmax_feasible(const Instance& inst, double F);

/// The preemptive optimum, up to absolute tolerance `tol` (bisection).
double preemptive_optimal_fmax(const Instance& inst, double tol = 1e-7);

}  // namespace flowsched
