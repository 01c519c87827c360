// Schedule profiles (Section 6 of the paper), the test oracles of the
// Theorem 8 convergence proof.
//
// The profile w_t(j) = max(0, C_{j,mt} - t) is the amount of allocated work
// still waiting on machine M_j at time t, considering only the first i tasks
// of the instance. The EFT-Min lower-bound proof (Theorem 8) shows the
// profile converges to the stable profile w_tau (model/profile.hpp) under
// the Theorem-8 adversary; these helpers read profiles off a schedule and
// compare them, so the lemmas of that proof can be checked on real runs:
//
//   * Lemma 2: profiles stay non-increasing;
//   * Lemma 4: profiles never exceed w_tau;
//   * Lemma 5: the weighted distance Phi (Theorem 9's proof) never
//     increases.
//
// The backlog helpers aggregate the profile over machines, to check that a
// stable system's queue does not trend upward.
#pragma once

#include <utility>
#include <vector>

#include "model/schedule.hpp"

namespace flowsched {

/// Completion frontier C_{j, first_n}: for each machine, the completion time
/// of its last task among the first `first_n` tasks (0 when it has none).
std::vector<double> machine_frontier(const Schedule& sched, int first_n);

/// Profile w_t(j) = max(0, C_{j,first_n} - t).
std::vector<double> profile_at(const Schedule& sched, int first_n, double t);

/// Pointwise comparisons of Definition 1. `profile_lt` is "strictly behind":
/// <= everywhere and < somewhere.
bool profile_leq(const std::vector<double>& a, const std::vector<double>& b);
bool profile_lt(const std::vector<double>& a, const std::vector<double>& b);

/// Lemma 2 invariant: w_t(j+1) <= w_t(j) for all j.
bool profile_nonincreasing(const std::vector<double>& w);

/// Total waiting work sum_j w(j).
double profile_total(const std::vector<double>& w);

/// phi_t(j) = 2^{w_tau(j)} * (m - k + 1 - w_t(j)) for a 0-based profile w:
/// how far w_t is from (a simplified form of) the stable profile.
double phi_weighted_distance(const std::vector<double>& w, int m, int k, int j);

/// Phi_t = sum over machines.
double phi_total(const std::vector<double>& w, int m, int k);

/// Partial sum Phi_t(j1, j2), 0-based inclusive bounds.
double phi_partial(const std::vector<double>& w, int m, int k, int j1, int j2);

/// Total backlog (allocated-but-unfinished work, summed over machines) at
/// time t, counting only tasks released by t — the w_t profile aggregated.
double total_backlog_at(const Schedule& sched, double t);

/// Backlog sampled at `points` evenly spaced times across the makespan.
std::vector<std::pair<double, double>> backlog_timeseries(const Schedule& sched,
                                                          int points);

}  // namespace flowsched
