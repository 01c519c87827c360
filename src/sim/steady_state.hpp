// Steady-state analysis for the stochastic simulations.
//
// The paper states 10,000 generated tasks "is sufficient to reach a steady
// state" (Section 7.4); this module provides the standard machinery to
// check such claims: warm-up deletion and the method of batch means with a
// Student-t confidence interval for the steady-state mean.
#pragma once

#include <span>
#include <vector>

namespace flowsched {

/// Drops the first `fraction` of the samples (warm-up deletion).
std::vector<double> trim_warmup(std::span<const double> samples,
                                double fraction);

struct BatchMeansResult {
  double mean = 0;
  double half_width = 0;  ///< 95% CI half width.
  int batches = 0;
  /// Lag-1 autocorrelation of the batch means; near zero indicates the
  /// batches are long enough for the CI to be trustworthy.
  double batch_autocorrelation = 0;
};

/// Method of batch means on a (warm-up-trimmed) sample stream: splits into
/// `batches` equal batches, treats batch means as ~independent samples.
/// Requires at least 2 batches and batches <= samples.
BatchMeansResult batch_means_ci(std::span<const double> samples, int batches = 20);

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (exact table for small df, 1.96 asymptote).
double t_critical_95(int df);

}  // namespace flowsched
