#include "sim/steady_state.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace flowsched {

std::vector<double> trim_warmup(std::span<const double> samples,
                                double fraction) {
  if (fraction < 0 || fraction >= 1) {
    throw std::invalid_argument("trim_warmup: fraction outside [0,1)");
  }
  const auto skip = static_cast<std::size_t>(fraction * static_cast<double>(samples.size()));
  return {samples.begin() + static_cast<std::ptrdiff_t>(skip), samples.end()};
}

double t_critical_95(int df) {
  // Two-sided 95% quantiles of the Student-t distribution.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df < 1) throw std::invalid_argument("t_critical_95: df < 1");
  if (df <= 30) return kTable[df - 1];
  if (df <= 60) return 2.00;
  return 1.96;
}

BatchMeansResult batch_means_ci(std::span<const double> samples, int batches) {
  if (batches < 2) throw std::invalid_argument("batch_means_ci: batches < 2");
  if (samples.size() < static_cast<std::size_t>(batches)) {
    throw std::invalid_argument("batch_means_ci: fewer samples than batches");
  }
  const std::size_t batch_len = samples.size() / static_cast<std::size_t>(batches);
  std::vector<double> means(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const auto begin = static_cast<std::size_t>(b) * batch_len;
    means[static_cast<std::size_t>(b)] =
        mean(samples.subspan(begin, batch_len));
  }

  BatchMeansResult result;
  result.batches = batches;
  result.mean = mean(means);
  const double sd = stddev(means);
  result.half_width =
      t_critical_95(batches - 1) * sd / std::sqrt(static_cast<double>(batches));

  // Lag-1 autocorrelation of the batch means.
  double num = 0;
  double den = 0;
  for (int b = 0; b < batches; ++b) {
    const double d = means[static_cast<std::size_t>(b)] - result.mean;
    den += d * d;
    if (b + 1 < batches) {
      num += d * (means[static_cast<std::size_t>(b) + 1] - result.mean);
    }
  }
  result.batch_autocorrelation = den > 0 ? num / den : 0.0;
  return result;
}

}  // namespace flowsched
