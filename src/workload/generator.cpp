#include "workload/generator.hpp"

#include <cmath>
#include <stdexcept>

namespace flowsched {

Instance generate_kv_instance(const KvWorkloadConfig& config,
                              const std::vector<double>& popularity, Rng& rng) {
  if (static_cast<int>(popularity.size()) != config.m) {
    throw std::invalid_argument("generate_kv_instance: popularity size != m");
  }
  if (!(config.lambda > 0) || !std::isfinite(config.lambda)) {
    throw std::invalid_argument(
        "generate_kv_instance: lambda must be finite and > 0");
  }
  const auto sets = replica_sets(config.strategy, config.k, config.m);

  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(config.n));
  double t = 0.0;
  for (int i = 0; i < config.n; ++i) {
    t += rng.exponential(config.lambda);
    const std::size_t owner = rng.weighted_index(popularity);
    tasks.push_back(Task{.release = t,
                         .proc = config.proc,
                         .eligible = sets[owner]});
  }
  return Instance(config.m, std::move(tasks));
}

Instance random_instance(const RandomInstanceOptions& opts, Rng& rng) {
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(opts.n));
  for (int i = 0; i < opts.n; ++i) {
    Task t;
    t.release = rng.uniform(0.0, opts.max_release);
    if (opts.integer_releases) t.release = std::floor(t.release);
    t.proc = opts.unit_tasks ? 1.0 : rng.uniform(opts.min_proc, opts.max_proc);
    switch (opts.sets) {
      case RandomSets::kUnrestricted:
        t.eligible = ProcSet::all(opts.m);
        break;
      case RandomSets::kIntervals: {
        const int lo = static_cast<int>(rng.uniform_int(0, opts.m - 1));
        const int hi = static_cast<int>(rng.uniform_int(lo, opts.m - 1));
        t.eligible = ProcSet::interval(lo, hi);
        break;
      }
      case RandomSets::kRingIntervals: {
        const int start = static_cast<int>(rng.uniform_int(0, opts.m - 1));
        const int k = static_cast<int>(rng.uniform_int(1, opts.m));
        t.eligible = ProcSet::ring_interval(start, k, opts.m);
        break;
      }
      case RandomSets::kArbitrary: {
        std::vector<int> members;
        for (int j = 0; j < opts.m; ++j) {
          if (rng.bernoulli(0.5)) members.push_back(j);
        }
        if (members.empty()) {
          members.push_back(static_cast<int>(rng.uniform_int(0, opts.m - 1)));
        }
        t.eligible = ProcSet(std::move(members));
        break;
      }
    }
    tasks.push_back(std::move(t));
  }
  return Instance(opts.m, std::move(tasks));
}

}  // namespace flowsched
