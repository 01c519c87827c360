#include "sched/dispatchers.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace flowsched {
namespace {

// Tolerance for "tied" completion times. Theory instances use exactly
// representable times (integers, powers of two), so ties are exact; the
// epsilon only guards against accumulated rounding in long stochastic runs,
// and is far below the smallest intentional gap used anywhere (the
// Theorem-10 construction uses delta = 2^-20).
constexpr double kTieEps = 1e-12;

}  // namespace

EftDispatcher::EftDispatcher(TieBreakKind kind, std::uint64_t seed,
                             bool counter_rng)
    : tie_(kind, seed, counter_rng) {}

void EftDispatcher::reset(int m) {
  candidates_.clear();
  candidates_.reserve(static_cast<std::size_t>(m));
}

int EftDispatcher::dispatch(const Task& t, const MachineState& state) {
  // Equation (2): t'min = max(r_i, min_{M_j in M_i} C_{j,i-1});
  // U'_i = { M_j in M_i : C_{j,i-1} <= t'min }.
  const std::vector<int>& machines = t.eligible.machines();
  if (tie_.kind() == TieBreakKind::kRand) {
    double min_completion = std::numeric_limits<double>::infinity();
    for (int j : machines) {
      min_completion = std::min(min_completion, state.completion[static_cast<std::size_t>(j)]);
    }
    const double t_min = std::max(t.release, min_completion);
    candidates_.clear();
    for (int j : machines) {
      if (state.completion[static_cast<std::size_t>(j)] <= t_min + kTieEps) {
        candidates_.push_back(j);
      }
    }
    return tie_.choose(candidates_, state.task_id);
  }
  // Min and Max want the first member of U'_i in tie-break order, so scan
  // in that order once. Once some C_j <= r_i, t'min = r_i and U'_i is
  // {C_j <= r_i + eps}: its first member is the first such machine seen,
  // which the scan has already passed. Only when every eligible machine is
  // busy at r_i does t'min = min C_j need the whole scan and a second pass.
  const std::size_t n = machines.size();
  const bool ascending = tie_.kind() == TieBreakKind::kMin;
  const auto at = [&](std::size_t i) {
    return machines[ascending ? i : n - 1 - i];
  };
  const double near = t.release + kTieEps;
  double min_completion = std::numeric_limits<double>::infinity();
  int first_near = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const int j = at(i);
    const double c = state.completion[static_cast<std::size_t>(j)];
    if (first_near < 0 && c <= near) first_near = j;
    if (c <= t.release) return first_near;
    min_completion = std::min(min_completion, c);
  }
  const double t_min = std::max(t.release, min_completion);
  for (std::size_t i = 0; i < n; ++i) {
    const int j = at(i);
    if (state.completion[static_cast<std::size_t>(j)] <= t_min + kTieEps) return j;
  }
  // An empty M_i, or NaN frontiers, leave U'_i empty.
  throw std::invalid_argument("EftDispatcher::dispatch: no candidates");
}

std::string EftDispatcher::name() const {
  return "EFT-" + to_string(tie_.kind());
}

RandomEligibleDispatcher::RandomEligibleDispatcher(std::uint64_t seed,
                                                   bool counter_rng)
    : rng_(seed), seed_(seed), counter_rng_(counter_rng) {}

void RandomEligibleDispatcher::reset(int /*m*/) { rng_ = Rng(seed_); }

int RandomEligibleDispatcher::dispatch(const Task& t,
                                       const MachineState& state) {
  const auto& machines = t.eligible.machines();
  if (counter_rng_) {
    Rng draw(per_task_seed(seed_, state.task_id));
    return machines[static_cast<std::size_t>(
        draw.uniform_int(0, static_cast<std::int64_t>(machines.size()) - 1))];
  }
  return machines[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(machines.size()) - 1))];
}

LeastLoadedDispatcher::LeastLoadedDispatcher(TieBreakKind kind,
                                             std::uint64_t seed)
    : tie_(kind, seed) {}

void LeastLoadedDispatcher::reset(int m) {
  candidates_.clear();
  candidates_.reserve(static_cast<std::size_t>(m));
}

int LeastLoadedDispatcher::dispatch(const Task& t, const MachineState& state) {
  double best = std::numeric_limits<double>::infinity();
  for (int j : t.eligible.machines()) {
    best = std::min(best, state.load[static_cast<std::size_t>(j)]);
  }
  candidates_.clear();
  for (int j : t.eligible.machines()) {
    if (state.load[static_cast<std::size_t>(j)] <= best + kTieEps) {
      candidates_.push_back(j);
    }
  }
  return tie_.choose(candidates_, state.task_id);
}

std::string LeastLoadedDispatcher::name() const {
  return "LeastLoaded-" + to_string(tie_.kind());
}

JsqDispatcher::JsqDispatcher(TieBreakKind kind, std::uint64_t seed)
    : tie_(kind, seed) {}

void JsqDispatcher::reset(int m) {
  candidates_.clear();
  candidates_.reserve(static_cast<std::size_t>(m));
}

int JsqDispatcher::dispatch(const Task& t, const MachineState& state) {
  int best = std::numeric_limits<int>::max();
  for (int j : t.eligible.machines()) {
    best = std::min(best, state.queued[static_cast<std::size_t>(j)]);
  }
  candidates_.clear();
  for (int j : t.eligible.machines()) {
    if (state.queued[static_cast<std::size_t>(j)] == best) candidates_.push_back(j);
  }
  return tie_.choose(candidates_, state.task_id);
}

std::string JsqDispatcher::name() const { return "JSQ-" + to_string(tie_.kind()); }

void RoundRobinDispatcher::reset(int /*m*/) { next_.clear(); }

int RoundRobinDispatcher::dispatch(const Task& t, const MachineState& /*state*/) {
  const auto& machines = t.eligible.machines();
  auto& cursor = next_[t.eligible];
  const int chosen = machines[cursor % machines.size()];
  ++cursor;
  return chosen;
}

PowerOfDChoicesDispatcher::PowerOfDChoicesDispatcher(int d, std::uint64_t seed,
                                                     bool counter_rng)
    : d_(d), rng_(seed), seed_(seed), counter_rng_(counter_rng) {
  if (d < 1) throw std::invalid_argument("PowerOfDChoices: d < 1");
}

void PowerOfDChoicesDispatcher::reset(int /*m*/) { rng_ = Rng(seed_); }

int PowerOfDChoicesDispatcher::dispatch(const Task& t,
                                        const MachineState& state) {
  const auto& machines = t.eligible.machines();
  std::vector<int> probes;
  if (static_cast<int>(machines.size()) <= d_) {
    probes = machines;
  } else {
    // Sample d distinct machines (d is tiny; rejection is fine). In
    // counter mode the whole rejection walk runs on the per-task stream.
    Rng task_rng(counter_rng_ ? per_task_seed(seed_, state.task_id) : 0);
    Rng& source = counter_rng_ ? task_rng : rng_;
    while (static_cast<int>(probes.size()) < d_) {
      const int candidate = machines[static_cast<std::size_t>(source.uniform_int(
          0, static_cast<std::int64_t>(machines.size()) - 1))];
      if (std::find(probes.begin(), probes.end(), candidate) == probes.end()) {
        probes.push_back(candidate);
      }
    }
  }
  int best = probes.front();
  for (int j : probes) {
    if (state.completion[static_cast<std::size_t>(j)] <
        state.completion[static_cast<std::size_t>(best)]) {
      best = j;
    }
  }
  return best;
}

std::string PowerOfDChoicesDispatcher::name() const {
  return "PowerOf" + std::to_string(d_) + "Choices";
}

std::unique_ptr<Dispatcher> make_eft_min() {
  return std::make_unique<EftDispatcher>(TieBreakKind::kMin);
}

std::unique_ptr<Dispatcher> make_eft_max() {
  return std::make_unique<EftDispatcher>(TieBreakKind::kMax);
}

std::unique_ptr<Dispatcher> make_eft_rand(std::uint64_t seed) {
  return std::make_unique<EftDispatcher>(TieBreakKind::kRand, seed);
}

}  // namespace flowsched
