#include "sched/preemptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace flowsched {
namespace {

constexpr double kDoneEps = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ExecutionLog::ExecutionLog(const Instance& inst, std::vector<ExecSlice> slices)
    : inst_(&inst),
      slices_(std::move(slices)),
      completion_(static_cast<std::size_t>(inst.n()), 0.0) {
  for (const auto& slice : slices_) {
    auto& c = completion_[static_cast<std::size_t>(slice.task)];
    c = std::max(c, slice.to);
  }
}

double ExecutionLog::completion(int task) const {
  return completion_.at(static_cast<std::size_t>(task));
}

double ExecutionLog::flow(int task) const {
  return completion(task) - inst_->task(task).release;
}

double ExecutionLog::max_flow() const {
  double f = 0;
  for (int i = 0; i < inst_->n(); ++i) f = std::max(f, flow(i));
  return f;
}

ExecutionLog preemptive_schedule(const Instance& inst,
                                 PreemptivePriority priority) {
  const int n = inst.n();
  const int m = inst.m();
  std::vector<double> remaining(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) remaining[static_cast<std::size_t>(i)] = inst.task(i).proc;

  auto higher_priority = [&](int a, int b) {
    if (priority == PreemptivePriority::kShortestFirst &&
        inst.task(a).proc != inst.task(b).proc) {
      return inst.task(a).proc < inst.task(b).proc;
    }
    if (inst.task(a).release != inst.task(b).release) {
      return inst.task(a).release < inst.task(b).release;
    }
    return a < b;  // FIFO order among equal releases
  };

  std::vector<ExecSlice> slices;
  std::vector<int> alive;  // released, unfinished task ids
  int next_release = 0;
  double t = n > 0 ? inst.task(0).release : 0.0;
  int finished = 0;

  while (finished < n) {
    while (next_release < n && inst.task(next_release).release <= t + kDoneEps) {
      alive.push_back(next_release++);
    }
    std::sort(alive.begin(), alive.end(), higher_priority);

    // Greedy assignment: highest priority first, lowest free eligible
    // machine.
    std::vector<int> machine_task(static_cast<std::size_t>(m), -1);
    std::vector<std::pair<int, int>> running;  // (task, machine)
    for (int task : alive) {
      for (int j : inst.task(task).eligible.machines()) {
        if (machine_task[static_cast<std::size_t>(j)] < 0) {
          machine_task[static_cast<std::size_t>(j)] = task;
          running.emplace_back(task, j);
          break;
        }
      }
    }

    // Next event: a completion of a running task or the next release.
    double t_next = kInf;
    if (next_release < n) t_next = inst.task(next_release).release;
    for (const auto& [task, machine] : running) {
      t_next = std::min(t_next, t + remaining[static_cast<std::size_t>(task)]);
    }
    if (t_next == kInf) {
      throw std::logic_error("preemptive_schedule: stalled (bug)");
    }
    if (t_next <= t + kDoneEps && running.empty()) {
      // Pure release event with nothing running: jump.
      t = t_next;
      continue;
    }

    const double span = t_next - t;
    for (const auto& [task, machine] : running) {
      if (span <= 0) break;
      // Merge with the previous slice when it continues seamlessly.
      if (!slices.empty() && slices.back().task == task &&
          slices.back().machine == machine &&
          std::abs(slices.back().to - t) < kDoneEps) {
        slices.back().to = t_next;
      } else {
        slices.push_back(ExecSlice{task, machine, t, t_next});
      }
      auto& rem = remaining[static_cast<std::size_t>(task)];
      rem -= span;
      if (rem <= kDoneEps) {
        rem = 0;
        ++finished;
        alive.erase(std::find(alive.begin(), alive.end(), task));
      }
    }
    t = t_next;
  }

  // Slice merging above only merges adjacent entries; do a final pass to
  // merge slices separated by other tasks' entries in the log.
  std::sort(slices.begin(), slices.end(),
            [](const ExecSlice& a, const ExecSlice& b) {
              if (a.task != b.task) return a.task < b.task;
              if (a.machine != b.machine) return a.machine < b.machine;
              return a.from < b.from;
            });
  std::vector<ExecSlice> merged;
  for (const auto& s : slices) {
    if (!merged.empty() && merged.back().task == s.task &&
        merged.back().machine == s.machine &&
        std::abs(merged.back().to - s.from) < kDoneEps) {
      merged.back().to = s.to;
    } else {
      merged.push_back(s);
    }
  }
  return ExecutionLog(inst, std::move(merged));
}

}  // namespace flowsched
