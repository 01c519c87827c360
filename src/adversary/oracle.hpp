// Online-algorithm oracle for adaptive adversaries.
//
// Theorems 5 and 7 hold for ANY online algorithm, not only immediate
// dispatchers. An adaptive adversary may observe, at time t, everything the
// algorithm has irrevocably done by t — for a non-preemptive algorithm that
// includes which tasks have completed, since completions by time t cannot
// depend on releases after t. OnlineOracle captures exactly this interface:
//
//   * DispatcherOracle wraps an immediate-dispatch policy (the assignment
//     is fixed at release, so completions are known immediately);
//   * the tests add an oracle over the queue-based FIFO-eligible scheduler
//     (tests/support/fifo_oracle.hpp).
#pragma once

#include <memory>
#include <vector>

#include "model/schedule.hpp"
#include "sched/dispatchers.hpp"
#include "sched/engine.hpp"
#include "sched/tiebreak.hpp"

namespace flowsched {

class OnlineOracle {
 public:
  virtual ~OnlineOracle() = default;

  virtual int m() const = 0;
  virtual int released() const = 0;

  /// Releases one task (non-decreasing release times).
  virtual void release(Task task) = 0;

  /// Completion time of task `idx` given the releases so far. Valid for
  /// "completed by t" queries with t up to the current release frontier.
  virtual double completion(int idx) = 0;

  /// Self-contained schedule of everything released so far.
  virtual Schedule snapshot() = 0;
};

/// Oracle over an immediate-dispatch algorithm.
class DispatcherOracle final : public OnlineOracle {
 public:
  DispatcherOracle(int m, Dispatcher& dispatcher) : engine_(m, dispatcher) {}

  int m() const override { return engine_.m(); }
  int released() const override { return engine_.released(); }
  void release(Task task) override { engine_.release(std::move(task)); }
  double completion(int idx) override { return engine_.completion_of(idx); }
  Schedule snapshot() override { return engine_.snapshot(); }

 private:
  OnlineEngine engine_;
};

}  // namespace flowsched
