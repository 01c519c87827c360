// Online oracle over the queue-based FIFO-eligible scheduler
// (sched/fifo.hpp), for the adaptive adversaries of Theorems 5 and 7.
//
// Those theorems hold for ANY online algorithm, not only immediate
// dispatchers, so the tests also run the adversaries against FIFO-eligible.
// The oracle re-simulates FIFO on the releases so far: FIFO's decisions
// never use future information, so the re-simulation reproduces its true
// state at the current release frontier.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/oracle.hpp"
#include "model/schedule.hpp"
#include "sched/tiebreak.hpp"

namespace flowsched {

class FifoEligibleOracle final : public OnlineOracle {
 public:
  explicit FifoEligibleOracle(int m, TieBreakKind tie = TieBreakKind::kMin,
                              std::uint64_t seed = 0);

  int m() const override { return m_; }
  int released() const override { return static_cast<int>(tasks_.size()); }
  void release(Task task) override;
  double completion(int idx) override;
  Schedule snapshot() override;

 private:
  void refresh();  ///< Re-simulates if new tasks arrived since last query.

  int m_;
  TieBreakKind tie_;
  std::uint64_t seed_;
  std::vector<Task> tasks_;
  double last_release_ = 0.0;
  std::size_t simulated_count_ = 0;
  std::shared_ptr<Instance> cached_instance_;
  std::unique_ptr<Schedule> cached_schedule_;
};

}  // namespace flowsched
