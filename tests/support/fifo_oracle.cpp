#include "support/fifo_oracle.hpp"

#include <stdexcept>

#include "sched/fifo.hpp"

namespace flowsched {

FifoEligibleOracle::FifoEligibleOracle(int m, TieBreakKind tie,
                                       std::uint64_t seed)
    : m_(m), tie_(tie), seed_(seed) {
  if (m <= 0) throw std::invalid_argument("FifoEligibleOracle: m <= 0");
}

void FifoEligibleOracle::release(Task task) {
  if (task.release < last_release_) {
    throw std::invalid_argument("FifoEligibleOracle: decreasing releases");
  }
  last_release_ = task.release;
  if (task.eligible.empty()) task.eligible = ProcSet::all(m_);
  tasks_.push_back(std::move(task));
}

void FifoEligibleOracle::refresh() {
  if (cached_schedule_ != nullptr && simulated_count_ == tasks_.size()) return;
  cached_instance_ = std::make_shared<Instance>(m_, tasks_);
  const Schedule sched = fifo_eligible_schedule(*cached_instance_, tie_, seed_);
  // Copy into an owning schedule so the cached instance stays alive.
  cached_schedule_ = std::make_unique<Schedule>(cached_instance_);
  for (int i = 0; i < cached_instance_->n(); ++i) {
    cached_schedule_->assign(i, sched.machine(i), sched.start(i));
  }
  simulated_count_ = tasks_.size();
}

double FifoEligibleOracle::completion(int idx) {
  refresh();
  return cached_schedule_->completion(idx);
}

Schedule FifoEligibleOracle::snapshot() {
  refresh();
  return *cached_schedule_;
}

}  // namespace flowsched
