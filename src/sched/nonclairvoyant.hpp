// Non-clairvoyant dispatch adapter (docs/scenarios.md).
//
// NcDispatcher wraps any existing policy so it runs under the engines'
// Clairvoyance::kNonClairvoyant switch: the wrapper declares the
// queue-depth requirement (the censored completion frontier is derived from
// "observably busy or not", i.e. queued > 0) and renames the run
// "NC(<inner>)" so the auditor's behavioural inference (FIFO order, work
// conservation — both proved against TRUE processing times) does not apply
// to a censored run. The policy itself is untouched: in nc mode the engine
// hands it censored observables (sched/engine.hpp), so any policy compiles
// and runs — it just cannot peek at p_i, which the [nc-no-peek]
// counterfactual replay verifies (check/audit.hpp).
#pragma once

#include <string>

#include "sched/dispatchers.hpp"
#include "sched/engine.hpp"

namespace flowsched {

class NcDispatcher final : public Dispatcher {
 public:
  /// Borrows `inner`; it must outlive the adapter.
  explicit NcDispatcher(Dispatcher& inner) : inner_(&inner) {}

  void reset(int m) override { inner_->reset(m); }
  int dispatch(const Task& t, const MachineState& state) override {
    return inner_->dispatch(t, state);
  }
  bool needs_queue_depths() const override { return true; }
  std::string name() const override { return "NC(" + inner_->name() + ")"; }

 private:
  Dispatcher* inner_;
};

/// \brief Replays a full instance through `dispatcher` in non-clairvoyant
/// mode with per-machine setup time `setup`, and returns the engine.
///
/// The engine — not a Schedule — is the result of an nc run: with a nonzero
/// setup C_i = S_i + setup_i + p_i does not fit the Schedule model, so
/// callers read machine_of / start_of / completion_of directly, and each
/// task's setup from the observer's task events.
/// When `observer` is non-null the run brackets are emitted around the
/// release loop (on_run_end reports the completion-frontier makespan).
/// `unsafe_nc_leak` arms the planted peeking bug (testing only; see
/// OnlineEngine::set_unsafe_nc_leak).
OnlineEngine run_dispatcher_nc(const Instance& inst, Dispatcher& dispatcher,
                               double setup,
                               SchedObserver* observer = nullptr,
                               const RunTag& tag = {},
                               bool unsafe_nc_leak = false);

/// Fmax of a finished nc run: max over tasks of completion_of(i) - r_i.
double nc_max_flow(const OnlineEngine& engine);

}  // namespace flowsched
