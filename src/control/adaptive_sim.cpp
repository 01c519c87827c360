#include "control/adaptive_sim.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "model/instance.hpp"
#include "sched/engine.hpp"
#include "sched/streaming.hpp"
#include "util/stats.hpp"

namespace flowsched {
namespace {

void validate_case(const ControlCase& c) {
  if (c.m < 1) throw std::invalid_argument("ControlCase: m < 1");
  const std::size_t n = c.release.size();
  if (c.proc.size() != n || c.key.size() != n) {
    throw std::invalid_argument("ControlCase: column length mismatch");
  }
  double last = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // An infinite release would keep the controller deciding forever, and a
    // NaN one would pass the order check below.
    if (!std::isfinite(c.release[i])) {
      throw std::invalid_argument("ControlCase: release not finite");
    }
    if (c.release[i] < last) {
      throw std::invalid_argument("ControlCase: releases must be non-decreasing");
    }
    last = c.release[i];
    if (!(c.proc[i] > 0)) throw std::invalid_argument("ControlCase: proc <= 0");
    if (c.key[i] < 0) throw std::invalid_argument("ControlCase: key < 0");
  }
  if (c.faulty() && c.plan.m() != c.m) {
    throw std::invalid_argument("ControlCase: plan covers wrong m");
  }
}

// Fills the flow statistics from the completed requests' flows, given in
// request order.
void set_flows(std::vector<double> flows, AdaptiveRunReport* rep) {
  if (!flows.empty()) {
    rep->mean_flow = mean(flows);
    rep->fmax = *std::max_element(flows.begin(), flows.end());
  }
  rep->flows = std::move(flows);
}

void set_outcome(const FaultOutcome& outcome, AdaptiveRunReport* rep) {
  rep->completed = outcome.completed;
  rep->dropped = outcome.dropped;
  rep->parked = outcome.parked;
  rep->retried = outcome.retried;
  rep->wasted_work = outcome.wasted_work;
}

}  // namespace

std::string AdaptiveRunReport::str() const {
  std::ostringstream out;
  out << "requests=" << requests << " completed=" << completed
      << " dropped=" << dropped << " parked=" << parked
      << " retried=" << retried << " Fmax=" << fmax << " mean=" << mean_flow
      << " makespan=" << makespan;
  if (decisions > 0) {
    // Appended only when the controller actually ran, so controller-off
    // reports stay byte-identical to the static format.
    out << " decisions=" << decisions << " switches=" << switches
        << " fallbacks=" << fallbacks << " setup=" << setup_total
        << " layout=" << final_layout.str();
  }
  return out.str();
}

AdaptiveRunReport run_adaptive(const ControlCase& c, Dispatcher& dispatcher,
                               bool enabled, SchedObserver* observer,
                               bool unsafe_flap) {
  validate_case(c);
  const int m = c.m;
  const int n = c.requests();
  const bool on = enabled && c.control.enabled;
  const bool faulty = c.faulty();

  ReplicationController ctl(m, c.initial, c.control);
  if (unsafe_flap) ctl.set_unsafe_flap(true);
  // The run reads nothing per request from the engine, so it drives the
  // decision core directly: O(m + backlog) engine state in every mode.
  StreamingEngine engine(m, dispatcher);
  FlowsInTaskOrder fates(faulty ? n : 0);
  if (faulty) {
    engine.set_faults(&c.plan, c.recovery);
    engine.set_fate_sink(&fates);
  }
  if (observer != nullptr) {
    observer->on_run_begin(RunInfo{m, dispatcher.name(), {}});
    engine.set_observer(observer);
  }

  // Epochs query every machine at increasing times, so the cursor answers
  // from its cached windows instead of searching the plan.
  FaultPlan::Cursor availability;
  if (faulty) availability = FaultPlan::Cursor(c.plan);

  ControlLog log;
  // Owners with a pending setup debt: the decision epoch whose migration
  // moved them, or -1. The debt is collected by the owner's next request.
  std::vector<int> pending(static_cast<std::size_t>(m), -1);
  double next_epoch = c.control.period;
  // A fault run's flows come out of its fate sink instead.
  std::vector<double> flows;
  if (!faulty) flows.reserve(static_cast<std::size_t>(n));

  for (int i = 0; i < n; ++i) {
    const double r = c.release[static_cast<std::size_t>(i)];
    if (on) {
      while (next_epoch <= r) {
        ControlObservation obs;
        obs.time = next_epoch;
        obs.backlog = engine.profile(next_epoch);
        obs.up.resize(static_cast<std::size_t>(m));
        for (int j = 0; j < m; ++j) {
          obs.up[static_cast<std::size_t>(j)] =
              !faulty || availability.is_up(j, next_epoch) ? 1 : 0;
        }
        obs.arrival_rate = static_cast<double>(i) / next_epoch;
        const ControlDecision d = ctl.decide(obs);
        for (int o = d.moved_lo; o < d.moved_hi; ++o) {
          // Only owners whose replica set really changed owe a setup: a
          // frontier step over an unchanged set moves no data.
          if (!(replica_set(d.from.strategy, o, d.from.k, m) ==
                replica_set(d.target.strategy, o, d.target.k, m))) {
            pending[static_cast<std::size_t>(o)] = d.epoch;
          }
        }
        log.record(obs, d);
        next_epoch += c.control.period;
      }
    }
    const int owner = c.key[static_cast<std::size_t>(i)] % m;
    double p = c.proc[static_cast<std::size_t>(i)];
    if (on && pending[static_cast<std::size_t>(owner)] >= 0) {
      p += c.control.setup_cost;
      log.record_charge(owner, pending[static_cast<std::size_t>(owner)],
                        c.control.setup_cost);
      pending[static_cast<std::size_t>(owner)] = -1;
    }
    // With control off the controller never leaves c.initial.
    const Assignment a = engine.release(r, p, ctl.eligible_for_owner(owner));
    // A fault run's assignment is provisional (the request may still be
    // killed and requeued): its flow arrives through the sink.
    if (!faulty) flows.push_back(a.start + p - r);
  }

  AdaptiveRunReport rep;
  rep.requests = n;
  rep.final_layout = on ? (ctl.migrating() ? ctl.target() : ctl.active())
                        : c.initial;
  if (faulty) {
    engine.drain_faults();
    set_outcome(engine.fault_stats().outcome(n), &rep);
    flows = std::move(fates).take_flows();
  } else {
    rep.completed = n;
  }
  set_flows(std::move(flows), &rep);
  rep.makespan = std::ranges::max(engine.completions());
  if (on) {
    rep.decisions = static_cast<int>(log.decisions().size());
    rep.switches = log.switches();
    rep.fallbacks = log.fallbacks();
    rep.setup_total = log.setup_total();
    rep.log = std::move(log);
  }
  if (observer != nullptr) {
    engine.finish_observation();
    observer->on_run_end(rep.makespan);
  }
  return rep;
}

AdaptiveRunReport run_static(const ControlCase& c, Dispatcher& dispatcher,
                             SchedObserver* observer) {
  validate_case(c);
  const int m = c.m;
  const int n = c.requests();
  // One set per owner, shared by its requests.
  const std::vector<ProcSet> sets = replica_sets(c.initial.strategy, c.initial.k, m);
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    tasks.push_back(Task{.release = c.release[static_cast<std::size_t>(i)],
                         .proc = c.proc[static_cast<std::size_t>(i)],
                         .eligible = sets[static_cast<std::size_t>(
                             c.key[static_cast<std::size_t>(i)] % m)]});
  }
  Instance inst(m, std::move(tasks));

  AdaptiveRunReport rep;
  rep.requests = n;
  rep.final_layout = c.initial;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(n));
  if (c.faulty()) {
    const OnlineEngine engine = run_dispatcher_faulty(
        inst, dispatcher, c.plan, c.recovery, observer);
    const FaultOutcome outcome =
        engine.fault_log().outcome([&](int i, double completion) {
          latencies.push_back(completion -
                              c.release[static_cast<std::size_t>(i)]);
        });
    set_outcome(outcome, &rep);
    rep.makespan = std::ranges::max(engine.completions());
  } else {
    const Schedule sched = observer != nullptr
                               ? run_dispatcher(inst, dispatcher, *observer)
                               : run_dispatcher(inst, dispatcher);
    for (int i = 0; i < n; ++i) latencies.push_back(sched.flow(i));
    rep.completed = n;
    rep.makespan = sched.makespan();
  }
  set_flows(std::move(latencies), &rep);
  return rep;
}

}  // namespace flowsched
