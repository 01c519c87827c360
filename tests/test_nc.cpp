// Non-clairvoyant mode (docs/scenarios.md): the engines' Clairvoyance
// switch, the per-machine setup charge on processing-set switches, the
// NcDispatcher adapter, the setup-aware auditor contract, and the nc path
// through both engine entry points. The counterfactual no-peek replay and the nc
// bound oracles themselves live in the fuzz battery (check/fuzz.hpp); here
// we pin the engine semantics they rely on.
#include "sched/nonclairvoyant.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/audit.hpp"
#include "model/instance.hpp"
#include "obs/metrics.hpp"
#include "sched/dispatchers.hpp"
#include "sched/engine.hpp"
#include "sched/streaming.hpp"

namespace flowsched {
namespace {

// One machine, three tasks, alternating processing sets: the machine pays
// the setup exactly when the set switches (first task free), and
// C_i = S_i + setup_i + p_i holds bitwise on the dyadic grid.
TEST(NonClairvoyant, SetupChargedOnProcSetSwitch) {
  const double setup = 0.25;
  std::vector<Task> tasks = {
      {.release = 0.0, .proc = 1.0, .eligible = ProcSet({0})},
      {.release = 0.0, .proc = 0.5, .eligible = ProcSet({0})},   // same set
      {.release = 0.0, .proc = 0.5, .eligible = ProcSet({0, 1})}  // switch
  };
  const Instance inst(2, std::move(tasks));
  auto policy = make_eft_min();
  NcDispatcher ncd(*policy);
  const OnlineEngine engine = run_dispatcher_nc(inst, ncd, setup);

  EXPECT_EQ(engine.setup_of(0), 0.0);  // first task on its machine is free
  for (int i = 0; i < inst.n(); ++i) {
    EXPECT_EQ(engine.completion_of(i),
              (engine.start_of(i) + engine.setup_of(i)) + inst.task(i).proc)
        << "task " << i;
    EXPECT_TRUE(engine.setup_of(i) == 0.0 || engine.setup_of(i) == setup)
        << "task " << i;
  }
  // At least one set switch happened somewhere (tasks 1 and 2 cannot both
  // avoid it on a 2-machine EFT run where task 2's set differs).
  double charged = 0;
  for (int i = 0; i < inst.n(); ++i) charged += engine.setup_of(i);
  EXPECT_GT(charged, 0.0);
  EXPECT_GE(nc_max_flow(engine), 1.0);  // task 0 alone flows p = 1
}

// The adapter: renames the run so the auditor's clairvoyant behavioural
// inference never fires on censored runs, and forces queue-depth tracking
// on (the censored frontier is derived from "observably busy").
TEST(NonClairvoyant, AdapterNameAndQueueDepths) {
  auto policy = make_eft_min();
  NcDispatcher ncd(*policy);
  EXPECT_EQ(ncd.name(), "NC(EFT-Min)");
  EXPECT_TRUE(ncd.needs_queue_depths());
}

// The setup-aware auditor: clean on an honest nc run, and [setup-accounting]
// fires when the auditor is armed with the wrong setup value.
TEST(NonClairvoyant, AuditorSetupAccounting) {
  const double setup = 0.375;
  std::vector<Task> tasks;
  for (int i = 0; i < 12; ++i) {
    tasks.push_back({.release = 0.25 * i,
                     .proc = 0.5 + 0.125 * (i % 4),
                     .eligible = (i % 3 == 0) ? ProcSet({0, 1})
                                              : ProcSet({i % 2, 2})});
  }
  const Instance inst(3, std::move(tasks));
  auto policy = make_eft_min();
  NcDispatcher ncd(*policy);

  AuditConfig config;
  config.nc_mode = true;
  config.nc_setup = setup;
  InvariantAuditor auditor(config);
  run_dispatcher_nc(inst, ncd, setup, &auditor);
  EXPECT_TRUE(auditor.ok()) << auditor.report();

  AuditConfig wrong = config;
  wrong.nc_setup = setup + 0.125;
  InvariantAuditor wrong_auditor(wrong);
  auto policy2 = make_eft_min();
  NcDispatcher ncd2(*policy2);
  run_dispatcher_nc(inst, ncd2, setup, &wrong_auditor);
  ASSERT_FALSE(wrong_auditor.ok());
  EXPECT_NE(wrong_auditor.report().find("[setup-accounting]"), std::string::npos)
      << wrong_auditor.report();
}

// A clairvoyance-oblivious policy (RoundRobin never reads frontiers, loads
// or processing times) commits the bit-identical schedule in nc mode at
// setup 0 — censoring changed nothing it looks at.
TEST(NonClairvoyant, ObliviousPolicyMatchesClairvoyantAtZeroSetup) {
  std::vector<Task> tasks;
  for (int i = 0; i < 40; ++i) {
    tasks.push_back({.release = 0.125 * i,
                     .proc = 0.25 + 0.125 * (i % 5),
                     .eligible = (i % 4 == 0) ? ProcSet()
                                              : ProcSet({i % 3, 3})});
  }
  const Instance inst(4, std::move(tasks));

  RoundRobinDispatcher clair;
  const Schedule ref = run_dispatcher(inst, clair);

  RoundRobinDispatcher inner;
  NcDispatcher ncd(inner);
  const OnlineEngine nc = run_dispatcher_nc(inst, ncd, /*setup=*/0.0);
  for (int i = 0; i < inst.n(); ++i) {
    ASSERT_EQ(nc.machine_of(i), ref.machine(i)) << "task " << i;
    ASSERT_EQ(nc.start_of(i), ref.start(i)) << "task " << i;
    ASSERT_EQ(nc.setup_of(i), 0.0) << "task " << i;
  }
}

// OnlineEngine decides on the StreamingEngine core, so the bare core and the
// retention layer see identical censored observables at every dispatch
// instant and commit bitwise-equal (machine, start) sequences. This is the
// unit-level guard that the retention layer adds nothing to the nc decision
// path.
TEST(NonClairvoyant, StreamingMirrorsBatchEngine) {
  const double setup = 0.5;
  std::vector<Task> tasks;
  for (int i = 0; i < 60; ++i) {
    tasks.push_back({.release = 0.125 * (i / 2),  // frequent release ties
                     .proc = 0.25 + 0.125 * (i % 6),
                     .eligible = (i % 5 == 0) ? ProcSet()
                                              : ProcSet({i % 4, (i + 1) % 4})});
  }
  const Instance inst(4, std::move(tasks));

  auto batch_policy = make_eft_min();
  NcDispatcher batch_ncd(*batch_policy);
  const OnlineEngine batch = run_dispatcher_nc(inst, batch_ncd, setup);

  auto stream_policy = make_eft_min();
  NcDispatcher stream_ncd(*stream_policy);
  StreamingEngine stream(inst.m(), stream_ncd);
  stream.set_clairvoyance(Clairvoyance::kNonClairvoyant, setup);
  std::vector<Assignment> got;
  got.reserve(static_cast<std::size_t>(inst.n()));
  for (const Task& t : inst.tasks()) got.push_back(stream.release(t));
  stream.drain();

  for (int i = 0; i < inst.n(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(got[idx].machine, batch.machine_of(i)) << "task " << i;
    ASSERT_EQ(got[idx].start, batch.start_of(i)) << "task " << i;
  }
}

// The planted clairvoyance leak is live: on an instance engineered so the
// censored load ranking disagrees with the true one, the leaking engine
// commits a different schedule than the honest nc run. (That the fuzzer's
// [nc-no-peek] replay catches and shrinks it is asserted end to end by
// fuzz_smoke's --inject-nc-bug campaign.)
TEST(NonClairvoyant, PlantedLeakChangesDispatch) {
  // Two machines, both observably busy at t = 1 with equal censored
  // frontiers, but machine 0 holds the long job: only a peeking policy can
  // tell them apart.
  std::vector<Task> tasks = {
      {.release = 0.0, .proc = 8.0, .eligible = ProcSet({0})},
      {.release = 0.0, .proc = 1.0, .eligible = ProcSet({1})},
      {.release = 1.0, .proc = 1.0, .eligible = ProcSet({0, 1})},
  };
  const Instance inst(2, std::move(tasks));

  auto honest_policy = make_eft_min();
  NcDispatcher honest_ncd(*honest_policy);
  const OnlineEngine honest =
      run_dispatcher_nc(inst, honest_ncd, /*setup=*/0.0);

  auto leak_policy = make_eft_min();
  NcDispatcher leak_ncd(*leak_policy);
  const OnlineEngine leaky = run_dispatcher_nc(
      inst, leak_ncd, /*setup=*/0.0, nullptr, {}, /*unsafe_nc_leak=*/true);

  EXPECT_EQ(leaky.machine_of(2), 1);  // true frontiers: machine 1 wins
  EXPECT_NE(honest.machine_of(2), leaky.machine_of(2));
}

}  // namespace
}  // namespace flowsched
