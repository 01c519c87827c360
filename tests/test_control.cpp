#include "control/control.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "check/audit.hpp"
#include "control/adaptive_sim.hpp"
#include "sched/dispatchers.hpp"

namespace flowsched {
namespace {

ControlObservation healthy_obs(int m, double t) {
  ControlObservation obs;
  obs.time = t;
  obs.backlog.assign(static_cast<std::size_t>(m), 0.0);
  obs.up.assign(static_cast<std::size_t>(m), 1);
  obs.arrival_rate = 1.0;
  return obs;
}

TEST(ReplicationController, RejectsBadConstruction) {
  const ControlConfig cfg;
  EXPECT_THROW(ReplicationController(0, LayoutSpec{}, cfg),
               std::invalid_argument);
  EXPECT_THROW(
      ReplicationController(4, LayoutSpec{ReplicationStrategy::kOverlapping, 5},
                            cfg),
      std::invalid_argument);
  ControlConfig bad = cfg;
  bad.period = 0;
  EXPECT_THROW(ReplicationController(4, LayoutSpec{}, bad),
               std::invalid_argument);
  bad = cfg;
  bad.hysteresis = 0.5;
  EXPECT_THROW(ReplicationController(4, LayoutSpec{}, bad),
               std::invalid_argument);
  // The k search range must be non-empty, within [1, m], and hold the
  // initial k: a candidate outside it could otherwise be scored and adopted.
  const LayoutSpec k3{ReplicationStrategy::kOverlapping, 3};
  bad = cfg;
  bad.k_max = -1;
  EXPECT_THROW(ReplicationController(8, k3, bad), std::invalid_argument);
  bad = cfg;
  bad.k_min = 3;
  bad.k_max = 2;
  EXPECT_THROW(ReplicationController(8, k3, bad), std::invalid_argument);
  bad = cfg;
  bad.k_min = 9;
  EXPECT_THROW(ReplicationController(8, k3, bad), std::invalid_argument);
  bad = cfg;
  bad.k_min = 4;
  EXPECT_THROW(ReplicationController(8, k3, bad), std::invalid_argument);
  bad = cfg;
  bad.k_max = 2;
  EXPECT_THROW(ReplicationController(8, k3, bad), std::invalid_argument);
  // The edges of the range stay valid: k_max = 0 means m, k_max above m is
  // clamped to m, and k may sit on either bound.
  ControlConfig edge = cfg;
  edge.k_min = 3;
  edge.k_max = 3;
  EXPECT_NO_THROW(ReplicationController(8, k3, edge));
  edge.k_max = 0;
  EXPECT_NO_THROW(ReplicationController(8, k3, edge));
  edge.k_min = 1;
  edge.k_max = 20;
  EXPECT_NO_THROW(ReplicationController(8, k3, edge));
}

TEST(ReplicationController, HoldsSteadyWhenHealthy) {
  ReplicationController ctl(
      4, LayoutSpec{ReplicationStrategy::kOverlapping, 2}, ControlConfig{});
  for (int e = 0; e < 5; ++e) {
    const ControlDecision d =
        ctl.decide(healthy_obs(4, 8.0 * static_cast<double>(e + 1)));
    EXPECT_EQ(d.reason, "hold") << "epoch " << e;
    EXPECT_FALSE(d.switched);
    EXPECT_EQ(d.moved_owners(), 0);
  }
  EXPECT_FALSE(ctl.migrating());
  EXPECT_EQ(ctl.active().strategy, ReplicationStrategy::kOverlapping);
  EXPECT_EQ(ctl.active().k, 2);
}

// Disjoint k=1 with machine 0 down: owner 0's set degrades to empty, so the
// incumbent is infeasible and the controller must raise k — incrementally,
// one owner per epoch at m=4 (max_move defaults to max(1, m/4) = 1).
TEST(ReplicationController, RaisesKWhenAFaultStarvesAnOwner) {
  ControlConfig cfg;
  cfg.period = 1.0;
  ReplicationController ctl(4, LayoutSpec{ReplicationStrategy::kDisjoint, 1},
                            cfg);
  ControlObservation obs = healthy_obs(4, 1.0);
  obs.up[0] = 0;

  const ControlDecision d0 = ctl.decide(obs);
  EXPECT_TRUE(d0.switched);
  EXPECT_EQ(d0.reason, "switch");
  EXPECT_EQ(d0.target.k, 2);
  EXPECT_EQ(d0.moved_owners(), 1);
  EXPECT_TRUE(ctl.migrating());
  // Frontier-aware eligibility: owner 0 already serves under the target
  // layout, the rest still under the old one.
  EXPECT_EQ(ctl.eligible_for_owner(0),
            replica_set(ReplicationStrategy::kDisjoint, 0, 2, 4));
  EXPECT_EQ(ctl.eligible_for_owner(3),
            replica_set(ReplicationStrategy::kDisjoint, 3, 1, 4));

  // The migration drains one owner per epoch, then cooldown holds.
  for (int e = 0; e < 3; ++e) {
    obs.time += 1.0;
    const ControlDecision d = ctl.decide(obs);
    EXPECT_EQ(d.reason, "migrate") << "epoch " << d.epoch;
    EXPECT_EQ(d.moved_owners(), 1);
  }
  EXPECT_FALSE(ctl.migrating());
  EXPECT_EQ(ctl.active().k, 2);
  obs.time += 1.0;
  EXPECT_EQ(ctl.decide(obs).reason, "cooldown");
}

// Every owner's set under the frontier-aware layout: owners below
// `frontier` use target(), the rest active().
void expect_eligible_is_replica_set(const ReplicationController& ctl, int m,
                                    int frontier, const char* when) {
  for (int o = 0; o < m; ++o) {
    const LayoutSpec& spec = o < frontier ? ctl.target() : ctl.active();
    const ProcSet set = ctl.eligible_for_owner(o);
    EXPECT_EQ(set, replica_set(spec.strategy, o, spec.k, m))
        << when << ", owner " << o;
    // A shared copy of the controller's set, not a fresh build.
    EXPECT_EQ(set.machines().data(), ctl.eligible_for_owner(o).machines().data())
        << when << ", owner " << o;
  }
}

TEST(ReplicationController, EligibleForOwnerIsTheReplicaSetThroughMigrationAndFlap) {
  ControlConfig cfg;
  cfg.period = 1.0;
  const int m = 8;
  ReplicationController ctl(m, LayoutSpec{ReplicationStrategy::kDisjoint, 1},
                            cfg);
  expect_eligible_is_replica_set(ctl, m, m, "before");
  ControlObservation obs = healthy_obs(8, 1.0);
  obs.up[0] = 0;  // owner 0 has no up replica: the controller must switch
  ControlDecision d = ctl.decide(obs);
  ASSERT_TRUE(d.switched);
  ASSERT_TRUE(ctl.migrating());
  expect_eligible_is_replica_set(ctl, m, d.moved_hi, "switch epoch");
  while (ctl.migrating()) {
    obs.time += 1.0;
    d = ctl.decide(obs);
    ASSERT_EQ(d.reason, "migrate");
    expect_eligible_is_replica_set(ctl, m, ctl.migrating() ? d.moved_hi : m,
                                   "migrate epoch");
  }
  EXPECT_EQ(ctl.active().k, 2);
  expect_eligible_is_replica_set(ctl, m, m, "after");

  ctl.set_unsafe_flap(true);
  for (int flip = 0; flip < 2; ++flip) {
    obs.time += 1.0;
    d = ctl.decide(obs);
    ASSERT_TRUE(d.switched);
    EXPECT_FALSE(ctl.migrating());
    expect_eligible_is_replica_set(ctl, m, m, "flap");
  }
  EXPECT_EQ(ctl.active().strategy, ReplicationStrategy::kDisjoint);
}

// Disjoint k=2 on m=8 with machine 2 down: owners 2 and 3 share the one
// surviving machine of their block, so the window [2,4) binds the incumbent
// at 1 / (2/8) = 4. Overlapping k=2 spreads them over machines 1 and 3 and
// sustains 7 (all up capacity), clearing the 1.25 hysteresis bar.
TEST(ReplicationController, CrashDecisionLogsItsBottleneckWindow) {
  ReplicationController ctl(8, LayoutSpec{ReplicationStrategy::kDisjoint, 2},
                            ControlConfig{});
  ControlObservation obs = healthy_obs(8, 8.0);
  obs.up[2] = 0;
  const ControlDecision d = ctl.decide(obs);
  EXPECT_EQ(d.current_score, 4.0);
  EXPECT_EQ(d.best_score, 7.0);
  EXPECT_EQ(d.bottleneck_lo, 2);
  EXPECT_EQ(d.bottleneck_len, 2);
  EXPECT_EQ(d.reason, "switch");
  EXPECT_EQ(d.target.strategy, ReplicationStrategy::kOverlapping);
  EXPECT_EQ(d.target.k, 2);
  EXPECT_EQ(d.str(),
            "epoch=0 t=8 from=Disjoint/k=2 target=Overlapping/k=2 "
            "moved=[0,2) score=4 best=7 bottleneck=[2,4) reason=switch "
            "switched");
}

TEST(ReplicationController, DecisionsReplayBitwise) {
  ControlConfig cfg;
  cfg.period = 2.0;
  const LayoutSpec initial{ReplicationStrategy::kDisjoint, 1};
  ReplicationController live(5, initial, cfg);
  std::vector<ControlObservation> observed;
  std::vector<std::string> decided;
  for (int e = 0; e < 8; ++e) {
    ControlObservation obs = healthy_obs(5, 2.0 * static_cast<double>(e + 1));
    if (e >= 2) obs.up[1] = 0;  // mid-run crash
    obs.arrival_rate = 0.5 * static_cast<double>(e);
    observed.push_back(obs);
    decided.push_back(live.decide(obs).str());
  }
  ReplicationController replay(5, initial, cfg);
  for (std::size_t e = 0; e < observed.size(); ++e) {
    EXPECT_EQ(replay.decide(observed[e]).str(), decided[e]) << "epoch " << e;
  }
}

ControlCase small_case(bool faulty) {
  ControlCase c;
  c.m = 4;
  c.initial = LayoutSpec{ReplicationStrategy::kDisjoint, 1};
  c.control.period = 1.0;
  c.control.cooldown = 1;
  c.control.setup_cost = 0.25;
  for (int i = 0; i < 24; ++i) {
    c.release.push_back(0.5 * static_cast<double>(i));
    c.proc.push_back(0.5);
    c.key.push_back(i);
  }
  if (faulty) {
    FaultPlan plan(4);
    plan.add_down(0, 0.5, 9.0);
    c.plan = plan;
  }
  return c;
}

TEST(AdaptiveSim, ControllerOffEqualsStaticPath) {
  for (const bool faulty : {false, true}) {
    const ControlCase c = small_case(faulty);
    EftDispatcher d_off(TieBreakKind::kMin);
    const AdaptiveRunReport off = run_adaptive(c, d_off, /*enabled=*/false);
    EftDispatcher d_static(TieBreakKind::kMin);
    const AdaptiveRunReport stat = run_static(c, d_static);
    EXPECT_EQ(off.flows, stat.flows) << "faulty=" << faulty;
    EXPECT_EQ(off.fmax, stat.fmax);
    EXPECT_EQ(off.makespan, stat.makespan);
    EXPECT_EQ(off.completed, stat.completed);
    EXPECT_EQ(off.str(), stat.str());
    EXPECT_EQ(off.decisions, 0);
    EXPECT_EQ(off.setup_total, 0.0);
  }
}

// A crash that starves owner 0 under disjoint k=1 forces a switch; the run
// must record decisions, migrate incrementally, and charge setup on moved
// owners — and the audit must replay the whole log cleanly.
TEST(AdaptiveSim, FaultTriggersAuditedSwitchWithSetupCharges) {
  const ControlCase c = small_case(/*faulty=*/true);
  AuditConfig acfg;
  acfg.fault_mode = true;
  acfg.infer_from_algo = false;
  InvariantAuditor auditor(acfg);
  EftDispatcher d(TieBreakKind::kMin);
  const AdaptiveRunReport rep = run_adaptive(c, d, /*enabled=*/true, &auditor);
  EXPECT_GT(rep.decisions, 0);
  EXPECT_GT(rep.switches, 0);
  EXPECT_GT(rep.setup_total, 0.0);
  EXPECT_EQ(rep.final_layout.k, 2);
  auditor.check_control_run(rep.log, c.control, c.m, c.initial);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  // Every charge names an owner some decision actually moved.
  for (const ControlLog::SetupCharge& ch : rep.log.charges()) {
    EXPECT_EQ(ch.amount, c.control.setup_cost);
    bool moved = false;
    for (const ControlDecision& dec : rep.log.decisions()) {
      if (dec.epoch == ch.epoch && ch.owner >= dec.moved_lo &&
          ch.owner < dec.moved_hi) {
        moved = true;
      }
    }
    EXPECT_TRUE(moved) << "owner " << ch.owner << " epoch " << ch.epoch;
  }
}

TEST(AdaptiveSim, PlantedFlapIsCaughtByTheAudit) {
  const ControlCase c = small_case(/*faulty=*/false);
  AuditConfig acfg;
  acfg.infer_from_algo = false;
  InvariantAuditor auditor(acfg);
  EftDispatcher d(TieBreakKind::kMin);
  const AdaptiveRunReport rep = run_adaptive(c, d, /*enabled=*/true, &auditor,
                                             /*unsafe_flap=*/true);
  ASSERT_GT(rep.decisions, 0);
  auditor.check_control_run(rep.log, c.control, c.m, c.initial);
  EXPECT_FALSE(auditor.ok());
  bool control_tag = false;
  for (const std::string& v : auditor.violations()) {
    if (v.find("[control-") != std::string::npos) control_tag = true;
  }
  EXPECT_TRUE(control_tag) << auditor.report();
}

// An infinite release used to keep the controller deciding every epoch up
// to it, until memory ran out; a NaN one slipped past the order check.
TEST(AdaptiveSim, RejectsNonFiniteRelease) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    ControlCase c = small_case(/*faulty=*/false);
    c.release.back() = bad;
    EftDispatcher d(TieBreakKind::kMin);
    EXPECT_THROW(run_adaptive(c, d, /*enabled=*/true), std::invalid_argument)
        << bad;
  }
}

TEST(AdaptiveSim, ReportAppendsControlFieldsOnlyWhenDecisionsExist) {
  const ControlCase c = small_case(/*faulty=*/false);
  EftDispatcher d1(TieBreakKind::kMin);
  const AdaptiveRunReport on = run_adaptive(c, d1, /*enabled=*/true);
  EftDispatcher d2(TieBreakKind::kMin);
  const AdaptiveRunReport off = run_adaptive(c, d2, /*enabled=*/false);
  EXPECT_NE(on.str().find("decisions="), std::string::npos);
  EXPECT_EQ(off.str().find("decisions="), std::string::npos);
}

}  // namespace
}  // namespace flowsched
