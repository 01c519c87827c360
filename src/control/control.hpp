// Closed-loop adaptive replication control (docs/control.md).
//
// A ReplicationController observes a running cluster — the per-machine
// backlog profile w_t(j), the availability set from the FaultPlan, and an
// arrival-rate estimate — at a fixed dyadic cadence and re-tunes the
// replication factor k and the layout (overlapping ring vs disjoint
// blocks) online. The in-the-loop oracle is the paper's LP (15): a
// candidate layout's score is the maximum sustainable arrival rate of its
// replica sets *degraded to the currently-up machines*, so the controller
// reacts to crashes with the program Section 7.2 uses to compare static
// layouts — solved in closed form by max_load_windows(), which also names
// the owner window that binds the score.
//
// Contracts, all audited by InvariantAuditor::check_control_run:
//
//   [control-determinism]    decide() is a pure function of (controller
//                            state, observation, config): replaying the
//                            logged observations through a fresh controller
//                            reproduces every logged decision bitwise —
//                            byte-identical at any thread count.
//   [control-movement-bound] re-tuning is incremental: a layout change
//                            migrates at most max_move owners per decision
//                            epoch, k moves by at most 1 per switch, and at
//                            most one migration is in flight.
//   [control-setup-accounting] movement is never free: every moved owner
//                            charges the non-clairvoyant setup cost on its
//                            next request, each exactly once, and the
//                            charges reconcile with the decision log.
//
// Graceful degradation: hysteresis (a candidate must beat the incumbent's
// headroom by a factor) and a cooldown (epochs held after a migration
// completes) prevent flapping.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/replication.hpp"

namespace flowsched {

/// One point in the controller's decision space: a replication strategy
/// (the layout) plus the replication factor k.
struct LayoutSpec {
  ReplicationStrategy strategy = ReplicationStrategy::kOverlapping;
  int k = 3;

  friend bool operator==(const LayoutSpec& a, const LayoutSpec& b) {
    return a.strategy == b.strategy && a.k == b.k;
  }
  /// "overlapping/k=3" — stable rendering used by the bitwise log replay.
  std::string str() const;
};

/// Controller tuning. All defaults are dyadic so every derived time and
/// charge is exact double arithmetic.
struct ControlConfig {
  bool enabled = true;
  double period = 8.0;      ///< Decision cadence (dyadic model time).
  double hysteresis = 1.25; ///< Required headroom improvement factor.
  int cooldown = 2;         ///< Epochs held after a migration completes.
  int k_min = 1;            ///< Lower bound of the k search range.
  int k_max = 0;            ///< Upper bound; 0 means m.
  int max_move = 0;         ///< Owners migrated per epoch; 0 means max(1, m/4).
  double setup_cost = 0.25; ///< Charged on each moved owner's next request.
  /// Mean per-machine backlog above which the incumbent counts as
  /// overloaded even if its LP score still covers the arrival rate
  /// (0 disables the backlog trigger).
  double overload_backlog = 0.0;

  std::string str() const;
};

/// What the controller sees at one decision instant. Assembled by the
/// adaptive simulation from OnlineEngine::profile / MetricsCollector and
/// FaultPlan::is_up; never from wall clock or thread state.
struct ControlObservation {
  double time = 0;
  std::vector<double> backlog;    ///< Per machine: w_t(j) = max(0, C_j - t).
  std::vector<std::uint8_t> up;   ///< Per machine: available at `time`.
  double arrival_rate = 0;        ///< Released requests / elapsed time.

  std::string str() const;
};

/// One decision, fully self-describing for bitwise replay. `moved_lo` /
/// `moved_hi` is the half-open owner range migrated this epoch (empty when
/// the controller held). `bottleneck_lo` / `bottleneck_len` is the cyclic
/// owner window that binds `current_score` (empty on epochs that score
/// nothing: migrate steps).
struct ControlDecision {
  int epoch = 0;
  double time = 0;
  LayoutSpec from;      ///< Active layout entering the epoch.
  LayoutSpec target;    ///< Layout being migrated toward after the epoch.
  int moved_lo = 0;
  int moved_hi = 0;
  double current_score = 0;  ///< Degraded LP headroom of `from`.
  double best_score = 0;     ///< Best candidate headroom seen this epoch.
  int bottleneck_lo = 0;
  int bottleneck_len = 0;
  bool switched = false;     ///< A new migration began this epoch.
  /// Always false: the closed-form oracle cannot fail. Kept so reports
  /// that count fallbacks keep their field.
  bool fallback = false;
  std::string reason;        ///< "hold"|"cooldown"|"migrate"|"switch".

  int moved_owners() const { return moved_hi - moved_lo; }
  std::string str() const;
};

/// \brief Append-only record of one adaptive run: every decision with the
/// observation it was made on, and every setup charge actuation produced.
/// str() is the canonical serialization the determinism audit compares.
class ControlLog {
 public:
  struct SetupCharge {
    int owner = 0;
    int epoch = 0;      ///< Decision epoch whose migration moved the owner.
    double amount = 0;
  };

  void record(const ControlObservation& obs, const ControlDecision& d);
  void record_charge(int owner, int epoch, double amount);

  const std::vector<ControlDecision>& decisions() const { return decisions_; }
  const std::vector<ControlObservation>& observations() const {
    return observations_;
  }
  const std::vector<SetupCharge>& charges() const { return charges_; }

  int switches() const;
  int fallbacks() const;
  /// Total owners migrated across all decisions.
  long long moved_total() const;
  double setup_total() const;

  std::string str() const;

 private:
  std::vector<ControlDecision> decisions_;
  std::vector<ControlObservation> observations_;
  std::vector<SetupCharge> charges_;
};

/// \brief The closed-loop controller. Feed it one ControlObservation per
/// decision epoch; it returns the decision and tracks the migration
/// frontier that actuates it incrementally.
///
/// Determinism: the controller holds no RNG and reads no clock — decide()
/// is a pure function of the constructor arguments and the observation
/// sequence, which is what makes the [control-determinism] replay possible.
/// `seed` is carried for provenance (it names the replicate that produced
/// the observations) but never drawn from.
class ReplicationController {
 public:
  ReplicationController(int m, LayoutSpec initial, ControlConfig config,
                        std::uint64_t seed = 0);

  int m() const { return m_; }
  const ControlConfig& config() const { return config_; }
  std::uint64_t seed() const { return seed_; }

  /// The layout owners at or beyond the migration frontier still use.
  const LayoutSpec& active() const { return active_; }
  /// The layout owners below the frontier already use (== active() when no
  /// migration is in flight).
  const LayoutSpec& target() const { return target_; }
  bool migrating() const { return frontier_ < m_; }

  /// Replica set serving keys owned by `owner` under the current
  /// (frontier-aware) layout: a shared copy of a set the controller holds,
  /// equal to replica_set() of the layout that serves the owner.
  ProcSet eligible_for_owner(int owner) const;

  /// One decision epoch. Also advances the migration frontier by at most
  /// max_move owners and updates the cooldown.
  ControlDecision decide(const ControlObservation& obs);

  /// Effective bounds after defaulting (k_max = 0 -> m, max_move = 0 ->
  /// max(1, m/4)).
  int effective_k_max() const;
  int effective_max_move() const;

  /// \brief Testing backdoor: flip the layout every epoch and jump the
  /// migration frontier in one step, ignoring hysteresis, cooldown, and the
  /// movement bound. This is the planted bug the fuzzer's
  /// --inject-control-bug campaign must catch via [control-determinism] /
  /// [control-movement-bound]; never enable it outside tests.
  void set_unsafe_flap(bool v) { unsafe_flap_ = v; }

 private:
  /// Advances the frontier by at most max_move owners; returns the moved
  /// range via the decision fields and closes the migration when done.
  void advance_frontier(ControlDecision* d);
  void begin_migration(const LayoutSpec& to, ControlDecision* d);

  int m_;
  ControlConfig config_;
  std::uint64_t seed_;
  LayoutSpec active_;
  LayoutSpec target_;
  // The m replica sets of active_ and target_, rebuilt whenever either
  // layout changes, so eligible_for_owner builds nothing.
  std::vector<ProcSet> active_sets_;
  std::vector<ProcSet> target_sets_;
  std::vector<double> popularity_;  ///< Uniform 1/m: every owner weighs alike.
  int frontier_;       ///< Owners < frontier_ use target_; m_ = no migration.
  int cooldown_left_ = 0;
  int epoch_ = 0;
  bool unsafe_flap_ = false;
};

}  // namespace flowsched
