// StreamingEngine: the immediate-dispatch decision core, O(m + backlog)
// memory.
//
// Every release in the repo is decided here. The core validates the task,
// settles finished segments up to the release instant, hands the dispatcher
// its view of the machines (true or censored, see Clairvoyance), checks the
// choice against M_i, charges non-clairvoyant setups, commits
// start = max(release, C_j), and narrates the four task events and the
// machine busy/idle transitions to an attached observer. It retains
// nothing per task beyond the task's pending finish:
//
//  * each machine runs its tasks in dispatch order, so its finishes only
//    ever increase and its unfinished segments form a FIFO;
//  * a CalendarQueue (sched/calendar.hpp) holds the front finish of each
//    busy machine, at most m entries however deep the backlog;
//  * a per-machine ring holds the finish times of the segments behind the
//    front (and, non-clairvoyant only, their setup+proc). A release pops
//    the machines whose front is due, retires every due entry of their
//    rings, and queues each ring's next finish as the new front;
//  * per-machine aggregates (completion frontier, load, count, queue depth)
//    are plain arrays, exactly the spans MachineState hands to dispatchers.
//
// The fault layer (set_faults, docs/faults.md) lives here too: the
// availability cursor, the retry/park calendar, kill/requeue/drop, the
// FaultStats counters, the per-machine occupied work and a fixed table of
// interned degraded sets M_i ∩ up(t). A queued retry carries its task's
// release, proc, weight and M_i, so fault mode adds O(queued retries)
// state and nothing per task. Each task's terminal fate goes to the driver
// once, through a borrowed FateSink (FlowsInTaskOrder keeps one double per
// task); attempts are written only into a FaultLog that a reader attaches.
//
// Used directly, the core serves the 10^8-request simulations of the kvstore
// layer (docs/streaming.md), the cluster simulator and the adaptive control
// loop. OnlineEngine (sched/engine.hpp) is the same core plus retention: it
// keeps every task, assignment and setup for snapshots, audits, oracles and
// adversaries, and attaches a FaultLog in fault mode. Both engines therefore
// commit the same (machine, start) sequence for the same release sequence —
// one code path, asserted end to end by tests/test_streaming.cpp and the
// fuzzer's [diff-streaming] check.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "model/instance.hpp"
#include "model/schedule.hpp"
#include "obs/observer.hpp"
#include "sched/calendar.hpp"
#include "sched/dispatchers.hpp"

namespace flowsched {

/// What the dispatcher is allowed to see about processing times.
///
/// kClairvoyant (the paper's model, the default): the dispatcher sees p_i
/// and the true machine frontiers/loads. kNonClairvoyant (Mäcker et al.'s
/// setting): p_i is hidden until the task completes — the dispatcher sees a
/// placeholder processing time, a *censored* completion frontier (the
/// release instant while the machine is observably busy, the true last
/// completion once it has drained) and finished work only, plus the real
/// queue depths and counts. The engine itself always knows the truth; only
/// the policy interface is censored, and the [nc-no-peek] audit replays the
/// run under a proc permutation to prove no dispatcher decision leaked p_i.
enum class Clairvoyance { kClairvoyant, kNonClairvoyant };

/// A fault-mode task's terminal fate, as StreamingEngine hands it to its
/// FateSink.
struct TaskEnd {
  int task = -1;
  TaskFate fate = TaskFate::kPending;  ///< kCompleted or kDropped.
  double completion = -1;              ///< C_i; -1 if dropped.
  double release = 0;                  ///< The task's r_i and weight.
  double weight = 1;
};

/// Borrowed receiver of fault-mode terminal fates: exactly one call per
/// released task, in settle order (not task order — a killed task settles
/// after the tasks released behind it).
class FateSink {
 public:
  virtual void on_fate(const TaskEnd& end) = 0;

 protected:
  ~FateSink() = default;
};

/// A FateSink that files each task's flow by task id, for drivers that
/// report flows in task order once the run is drained: 8 B per task, and a
/// weight column of 8 B more per task once a task of weight other than 1
/// settles.
class FlowsInTaskOrder final : public FateSink {
 public:
  explicit FlowsInTaskOrder(int tasks)
      : flows_(static_cast<std::size_t>(tasks),
               std::numeric_limits<double>::quiet_NaN()) {}

  void on_fate(const TaskEnd& end) override {
    if (end.fate != TaskFate::kCompleted) return;
    const auto i = static_cast<std::size_t>(end.task);
    flows_[i] = end.completion - end.release;
    if (end.weight != 1.0 && weights_.empty()) {
      weights_.assign(flows_.size(), 1.0);
    }
    if (!weights_.empty()) weights_[i] = end.weight;
  }

  /// Calls f(weight, flow) for each completed task, in task order.
  template <class F>
  void for_each_completed(F&& f) const {
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (!std::isnan(flows_[i])) {
        f(weights_.empty() ? 1.0 : weights_[i], flows_[i]);
      }
    }
  }

  /// The completed tasks' flows in task order, compacted in place and moved
  /// out; the sink is spent.
  std::vector<double> take_flows() && {
    std::erase_if(flows_, [](double f) { return std::isnan(f); });
    return std::move(flows_);
  }

 private:
  // A task's flow stays NaN until it completes, and a dropped task's stays
  // NaN for good; a flow is never NaN, releases being finite.
  std::vector<double> flows_;
  std::vector<double> weights_;  // empty while every settled weight is 1
};

class StreamingEngine {
 public:
  /// The dispatcher is borrowed (and reset); it must outlive the engine.
  StreamingEngine(int m, Dispatcher& dispatcher);

  int m() const { return m_; }

  /// \brief Switches the engine into non-clairvoyant mode (docs/scenarios.md).
  ///
  /// Must be called before the first release. `setup` >= 0 is the
  /// per-machine setup time charged whenever a machine switches processing
  /// sets (its previous task's M_i differs from the new one's; the first
  /// task on a machine is free): C_i = (S_i + setup) + p_i, associated
  /// left-to-right so the dyadic-grid values stay exact. With setup = 0 the
  /// committed (machine, start) sequence of a clairvoyance-oblivious policy
  /// is bit-equal to the clairvoyant run's — the fuzzer's [diff-nc].
  void set_clairvoyance(Clairvoyance c, double setup = 0.0);
  Clairvoyance clairvoyance() const { return clairvoyance_; }
  double setup_time() const { return setup_; }

  /// \brief Testing backdoor: in non-clairvoyant mode, hand the dispatcher
  /// the TRUE frontiers, loads, and p_i — i.e. let it peek. This is the
  /// planted bug the fuzzer's --inject-nc-bug campaign must catch via the
  /// [nc-no-peek] counterfactual replay; never enable it outside tests.
  void set_unsafe_nc_leak(bool v) { nc_leak_ = v; }

  /// Releases one task; releases must be non-decreasing and proc finite and
  /// positive. Segments finishing up to the release instant are settled
  /// first (queue depths decremented). Returns the committed
  /// (machine, start). In fault mode that is the first attempt's segment
  /// when it completes, and (-1, -1) when it is killed or parked: the
  /// task's fate then reaches the FateSink later.
  Assignment release(double time, double proc, const ProcSet& eligible) {
    return release(time, proc, eligible, released_);
  }

  /// As above, with a caller-supplied task id stamped on observer events and
  /// handed to the dispatcher (MachineState::task_id) in place of the
  /// engine-local release counter. The
  /// sharded engine's lanes each see a subsequence of the global stream and
  /// emit the *global* task id this way (sched/sharded/sharded.hpp); the
  /// decision path is identical to the default overload. `weight` rides
  /// through to observer events only — it never affects decisions.
  Assignment release(double time, double proc, const ProcSet& eligible,
                     long long task_id, double weight = 1.0);

  /// Task-shaped overload, for drivers that iterate an Instance.
  Assignment release(const Task& task) {
    return release(task.release, task.proc, task.eligible, released_,
                   task.weight);
  }

  /// C_j: machine completion frontier.
  const std::vector<double>& completions() const { return completion_; }
  /// Profile w_t(j) = max(0, C_j - t) over everything released so far.
  std::vector<double> profile(double t) const;
  /// Tasks assigned to each machine so far.
  const std::vector<int>& counts() const { return count_; }

  /// Settles every segment with a finite end (end of stream).
  void drain();

  /// Tasks released and not yet past their completion on the sim clock.
  std::size_t in_flight() const { return in_flight_; }
  /// High-water mark of in_flight() — the backlog peak of the run.
  std::size_t peak_in_flight() const { return peak_in_flight_; }

  /// Live footprint estimate: finish rings + front queue + per-machine
  /// arrays, and in fault mode the retry queue and the degraded-set table.
  /// Independent of released() by construction: a ring doubles when full,
  /// so it holds under 2 x 8 B per task at its own peak (twice that in
  /// non-clairvoyant mode), a queued retry costs one calendar entry, the
  /// table has a fixed number of slots, plus O(m). An attached FaultLog
  /// belongs to its reader and is not counted.
  std::size_t memory_bytes() const;

  /// \brief Attaches a borrowed event sink (nullptr detaches).
  ///
  /// Emits the four task milestones per release, all at the release instant
  /// (started / completed carry future model times), and in a fault-free
  /// run each machine's busy/idle transitions (between a task's dispatched
  /// and started events; finish_observation() closes the open ones). Under
  /// faults only the successful attempt's task events are narrated:
  /// segment occupancy is not an alternating busy/idle staircase.
  void set_observer(SchedObserver* observer) {
    observer_ = observer;
    observed_busy_.resize(static_cast<std::size_t>(m_));
  }

  /// \brief Emits the trailing machine-idle transitions.
  ///
  /// Machines still busy at their completion frontier go idle there; call
  /// once, after the last release (idempotent per attachment). Does not
  /// emit on_run_end — that stays with the driver, which knows the
  /// makespan it wants to report.
  void finish_observation();

  // --- Fault injection (src/fault/, docs/faults.md) ----------------------

  /// \brief Attaches a borrowed availability plan (nullptr detaches).
  ///
  /// Must be called before the first release; the plan must cover exactly
  /// m machines and outlive the engine; incompatible with non-clairvoyant
  /// mode. With a plan attached, release() runs the fault path:
  /// dispatchers see the degraded eligible set M_i ∩ up(t), a task whose
  /// machine crashes mid-segment is killed at the crash instant and
  /// requeued per `recovery`, and a task whose degraded set is empty is
  /// parked until the earliest recovery among its machines (dropped —
  /// never silently lost — when no machine ever recovers or the retry
  /// budget is exhausted). Attempts that see the same up members of M_i
  /// share one interned degraded set. With no plan (the default) release()
  /// pays one null check for it.
  void set_faults(const FaultPlan* plan, RecoveryPolicy recovery = {});

  /// Borrowed receiver of each task's terminal fate (nullptr detaches).
  void set_fate_sink(FateSink* sink) { fate_sink_ = sink; }
  /// Borrowed log that receives every attempt and fate from the next
  /// release on (nullptr detaches). Attach it before the first release: it
  /// registers tasks in release order.
  void set_fault_log(FaultLog* log) { fault_log_ = log; }

  /// \brief Processes every queued retry/park wake-up (call after the last
  /// release; model time runs to +infinity). After this, every released
  /// task has reached its terminal fate. Fault mode only.
  void drain_faults();

  /// The run's fault counters. Fault mode only.
  const FaultStats& fault_stats() const;
  /// Work each machine was occupied by segments, killed ones included,
  /// summed in attempt order. Fault mode only.
  const std::vector<double>& occupied() const;

  /// \brief Testing backdoor: dispatch on the *undegraded* eligible set and
  /// run segments straight through down intervals. This is the planted bug
  /// the fuzzer's --inject-fault-bug campaign must catch via the
  /// [fault-downtime] audit; never enable it outside tests.
  void set_unsafe_ignore_downtime(bool v) { ignore_downtime_ = v; }

 private:
  // OnlineEngine drives the core through decide() and commit(), so that it
  // can retain each decision's setup.
  friend class OnlineEngine;

  // One dispatch decision, taken but not yet applied to the machine arrays.
  struct Decision {
    long long task;
    double release;
    double proc;
    double weight;
    int machine;
    double start;
    double setup;
    double finish;
  };

  // The segments of one machine queued behind its front, in dispatch
  // order: `size` entries from `head` in a ring of `cap` slots (a power of
  // two), allocated when the machine first queues a second segment. `buf`
  // holds the finishes in [0, cap) and, in non-clairvoyant mode only,
  // their setup+proc in [cap, 2 cap).
  struct Ring {
    std::unique_ptr<double[]> buf;
    std::uint32_t head = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  // Release-order, processing-set and proc checks; `task.eligible` must be
  // resolved (non-empty).
  void admit(const Task& task);
  // Retires every segment ending at or before `time`.
  void settle_until(double time);
  // The dispatcher's machine choice for `probe` under the active view,
  // checked against probe.eligible.
  int choose(const Task& probe, long long task_id);
  // admit + settle + released event + choose + setup + dispatched event.
  Decision decide(const Task& task, long long task_id);
  // started/completed events, then the machine arrays and the finish ring.
  void commit(const Decision& d);
  // The fields every per-machine task event of `d` carries.
  static ObsEvent task_event(const Decision& d);
  // Machine `machine` is busy until `end` (>= its previous end; +inf for a
  // fault-mode segment that never ends): new frontier, one more queued
  // segment until `end` settles `work` into the censored finished-work
  // view.
  void occupy(int machine, double end, double work);
  // Narrates machine `machine` going busy at `start` (idle first when its
  // frontier lies before `start`).
  void narrate_busy(int machine, double start);

  // A queued attempt of one task: its first dispatch, a retry after a kill
  // or a wake-up after a park. It carries the task itself, so the fault
  // layer needs nothing per task.
  struct Retry {
    int task = -1;
    int attempt = 0;
    double remaining = 0;  // work still owed (less than proc after a checkpoint)
    double release = 0;
    double proc = 0;
    double weight = 1;
    ProcSet eligible;
  };
  // The degraded-set table has a power of two of slots, at most
  // kMaxDegradedSlots and at most kDegradedMembers / m, so the sets it
  // keeps alive hold at most 2^16 members (256 KB) whatever m is. A set
  // only loses members that are down, so a store of m replica sets of k
  // machines degrades into at most m (2^k - 2) distinct sets; a few
  // machines are down at a time, and the same sets recur with each crash.
  static constexpr std::size_t kMaxDegradedSlots = 1024;
  static constexpr std::size_t kDegradedMembers = std::size_t{1} << 16;
  // The fault layer's state, allocated by set_faults.
  struct Faults {
    Faults(const FaultPlan& plan, const RecoveryPolicy& recovery, int m);
    // The set whose members are `up`: the interned one when an earlier
    // attempt saw the same members, else a new one that takes its slot.
    const ProcSet& degraded_set();
    FaultPlan::Cursor availability;  // the attempts' window on the plan
    RecoveryPolicy recovery;
    // Pops in ascending (time, insertion seq), so equal-time retries
    // dispatch in creation order. Retries are sparse (a few per crash), so
    // the ring starts small and a drained bucket frees its entries: the
    // queue's footprint follows the retries it holds.
    CalendarQueue<Retry> retries;
    FaultStats stats;
    std::vector<double> occupied;  // per machine, summed in attempt order
    std::vector<int> up;           // reused degraded-set scratch
    // Degraded sets by the low bits of their members' hash; direct-mapped,
    // so a collision replaces the older set.
    std::vector<ProcSet> degraded;
  };
  // admit + due retries + released event + the first attempt.
  Assignment release_faulty(long long task_id);
  // Dispatches every queued attempt due at or before `until`.
  void process_retries(double until);
  // One attempt at `now`: park, complete or be killed (and requeue or drop).
  // Returns the segment when it completes, (-1, -1) otherwise.
  Assignment dispatch_attempt(Retry attempt, double now);
  // Counts `attempt`, charges its work to its machine, and logs it.
  void record(const FaultAttempt& attempt);
  // Seals `attempt`'s task: counters, log, sink.
  void settle(const Retry& attempt, TaskFate fate, double completion);

  // Reallocates a full ring at twice its capacity.
  void grow(Ring& ring) const;
  // Rebuilds the front queue at half its bucket width.
  void refine_fronts();

  int m_;
  Dispatcher* dispatcher_;
  long long released_ = 0;
  double last_release_ = 0.0;
  ProcSet all_;  // cached "empty means all machines" expansion
  Task probe_;   // release()'s dispatcher view, reused across requests

  // Per-machine aggregates, span-compatible with MachineState.
  std::vector<double> completion_;
  std::vector<double> load_;
  std::vector<int> count_;
  std::vector<int> queued_;  // unfinished segments: front + ring + never-ending

  // Non-clairvoyant state (empty/unused in clairvoyant mode).
  Clairvoyance clairvoyance_ = Clairvoyance::kClairvoyant;
  double setup_ = 0.0;
  bool nc_leak_ = false;
  std::vector<double> finished_work_;        // per machine, settled setup+proc
  std::vector<double> front_work_;           // per machine, front setup+proc
  std::vector<double> censored_completion_;  // scratch, eligible slots only
  std::vector<double> censored_load_;        // scratch, eligible slots only
  std::vector<ProcSet> last_set_;            // per machine, previous M_i
  std::vector<bool> has_last_set_;

  static constexpr std::uint32_t kInitialRing = 4;
  std::vector<Ring> rings_;

  // Front finishes live a few service times ahead of the clock, so the
  // calendar's bucket ring starts small and doubles on demand. Its bucket
  // width starts on the dyadic 2^-3 grid and halves (refine_fronts) each
  // time the fronts outnumber eight per bucket at unit service time.
  static constexpr std::size_t kInitialBuckets = 16;
  static constexpr double kFrontWidth = 0.125;
  static constexpr double kFinestFrontWidth = 1.0 / 32;
  // The retry queue's bucket width, on the recovery policy's 2^-3 grid; its
  // ring grows by doubling to cover the farthest retry or wake-up.
  static constexpr double kRetryWidth = 0.125;
  static constexpr std::size_t kRetryBuckets = 64;
  static constexpr std::size_t kMaxRetryBuckets = std::size_t{1} << 16;
  CalendarQueue<int> fronts_;  // (front finish, machine) per machine with a
                               // finite front
  double front_width_ = kFrontWidth;
  std::size_t refine_at_ = 8 / kFrontWidth;

  std::size_t in_flight_ = 0;
  std::size_t peak_in_flight_ = 0;
  SchedObserver* observer_ = nullptr;
  // Machines whose busy interval is still open (for finish_observation);
  // sized once an observer attaches.
  std::vector<bool> observed_busy_;

  std::unique_ptr<Faults> faults_;  // null = faults off
  FateSink* fate_sink_ = nullptr;
  FaultLog* fault_log_ = nullptr;
  bool ignore_downtime_ = false;
};

}  // namespace flowsched
