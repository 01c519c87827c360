// StreamingEngine: the immediate-dispatch decision core, O(backlog) memory.
//
// Every release in the repo is decided here. The core validates the task,
// settles finished segments up to the release instant, hands the dispatcher
// its view of the machines (true or censored, see Clairvoyance), checks the
// choice against M_i, charges non-clairvoyant setups, commits
// start = max(release, C_j), and narrates the four task events. It retains
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
// Used directly, the core serves the 10^8-request simulations of the kvstore
// layer (docs/streaming.md). OnlineEngine (sched/engine.hpp) is the same core
// plus a retention layer: it keeps every task and assignment for snapshots,
// audits, oracles and adversaries, narrates machine busy/idle transitions,
// and runs fault injection, whose attempt log is unbounded by design. Both
// engines therefore commit the same (machine, start) sequence for the same
// release sequence — one code path, asserted end to end by
// tests/test_streaming.cpp and the fuzzer's [diff-streaming] check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

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

class StreamingEngine {
 public:
  /// The dispatcher is borrowed (and reset); it must outlive the engine.
  StreamingEngine(int m, Dispatcher& dispatcher);

  int m() const { return m_; }
  long long released() const { return released_; }

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
  /// (machine, start).
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
  /// Total work assigned to each machine so far.
  const std::vector<double>& loads() const { return load_; }
  /// Tasks assigned to each machine so far.
  const std::vector<int>& counts() const { return count_; }

  /// Settles every segment with a finite end (end of stream).
  void drain();

  /// Tasks released and not yet past their completion on the sim clock.
  std::size_t in_flight() const { return in_flight_; }
  /// High-water mark of in_flight() — the backlog peak of the run.
  std::size_t peak_in_flight() const { return peak_in_flight_; }

  /// Live footprint estimate: finish rings + front queue + per-machine
  /// arrays. Independent of released() by construction: a ring doubles
  /// when full, so it holds under 2 x 8 B per task at its own peak (twice
  /// that in non-clairvoyant mode), plus O(m).
  std::size_t memory_bytes() const;

  /// \brief Attaches a borrowed event sink (nullptr detaches).
  ///
  /// Emits the four task milestones per release, all at the release instant
  /// (started / completed carry future model times). Machine busy/idle
  /// transitions belong to OnlineEngine's retention layer; streaming
  /// consumers (check/stream_audit.hpp, obs sketches) key off task events
  /// only.
  void set_observer(SchedObserver* observer) { observer_ = observer; }

 private:
  // OnlineEngine drives the core through the steps below: it narrates
  // machine occupancy between decide() and commit(), and its fault layer
  // dispatches attempts with choose() and occupy().
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
  CalendarQueue<int> fronts_;  // (front finish, machine) per machine with a
                               // finite front
  double front_width_ = kFrontWidth;
  std::size_t refine_at_ = 8 / kFrontWidth;

  std::size_t in_flight_ = 0;
  std::size_t peak_in_flight_ = 0;
  SchedObserver* observer_ = nullptr;
};

}  // namespace flowsched
