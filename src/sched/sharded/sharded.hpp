// ShardedEngine: intra-simulation parallelism from the paper's structure
// theory.
//
// The paper's disjoint / nested / interval processing-set structures
// partition machines into nearly independent groups, and that partition is
// exactly the decomposition needed to parallelize *inside one simulation*:
// split [0, m) into S contiguous dispatcher shards, give each shard its own
// StreamingEngine (decision loop + calendar queue) over its owned machines,
// and route each released task to exactly one shard. Tasks whose M_i is
// contained in a single shard's range dispatch there with the full eligible
// set; tasks whose M_i spans a boundary ("boundary tasks") are routed by a
// fixed owner rule — the lowest shard owning any machine of M_i — and
// dispatch over M_i restricted to the executing shard's range, so no lane
// ever touches a machine another lane owns.
//
// ## Determinism contract (the whole design hangs on this)
//
// Output — assignments, flow statistics, peak backlog, observer streams — is
// a pure function of the release sequence and the options (shards,
// epoch_tasks, steal_threshold). It does NOT depend on shard_workers, thread
// timing, or the core budget. That holds because the two kinds of "stealing"
// are kept strictly apart:
//
//  * TASK-level stealing is deterministic routing. When the owner shard's
//    pending backlog exceeds `steal_threshold`, a boundary task may be
//    rebound to a less-loaded co-owning shard, chosen by a pure splitmix64
//    function of (epoch, owner shard, sequence-in-epoch). Pending counts are
//    themselves deterministic: lane in-flight snapshots at epoch start plus
//    tasks routed this epoch.
//  * THREAD-level stealing is runtime load balancing of *shard jobs* across
//    the worker team via bounded Chase–Lev deques (steal_deque.hpp). Which
//    thread executes a shard's batch is a race; the batch's decisions are
//    not, because each lane's state is touched only by whoever runs that
//    lane's job, and jobs are merged in global task order afterwards.
//
// Releases buffer into epochs of `epoch_tasks`; each epoch runs
// route (serial) -> execute lanes (parallel) -> merge (serial, global task
// order). The merge replays an exact global backlog sweep (same accounting
// as StreamingEngine::peak_in_flight), feeds the flow sink, and emits the
// merged observer stream — so on workloads where every M_i is shard-local,
// the output is bit-identical to the single-queue StreamingEngine (the
// fuzzer's [shard-equiv] differential, tests/test_sharded.cpp).
//
// Worker sizing is CoreBudget-aware (runner/thread_pool.hpp): inside a
// multi-threaded sweep the engine auto-sizes to the cores the sweep left
// uncommitted (possibly zero extra — then the caller thread runs every
// lane). An explicit shard_workers count pins the team size instead.
//
// When is sharding Fmax-safe? See docs/sharding.md: for disjoint/aligned
// layouts sharding changes nothing (the single-queue engine never compares
// machines across groups either — Th. 6's regime), while overlapping-ring
// layouts pay a measured Fmax cost for losing global EFT at boundaries
// (bench_ext_shard quantifies both).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "model/instance.hpp"
#include "obs/observer.hpp"
#include "sched/calendar.hpp"
#include "sched/dispatchers.hpp"
#include "sched/streaming.hpp"

namespace flowsched {

/// \brief Balanced contiguous partition of [0, m) into shards: shard s owns
/// [lo[s], lo[s+1]) with widths differing by at most one.
struct ShardMap {
  int m = 0;
  int shards = 0;
  std::vector<int> lo;     ///< shards+1 boundaries
  std::vector<int> owner;  ///< owning shard per machine

  static ShardMap build(int m, int shards);
  int shard_of(int machine) const {
    return owner[static_cast<std::size_t>(machine)];
  }
  /// True iff `set` (non-empty) lies inside one shard's range.
  bool shard_local(const ProcSet& set) const {
    return shard_of(set.min()) == shard_of(set.max());
  }
};

class ShardedEngine {
 public:
  struct Options {
    /// Dispatcher shards (1 <= shards <= m).
    int shards = 1;
    /// Worker team size. >= 1 pins exactly that many workers (capped at
    /// `shards`); 0 auto-sizes to min(shards, 1 + uncommitted CoreBudget
    /// cores). The caller thread is always worker 0.
    int shard_workers = 0;
    /// Releases buffered per epoch (route/execute/merge granularity).
    int epoch_tasks = 8192;
    /// Owner-shard pending backlog above which a boundary task may be
    /// deterministically rebound to a less-loaded co-owning shard.
    std::size_t steal_threshold = 512;
  };

  /// Builds one dispatcher per shard (called with the shard index). Each
  /// lane owns its dispatcher, so [shard-equiv] bit-equality needs every
  /// replica to make the same decisions: deterministic policies do so by
  /// construction, and randomized policies join the contract when built
  /// with counter_rng=true — each lane keys its draws on the global task
  /// id the router hands it (sched/tiebreak.hpp per_task_seed), so
  /// independently constructed replicas agree draw-for-draw.
  using DispatcherFactory =
      std::function<std::unique_ptr<Dispatcher>(int shard)>;

  /// One merged-order record per task, delivered during the serial merge in
  /// global release order — the hook cluster_sim uses to aggregate flow
  /// statistics byte-identically to the single-queue path.
  struct FlowEvent {
    long long task = 0;
    double release = 0;
    double proc = 0;
    int machine = -1;
    double start = 0;
    double weight = 1.0;  ///< Flow-time weight w_i (never affects routing).
  };
  using FlowSink = std::function<void(const FlowEvent&)>;

  ShardedEngine(int m, const DispatcherFactory& factory, Options opts);
  ShardedEngine(int m, const DispatcherFactory& factory);  // default options
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int m() const { return m_; }
  int shards() const { return static_cast<int>(lanes_.size()); }
  /// Actual worker team size (caller thread included) after budget/pinning.
  int workers() const { return workers_; }
  const ShardMap& shard_map() const { return map_; }
  /// Lane 0's dispatcher name (all lanes share the factory).
  const std::string& algo_name() const { return algo_name_; }

  /// Buffers one release; releases must be non-decreasing (a NaN time is
  /// rejected) and proc finite and > 0, checked here, at the call. Flushes
  /// the epoch (route -> parallel execute -> merge) when full. Assignments
  /// are observable through the flow sink / observer after the owning epoch
  /// merges, not per call — immediate dispatch still holds in *model* time
  /// (every decision uses only state from releases before it). An
  /// exception a lane raises during an epoch (a completion that overflows
  /// to +inf) is rethrown on the calling thread from whichever of
  /// release/flush/drain ran the epoch; the engine is then unusable except
  /// for destruction.
  void release(double time, double proc, const ProcSet& eligible,
               double weight = 1.0);

  /// Flushes the buffered partial epoch (no-op when empty).
  void flush();

  /// Flushes, then settles every lane's in-flight completions.
  void drain();

  void set_flow_sink(FlowSink sink) { sink_ = std::move(sink); }

  /// Borrowed sink for the MERGED stream: the four task milestones per
  /// release in global task order, exactly StreamingEngine's event shape.
  /// Run brackets stay with the driver, as everywhere else.
  void set_observer(SchedObserver* observer) { observer_ = observer; }

  /// Borrowed per-shard sink: lane `shard`'s milestones (global task ids),
  /// in lane-local order — the tagged per-shard trace streams.
  void set_shard_observer(int shard, SchedObserver* observer);

  // --- Merged statistics (deterministic; see the contract above) ----------
  long long released() const { return released_; }
  long long boundary_tasks() const { return boundary_tasks_; }
  long long stolen_tasks() const { return stolen_tasks_; }
  double max_flow() const { return max_flow_; }
  double mean_flow() const {
    return released_ > 0 ? flow_sum_ / static_cast<double>(released_) : 0.0;
  }
  /// Exact global backlog peak, same accounting as
  /// StreamingEngine::peak_in_flight (merge-time finish-event sweep).
  std::size_t peak_backlog() const { return peak_backlog_; }
  /// Max completion frontier across all lanes (flushed releases only).
  double makespan() const;
  /// Merged per-machine completion frontier (each machine from its owner).
  std::vector<double> completions() const;
  /// Merged per-machine busy time (load) from each machine's owning lane.
  std::vector<double> loads() const;
  /// Live footprint: lanes + epoch buffers + deques + backlog sweep. The
  /// epoch buffers are fixed at epoch_tasks × (56 + 16) B (one EpochTask and
  /// one Assignment per slot; 590 KB at the default 8192), so on short
  /// streams they dominate. A buffered task's M_i shares the caller's
  /// ProcSet block and is not counted; the boundary views the router builds
  /// are the engine's own and are.
  std::size_t memory_bytes() const;
  /// Lane accessors for tests and the metrics merge.
  const StreamingEngine& lane(int shard) const {
    return *lanes_[static_cast<std::size_t>(shard)].engine;
  }

 private:
  struct Lane {
    std::unique_ptr<Dispatcher> dispatcher;
    std::unique_ptr<StreamingEngine> engine;
    std::vector<std::uint32_t> batch;  // epoch-task indices routed here
    std::size_t pending = 0;           // deterministic routing backlog
    SchedObserver* observer = nullptr;
  };

  enum class TaskKind : std::uint8_t { kLocal, kBoundary, kWhole };

  struct EpochTask {
    double time = 0;
    double proc = 0;
    double weight = 1.0;
    long long id = 0;
    ProcSet eligible;   // shares the caller's block; kWhole skips
    ProcSet exec_view;  // boundary tasks: eligible ∩ executor range
    TaskKind kind = TaskKind::kLocal;
    int executor = 0;
  };

  void route_epoch();
  void execute_epoch();
  void merge_epoch();
  void run_lane(int shard);
  void run_jobs(int self);
  void worker_loop(int self);
  const ProcSet& lane_set(const EpochTask& et) const;

  int m_;
  Options opts_;
  ShardMap map_;
  ProcSet all_;
  std::string algo_name_;
  std::vector<Lane> lanes_;
  std::vector<ProcSet> range_set_;  // per-shard owned range as a ProcSet

  // Epoch buffers (reused).
  std::vector<EpochTask> epoch_buf_;
  std::vector<Assignment> epoch_results_;
  int epoch_count_ = 0;
  std::uint64_t epoch_index_ = 0;
  std::vector<int> thief_scratch_;
  double last_release_ = 0.0;

  // Merged statistics.
  long long released_ = 0;
  long long boundary_tasks_ = 0;
  long long stolen_tasks_ = 0;
  double flow_sum_ = 0;
  double max_flow_ = 0;
  std::size_t cur_backlog_ = 0;
  std::size_t peak_backlog_ = 0;
  CalendarQueue<std::uint8_t> backlog_events_;  // global finish-time sweep

  FlowSink sink_;
  SchedObserver* observer_ = nullptr;

  // Worker team (see steal_deque.hpp for the concurrency notes).
  class WorkerTeam;
  std::unique_ptr<WorkerTeam> team_;
  int workers_ = 1;
  int budget_claim_ = 0;
};

inline ShardedEngine::ShardedEngine(int m, const DispatcherFactory& factory)
    : ShardedEngine(m, factory, Options()) {}

/// \brief Replays a full instance and returns assignments in task order
/// (drains the engine; convenience for tests and the fuzzer differential).
std::vector<Assignment> run_sharded(const Instance& inst,
                                    const ShardedEngine::DispatcherFactory& factory,
                                    ShardedEngine::Options opts);

}  // namespace flowsched
