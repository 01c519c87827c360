#include "sched/sharded/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "runner/thread_pool.hpp"
#include "sched/sharded/steal_deque.hpp"

namespace flowsched {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The steal-choice hash: a pure function of (epoch, owner shard, sequence
// within the epoch) — the determinism contract's "steal order" clause.
std::uint64_t shard_mix(std::uint64_t epoch, std::uint64_t owner,
                        std::uint64_t seq) {
  return mix64(mix64(mix64(epoch) ^ owner) ^ seq);
}

// True iff `set` has a member in [lo, hi).
bool overlaps_range(const ProcSet& set, int lo, int hi) {
  const std::vector<int>& mem = set.machines();
  auto it = std::lower_bound(mem.begin(), mem.end(), lo);
  return it != mem.end() && *it < hi;
}

}  // namespace

ShardMap ShardMap::build(int m, int shards) {
  if (m <= 0) throw std::invalid_argument("ShardMap: m <= 0");
  if (shards < 1 || shards > m) {
    throw std::invalid_argument("ShardMap: shards must be in [1, m]");
  }
  ShardMap map;
  map.m = m;
  map.shards = shards;
  map.lo.resize(static_cast<std::size_t>(shards) + 1);
  for (int s = 0; s <= shards; ++s) {
    map.lo[static_cast<std::size_t>(s)] = static_cast<int>(
        (static_cast<long long>(s) * m) / shards);
  }
  map.owner.resize(static_cast<std::size_t>(m));
  for (int s = 0; s < shards; ++s) {
    for (int j = map.lo[static_cast<std::size_t>(s)];
         j < map.lo[static_cast<std::size_t>(s) + 1]; ++j) {
      map.owner[static_cast<std::size_t>(j)] = s;
    }
  }
  return map;
}

// Thread-level job distribution: one Chase–Lev deque of shard ids per
// worker; worker 0 is the caller thread. run() deals jobs round-robin,
// publishes the epoch under the mutex, drains as worker 0, then waits for
// the team. Which worker runs which shard job is a race by design — the
// deques only balance wall-clock, never decisions. A job that throws (a
// lane's StreamingEngine rejecting a completion that overflows) still
// counts as done, so the epoch ends; run() then rethrows the first such
// exception on the caller thread instead of letting it end the process.
class ShardedEngine::WorkerTeam {
 public:
  WorkerTeam(ShardedEngine* engine, int workers) : engine_(engine) {
    deques_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      deques_.push_back(std::make_unique<BoundedStealDeque<int>>(
          static_cast<std::size_t>(engine_->shards())));
    }
    threads_.reserve(static_cast<std::size_t>(workers) - 1);
    for (int w = 1; w < workers; ++w) {
      threads_.emplace_back([this, w] { loop(w); });
    }
  }

  ~WorkerTeam() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void run(const std::vector<int>& jobs) {
    {
      // Park barrier: a straggler from the previous epoch may still be in
      // its (empty) steal scan, and dealing below calls push_bottom on
      // deques whose pop side belongs to the workers — the Chase-Lev
      // owner contract forbids a pop concurrent with that push. Waiting
      // for every worker to park also hands the workers' writes from the
      // previous epoch to this thread, and the epoch_seq_ bump below
      // hands this epoch's batches (written before the deal) back to
      // them, so lane state never crosses threads unordered.
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait(lock, [this] { return draining_ == 0; });
    }
    jobs_remaining_.store(static_cast<int>(jobs.size()),
                          std::memory_order_relaxed);
    const int W = static_cast<int>(deques_.size());
    int w = 0;
    for (int job : jobs) {
      deques_[static_cast<std::size_t>(w)]->push_bottom(job);
      w = (w + 1) % W;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epoch_seq_;
      draining_ = static_cast<int>(threads_.size());
    }
    cv_work_.notify_all();
    drain(0);
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] {
      return jobs_remaining_.load(std::memory_order_acquire) == 0;
    });
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

  std::size_t memory_bytes() const {
    std::size_t bytes = sizeof(*this);
    for (const auto& d : deques_) bytes += d->memory_bytes();
    return bytes;
  }

 private:
  void drain(int self) {
    const int W = static_cast<int>(deques_.size());
    for (;;) {
      std::optional<int> job =
          deques_[static_cast<std::size_t>(self)]->pop_bottom();
      for (int k = 1; k < W && !job; ++k) {
        job = deques_[static_cast<std::size_t>((self + k) % W)]->steal_top();
      }
      if (!job) return;
      try {
        engine_->run_lane(*job);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      if (jobs_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Take the mutex before notifying so the epoch driver is either not
        // yet waiting (its predicate re-check sees 0) or reliably woken.
        std::lock_guard<std::mutex> lock(mu_);
        cv_done_.notify_all();
      }
    }
  }

  void loop(int self) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock,
                      [&] { return shutdown_ || epoch_seq_ != seen; });
        if (epoch_seq_ == seen) return;  // shutdown with nothing new
        seen = epoch_seq_;
      }
      drain(self);
      {
        // Parked again: release the park barrier once the whole team is
        // out of its deque scans.
        std::lock_guard<std::mutex> lock(mu_);
        if (--draining_ == 0) cv_done_.notify_all();
      }
    }
  }

  ShardedEngine* engine_;
  std::vector<std::unique_ptr<BoundedStealDeque<int>>> deques_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_seq_ = 0;  // guarded by mu_
  bool shutdown_ = false;        // guarded by mu_
  int draining_ = 0;             // guarded by mu_; workers not yet parked
  std::exception_ptr error_;     // guarded by mu_; first job exception
  std::atomic<int> jobs_remaining_{0};
};

ShardedEngine::ShardedEngine(int m, const DispatcherFactory& factory,
                             Options opts)
    : m_(m), opts_(opts), all_(ProcSet::all(m > 0 ? m : 1)) {
  if (m <= 0) throw std::invalid_argument("ShardedEngine: m <= 0");
  if (opts_.shards < 1 || opts_.shards > m) {
    throw std::invalid_argument("ShardedEngine: shards must be in [1, m]");
  }
  if (opts_.epoch_tasks < 1) {
    throw std::invalid_argument("ShardedEngine: epoch_tasks < 1");
  }
  if (!factory) {
    throw std::invalid_argument("ShardedEngine: null dispatcher factory");
  }
  map_ = ShardMap::build(m, opts_.shards);
  lanes_.reserve(static_cast<std::size_t>(opts_.shards));
  range_set_.reserve(static_cast<std::size_t>(opts_.shards));
  for (int s = 0; s < opts_.shards; ++s) {
    Lane lane;
    lane.dispatcher = factory(s);
    if (!lane.dispatcher) {
      throw std::invalid_argument("ShardedEngine: factory returned null");
    }
    lane.engine = std::make_unique<StreamingEngine>(m, *lane.dispatcher);
    lanes_.push_back(std::move(lane));
    range_set_.push_back(ProcSet::interval(
        map_.lo[static_cast<std::size_t>(s)],
        map_.lo[static_cast<std::size_t>(s) + 1] - 1));
  }
  algo_name_ = lanes_.front().dispatcher->name();
  epoch_buf_.resize(static_cast<std::size_t>(opts_.epoch_tasks));
  epoch_results_.resize(static_cast<std::size_t>(opts_.epoch_tasks));

  int desired = opts_.shard_workers >= 1 ? opts_.shard_workers : opts_.shards;
  desired = std::min(desired, opts_.shards);
  if (opts_.shard_workers >= 1) {
    // Pinned team: the caller asked for exactly this many workers.
    workers_ = desired;
    budget_claim_ = workers_ - 1;
    CoreBudget::instance().reserve(budget_claim_);
  } else {
    // Auto team: spawn only what the process-wide budget has uncommitted
    // (the caller thread is free). Output is invariant to the grant.
    budget_claim_ = CoreBudget::instance().try_acquire(desired - 1);
    workers_ = 1 + budget_claim_;
  }
  if (workers_ > 1) team_ = std::make_unique<WorkerTeam>(this, workers_);
}

ShardedEngine::~ShardedEngine() {
  team_.reset();
  if (budget_claim_ > 0) CoreBudget::instance().release(budget_claim_);
}

void ShardedEngine::set_shard_observer(int shard, SchedObserver* observer) {
  lanes_.at(static_cast<std::size_t>(shard)).engine->set_observer(observer);
}

void ShardedEngine::release(double time, double proc, const ProcSet& eligible,
                            double weight) {
  // The lane engines' admit() checks, made here so bad input throws at the
  // call that passed it rather than later, inside an epoch. Negated, so a
  // NaN release time is rejected too.
  if (!(time >= last_release_)) {
    throw std::invalid_argument(
        "ShardedEngine::release: releases must be non-decreasing");
  }
  if (!(proc > 0)) {
    throw std::invalid_argument("ShardedEngine::release: proc <= 0");
  }
  if (!std::isfinite(proc)) {
    throw std::invalid_argument("ShardedEngine::release: proc not finite");
  }
  last_release_ = time;
  EpochTask& et = epoch_buf_[static_cast<std::size_t>(epoch_count_)];
  et.time = time;
  et.proc = proc;
  et.weight = weight;
  et.id = released_ + epoch_count_;
  if (eligible.empty()) {
    et.kind = TaskKind::kWhole;
  } else {
    if (!eligible.within(m_)) {
      throw std::invalid_argument(
          "ShardedEngine::release: processing set outside [0,m)");
    }
    et.eligible = eligible;  // capacity reused across epochs
    et.kind = map_.shard_local(eligible) ? TaskKind::kLocal
                                         : TaskKind::kBoundary;
  }
  ++epoch_count_;
  if (epoch_count_ == opts_.epoch_tasks) flush();
}

void ShardedEngine::route_epoch() {
  const int S = shards();
  for (Lane& lane : lanes_) {
    // Deterministic backlog proxy: the lane's in-flight count is settled
    // only by its own releases, so this snapshot is a pure function of the
    // routed history, not of thread timing.
    lane.pending = lane.engine->in_flight();
    lane.batch.clear();
  }
  for (int i = 0; i < epoch_count_; ++i) {
    EpochTask& et = epoch_buf_[static_cast<std::size_t>(i)];
    int exec;
    if (et.kind == TaskKind::kLocal) {
      exec = map_.shard_of(et.eligible.min());
    } else {
      const bool whole = et.kind == TaskKind::kWhole;
      const int owner = whole ? 0 : map_.shard_of(et.eligible.min());
      const int hi_shard = whole ? S - 1 : map_.shard_of(et.eligible.max());
      exec = owner;
      ++boundary_tasks_;
      if (lanes_[static_cast<std::size_t>(owner)].pending >
          opts_.steal_threshold) {
        thief_scratch_.clear();
        for (int s = owner + 1; s <= hi_shard; ++s) {
          const Lane& cand = lanes_[static_cast<std::size_t>(s)];
          if (cand.pending <
                  lanes_[static_cast<std::size_t>(owner)].pending &&
              (whole ||
               overlaps_range(et.eligible,
                              map_.lo[static_cast<std::size_t>(s)],
                              map_.lo[static_cast<std::size_t>(s) + 1]))) {
            thief_scratch_.push_back(s);
          }
        }
        if (!thief_scratch_.empty()) {
          exec = thief_scratch_[static_cast<std::size_t>(
              shard_mix(epoch_index_, static_cast<std::uint64_t>(owner),
                        static_cast<std::uint64_t>(i)) %
              thief_scratch_.size())];
          ++stolen_tasks_;
        }
      }
      if (!whole) {
        const std::vector<int>& mem = et.eligible.machines();
        auto first = std::lower_bound(
            mem.begin(), mem.end(),
            map_.lo[static_cast<std::size_t>(exec)]);
        auto last = std::lower_bound(
            mem.begin(), mem.end(),
            map_.lo[static_cast<std::size_t>(exec) + 1]);
        et.exec_view = ProcSet(std::vector<int>(first, last));
      }
    }
    et.executor = exec;
    lanes_[static_cast<std::size_t>(exec)].batch.push_back(
        static_cast<std::uint32_t>(i));
    ++lanes_[static_cast<std::size_t>(exec)].pending;
  }
}

const ProcSet& ShardedEngine::lane_set(const EpochTask& et) const {
  switch (et.kind) {
    case TaskKind::kLocal:
      return et.eligible;
    case TaskKind::kBoundary:
      return et.exec_view;
    case TaskKind::kWhole:
      break;
  }
  return range_set_[static_cast<std::size_t>(et.executor)];
}

void ShardedEngine::run_lane(int shard) {
  Lane& lane = lanes_[static_cast<std::size_t>(shard)];
  StreamingEngine& engine = *lane.engine;
  for (std::uint32_t idx : lane.batch) {
    const EpochTask& et = epoch_buf_[static_cast<std::size_t>(idx)];
    epoch_results_[static_cast<std::size_t>(idx)] =
        engine.release(et.time, et.proc, lane_set(et), et.id, et.weight);
  }
}

void ShardedEngine::execute_epoch() {
  if (team_ == nullptr) {
    for (int s = 0; s < shards(); ++s) {
      if (!lanes_[static_cast<std::size_t>(s)].batch.empty()) run_lane(s);
    }
    return;
  }
  std::vector<int> jobs;
  jobs.reserve(static_cast<std::size_t>(shards()));
  for (int s = 0; s < shards(); ++s) {
    if (!lanes_[static_cast<std::size_t>(s)].batch.empty()) jobs.push_back(s);
  }
  if (jobs.size() <= 1) {
    for (int s : jobs) run_lane(s);
    return;
  }
  team_->run(jobs);
}

void ShardedEngine::merge_epoch() {
  for (int i = 0; i < epoch_count_; ++i) {
    const EpochTask& et = epoch_buf_[static_cast<std::size_t>(i)];
    const Assignment a = epoch_results_[static_cast<std::size_t>(i)];
    const double finish = a.start + et.proc;
    // Exact global backlog sweep, bit-matching StreamingEngine's
    // peak_in_flight accounting: settle finishes <= the release instant,
    // then count this release.
    while (!backlog_events_.empty() && backlog_events_.top_time() <= et.time) {
      backlog_events_.pop();
      --cur_backlog_;
    }
    ++cur_backlog_;
    if (cur_backlog_ > peak_backlog_) peak_backlog_ = cur_backlog_;
    backlog_events_.push(finish, 0);

    const double flow = finish - et.time;
    flow_sum_ += flow;
    if (flow > max_flow_) max_flow_ = flow;

    if (observer_ != nullptr) {
      const ProcSet& full =
          et.kind == TaskKind::kWhole ? all_ : et.eligible;
      ObsEvent e;
      e.kind = ObsEventKind::kTaskReleased;
      e.time = et.time;
      e.task = static_cast<int>(et.id);
      e.release = et.time;
      e.proc = et.proc;
      e.weight = et.weight;
      e.eligible = &full;
      observer_->on_event(e);
      e.eligible = nullptr;
      e.machine = a.machine;
      e.kind = ObsEventKind::kTaskDispatched;
      e.time = et.time;
      observer_->on_event(e);
      e.kind = ObsEventKind::kTaskStarted;
      e.time = a.start;
      observer_->on_event(e);
      e.kind = ObsEventKind::kTaskCompleted;
      e.time = finish;
      observer_->on_event(e);
    }
    if (sink_) {
      sink_(FlowEvent{et.id, et.time, et.proc, a.machine, a.start, et.weight});
    }
    ++released_;
  }
  epoch_count_ = 0;
  ++epoch_index_;
}

void ShardedEngine::flush() {
  if (epoch_count_ == 0) return;
  route_epoch();
  execute_epoch();
  merge_epoch();
}

void ShardedEngine::drain() {
  flush();
  for (Lane& lane : lanes_) lane.engine->drain();
  while (!backlog_events_.empty()) {
    backlog_events_.pop();
  }
  cur_backlog_ = 0;
}

double ShardedEngine::makespan() const {
  double out = 0;
  for (const Lane& lane : lanes_) {
    for (double c : lane.engine->completions()) out = std::max(out, c);
  }
  return out;
}

std::vector<double> ShardedEngine::completions() const {
  std::vector<double> out(static_cast<std::size_t>(m_), 0.0);
  for (int j = 0; j < m_; ++j) {
    out[static_cast<std::size_t>(j)] =
        lanes_[static_cast<std::size_t>(map_.shard_of(j))]
            .engine->completions()[static_cast<std::size_t>(j)];
  }
  return out;
}

std::vector<double> ShardedEngine::loads() const {
  std::vector<double> out(static_cast<std::size_t>(m_), 0.0);
  for (int j = 0; j < m_; ++j) {
    out[static_cast<std::size_t>(j)] =
        lanes_[static_cast<std::size_t>(map_.shard_of(j))]
            .engine->loads()[static_cast<std::size_t>(j)];
  }
  return out;
}

std::size_t ShardedEngine::memory_bytes() const {
  std::size_t bytes = 0;
  for (const Lane& lane : lanes_) {
    bytes += lane.engine->memory_bytes();
    bytes += lane.batch.capacity() * sizeof(std::uint32_t);
  }
  // Each buffered task's M_i shares its block with the caller (the store's
  // replica sets), so only the boundary views this engine builds are its own.
  for (const EpochTask& et : epoch_buf_) {
    bytes += et.exec_view.machines().capacity() * sizeof(int);
  }
  bytes += epoch_buf_.capacity() * sizeof(EpochTask);
  bytes += epoch_results_.capacity() * sizeof(Assignment);
  bytes += backlog_events_.memory_bytes();
  if (team_ != nullptr) bytes += team_->memory_bytes();
  return bytes;
}

std::vector<Assignment> run_sharded(
    const Instance& inst, const ShardedEngine::DispatcherFactory& factory,
    ShardedEngine::Options opts) {
  ShardedEngine engine(inst.m(), factory, opts);
  std::vector<Assignment> out(static_cast<std::size_t>(inst.n()));
  engine.set_flow_sink([&out](const ShardedEngine::FlowEvent& e) {
    out[static_cast<std::size_t>(e.task)] = Assignment{e.machine, e.start};
  });
  for (const Task& task : inst.tasks()) {
    engine.release(task.release, task.proc, task.eligible, task.weight);
  }
  engine.drain();
  return out;
}

}  // namespace flowsched
