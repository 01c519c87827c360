// ShardedEngine + BoundedStealDeque + CoreBudget (docs/sharding.md): the
// determinism contract (output invariant to the worker count), the
// bit-equivalence against the single-queue engines on shard-local
// workloads, the deterministic metrics merge, and the concurrent deque
// semantics (the TSAN target for the steal path).
#include "sched/sharded/sharded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "check/audit.hpp"
#include "check/gen.hpp"
#include "kvstore/cluster_sim.hpp"
#include "model/schedule.hpp"
#include "obs/metrics.hpp"
#include "runner/thread_pool.hpp"
#include "sched/dispatchers.hpp"
#include "sched/engine.hpp"
#include "sched/sharded/steal_deque.hpp"
#include "sched/streaming.hpp"
#include "util/rng.hpp"

namespace flowsched {
namespace {

ShardedEngine::DispatcherFactory eft_factory() {
  return [](int) { return make_eft_min(); };
}

// Cores the process-wide ledger has uncommitted, read by claiming them all
// and handing them straight back.
int uncommitted_cores() {
  CoreBudget& budget = CoreBudget::instance();
  const int free = budget.try_acquire(std::numeric_limits<int>::max());
  budget.release(free);
  return free;
}

// --- BoundedStealDeque -----------------------------------------------------

TEST(StealDeque, LifoFifoSemantics) {
  BoundedStealDeque<int> dq(3);
  EXPECT_EQ(dq.capacity(), 4u);  // rounded up to a power of two
  EXPECT_TRUE(dq.push_bottom(1));
  EXPECT_TRUE(dq.push_bottom(2));
  EXPECT_TRUE(dq.push_bottom(3));
  EXPECT_TRUE(dq.push_bottom(4));
  EXPECT_FALSE(dq.push_bottom(5));  // full: bounded by design
  EXPECT_EQ(dq.size_estimate(), 4u);

  EXPECT_EQ(dq.steal_top().value(), 1);   // thief side is FIFO
  EXPECT_EQ(dq.pop_bottom().value(), 4);  // owner side is LIFO
  EXPECT_EQ(dq.steal_top().value(), 2);
  EXPECT_EQ(dq.pop_bottom().value(), 3);
  EXPECT_FALSE(dq.pop_bottom().has_value());
  EXPECT_FALSE(dq.steal_top().has_value());
  EXPECT_THROW(BoundedStealDeque<int>(0), std::invalid_argument);
}

// Owner pops while three thieves steal: every entry is taken exactly once
// (sum + count accounting). This is the test TSAN audits the Chase–Lev
// handshake through (tools/tsan_check.sh).
TEST(StealDeque, ConcurrentStealsDrainExactly) {
  constexpr int kEntries = 20000;
  constexpr int kThieves = 3;
  BoundedStealDeque<int> dq(kEntries);
  for (int i = 0; i < kEntries; ++i) ASSERT_TRUE(dq.push_bottom(i));

  std::atomic<long long> sum{0};
  std::atomic<int> count{0};
  std::atomic<bool> owner_done{false};
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      for (;;) {
        if (auto v = dq.steal_top()) {
          sum.fetch_add(*v, std::memory_order_relaxed);
          count.fetch_add(1, std::memory_order_relaxed);
        } else if (owner_done.load(std::memory_order_acquire)) {
          return;
        }
      }
    });
  }
  for (;;) {
    if (auto v = dq.pop_bottom()) {
      sum.fetch_add(*v, std::memory_order_relaxed);
      count.fetch_add(1, std::memory_order_relaxed);
    } else if (dq.size_estimate() == 0) {
      break;
    }
  }
  owner_done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) t.join();

  EXPECT_EQ(count.load(), kEntries);
  EXPECT_EQ(sum.load(), static_cast<long long>(kEntries) * (kEntries - 1) / 2);
}

// --- CoreBudget ------------------------------------------------------------

TEST(CoreBudget, ReserveAndAcquire) {
  CoreBudget& budget = CoreBudget::instance();
  // Commit the uncommitted remainder, whatever this host's core count, so
  // the ledger is exactly full.
  const int rest = budget.try_acquire(std::numeric_limits<int>::max());
  EXPECT_GE(rest, 0);
  EXPECT_EQ(budget.try_acquire(1), 0);  // nothing left
  budget.reserve(2);                    // outer claim: never capped
  EXPECT_EQ(budget.try_acquire(1), 0);
  budget.release(3);  // the reservation and one granted core come back
  EXPECT_EQ(budget.try_acquire(100), 1);  // inner claim: capped at remainder
  EXPECT_EQ(budget.try_acquire(1), 0);
  budget.release(rest);
  EXPECT_THROW(budget.reserve(-1), std::invalid_argument);
}

// --- ShardMap --------------------------------------------------------------

TEST(Sharded, ShardMapPartition) {
  for (int m : {1, 5, 16, 4096}) {
    for (int shards : {1, 2, 3, 7, 16}) {
      if (shards > m) continue;
      const ShardMap map = ShardMap::build(m, shards);
      ASSERT_EQ(map.lo.front(), 0);
      ASSERT_EQ(map.lo.back(), m);
      int min_width = m, max_width = 0;
      for (int s = 0; s < shards; ++s) {
        const int width = map.lo[s + 1] - map.lo[s];
        ASSERT_GE(width, 1);
        min_width = std::min(min_width, width);
        max_width = std::max(max_width, width);
        for (int j = map.lo[s]; j < map.lo[s + 1]; ++j) {
          ASSERT_EQ(map.shard_of(j), s);
        }
      }
      EXPECT_LE(max_width - min_width, 1);  // balanced partition
    }
  }
  EXPECT_THROW(ShardMap::build(4, 5), std::invalid_argument);
  EXPECT_THROW(ShardMap::build(4, 0), std::invalid_argument);
}

// --- ShardedEngine determinism / equivalence -------------------------------

std::vector<Assignment> run_streaming(const Instance& inst) {
  auto policy = make_eft_min();
  StreamingEngine engine(inst.m(), *policy);
  std::vector<Assignment> out;
  out.reserve(static_cast<std::size_t>(inst.n()));
  for (const Task& t : inst.tasks()) out.push_back(engine.release(t));
  engine.drain();
  return out;
}

// S=1 is the single-queue engine with epoch buffering in front: assignments
// must be bit-identical on arbitrary instances, across epoch boundaries.
TEST(Sharded, SingleShardMatchesStreaming) {
  StructuredInstanceOptions opts;
  opts.max_n = 80;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const FuzzStructure structure =
        kAllFuzzStructures[seed % std::size(kAllFuzzStructures)];
    const Instance inst = random_structured_instance(structure, opts, rng);

    ShardedEngine::Options sopts;
    sopts.shards = 1;
    sopts.epoch_tasks = 5;  // force several partial epochs
    const std::vector<Assignment> sharded =
        run_sharded(inst, eft_factory(), sopts);
    const std::vector<Assignment> reference = run_streaming(inst);
    ASSERT_EQ(sharded.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(sharded[i].machine, reference[i].machine) << "task " << i;
      ASSERT_EQ(sharded[i].start, reference[i].start) << "task " << i;
    }
  }
}

// Aligned disjoint blocks: every M_i is shard-local at S=4, so the sharded
// engine commits the bit-identical schedule as the single queue — the
// [shard-equiv] contract, here against OnlineEngine for variety.
TEST(Sharded, ShardLocalBitEqual) {
  const int m = 16;
  Rng rng(7);
  std::vector<Task> tasks;
  double time = 0;
  for (int i = 0; i < 400; ++i) {
    time += rng.exponential(1.0 / 10.0);
    const int block = rng.uniform_int(0, 3) * 4;
    tasks.push_back({.release = time,
                     .proc = rng.uniform(0.5, 1.5),
                     .eligible = ProcSet::interval(block, block + 3)});
  }
  const Instance inst(m, std::move(tasks));

  ShardedEngine::Options opts;
  opts.shards = 4;
  opts.epoch_tasks = 16;
  opts.steal_threshold = 1;  // cannot matter: no boundary tasks exist
  const std::vector<Assignment> sharded =
      run_sharded(inst, eft_factory(), opts);

  auto policy = make_eft_min();
  OnlineEngine batch(inst.m(), *policy);
  for (int i = 0; i < inst.n(); ++i) {
    const Assignment a = batch.release(inst.task(i));
    ASSERT_EQ(sharded[static_cast<std::size_t>(i)].machine, a.machine)
        << "task " << i;
    ASSERT_EQ(sharded[static_cast<std::size_t>(i)].start, a.start)
        << "task " << i;
  }
}

Instance overlapping_ring_instance(int m, int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Task> tasks;
  double time = 0;
  for (int i = 0; i < n; ++i) {
    time += rng.exponential(1.0 / (0.7 * m));
    const int lo = rng.uniform_int(0, m - 1);
    std::vector<int> machines = {lo, (lo + 1) % m, (lo + 2) % m};
    std::sort(machines.begin(), machines.end());
    tasks.push_back({.release = time,
                     .proc = rng.uniform(0.5, 1.5),
                     .eligible = ProcSet(machines)});
  }
  return Instance(m, std::move(tasks));
}

// The headline contract: boundary routing and task-steals active, and the
// output — assignments AND statistics — byte-identical at every worker
// count.
TEST(Sharded, WorkerCountInvariance) {
  const Instance inst = overlapping_ring_instance(16, 600, 11);
  std::vector<std::vector<Assignment>> runs;
  std::vector<long long> stolen, boundary;
  std::vector<std::size_t> backlog;
  for (int workers : {1, 2, 4}) {
    ShardedEngine::Options opts;
    opts.shards = 4;
    opts.shard_workers = workers;
    opts.epoch_tasks = 32;
    opts.steal_threshold = 2;  // tiny: force the deterministic steal path
    const int free_before = uncommitted_cores();
    ShardedEngine engine(inst.m(), eft_factory(), opts);
    // A pinned team claims one core per worker beyond the caller thread.
    EXPECT_EQ(free_before - uncommitted_cores(),
              std::min(free_before, workers - 1));
    std::vector<Assignment> got(static_cast<std::size_t>(inst.n()));
    engine.set_flow_sink([&](const ShardedEngine::FlowEvent& e) {
      got[static_cast<std::size_t>(e.task)] = {e.machine, e.start};
    });
    for (const Task& t : inst.tasks()) {
      engine.release(t.release, t.proc, t.eligible);
    }
    engine.drain();
    runs.push_back(std::move(got));
    stolen.push_back(engine.stolen_tasks());
    boundary.push_back(engine.boundary_tasks());
    backlog.push_back(engine.peak_backlog());
  }
  EXPECT_GT(boundary[0], 0);
  EXPECT_GT(stolen[0], 0);  // the steal path genuinely exercised
  for (std::size_t w = 1; w < runs.size(); ++w) {
    EXPECT_EQ(stolen[w], stolen[0]);
    EXPECT_EQ(boundary[w], boundary[0]);
    EXPECT_EQ(backlog[w], backlog[0]);
    ASSERT_EQ(runs[w].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      ASSERT_EQ(runs[w][i].machine, runs[0][i].machine)
          << "task " << i << " at workers=" << (w == 1 ? 2 : 4);
      ASSERT_EQ(runs[w][i].start, runs[0][i].start) << "task " << i;
    }
  }
}

// Boundary tasks dispatch inside their eligible set restricted to the
// executing shard; whole-range tasks (empty eligible) count as boundary and
// still land on a valid machine.
TEST(Sharded, BoundaryRouting) {
  const int m = 8;
  ShardedEngine::Options opts;
  opts.shards = 4;
  opts.epoch_tasks = 4;
  ShardedEngine engine(m, eft_factory(), opts);
  std::vector<ShardedEngine::FlowEvent> events;
  engine.set_flow_sink(
      [&](const ShardedEngine::FlowEvent& e) { events.push_back(e); });

  const ProcSet spanning({1, 2});  // crosses the shard 0 / shard 1 boundary
  const ProcSet whole;             // empty = all machines
  engine.release(0.0, 1.0, spanning);
  engine.release(0.5, 1.0, whole);
  engine.release(1.0, 1.0, ProcSet({6, 7}));  // shard-local
  engine.drain();

  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(engine.boundary_tasks(), 2);
  EXPECT_TRUE(events[0].machine == 1 || events[0].machine == 2);
  EXPECT_GE(events[1].machine, 0);
  EXPECT_LT(events[1].machine, m);
  EXPECT_TRUE(events[2].machine == 6 || events[2].machine == 7);
  EXPECT_EQ(engine.algo_name(), "EFT-Min");
}

// The merged schedule of a boundary-heavy run passes the structural audit
// (eligibility, overlap, accounting) under the "Sharded(...)" algo name.
TEST(Sharded, AuditedMergedSchedule) {
  const Instance inst = overlapping_ring_instance(12, 300, 23);
  ShardedEngine::Options opts;
  opts.shards = 3;
  opts.epoch_tasks = 16;
  opts.steal_threshold = 2;
  const std::vector<Assignment> got = run_sharded(inst, eft_factory(), opts);

  Schedule sched(inst);
  for (int i = 0; i < inst.n(); ++i) {
    sched.assign(i, got[static_cast<std::size_t>(i)].machine,
                 got[static_cast<std::size_t>(i)].start);
  }
  const std::vector<std::string> violations =
      audit_schedule(sched, "Sharded(EFT-Min)");
  EXPECT_TRUE(violations.empty()) << violations.front();
}

// --- CoreBudget exhaustion / single-machine shards -------------------------

// With the process-wide budget fully committed, an auto-sized team
// (shard_workers = 0) degrades to the caller thread alone — and the output
// contract still holds: the starved single-worker run is byte-identical to
// a pinned multi-worker team on the same stream.
TEST(CoreBudget, ExhaustedBudgetFallsBackToCallerThread) {
  CoreBudget& budget = CoreBudget::instance();
  // Exhaust the ledger: every uncommitted core claimed.
  const int rest = budget.try_acquire(std::numeric_limits<int>::max());
  EXPECT_EQ(budget.try_acquire(4), 0);

  const Instance inst = overlapping_ring_instance(8, 200, 43);
  ShardedEngine::Options opts;
  opts.shards = 4;
  opts.shard_workers = 0;  // auto: must resolve to 1 under exhaustion
  opts.epoch_tasks = 16;
  opts.steal_threshold = 2;
  std::vector<Assignment> starved(static_cast<std::size_t>(inst.n()));
  {
    ShardedEngine engine(inst.m(), eft_factory(), opts);
    engine.set_flow_sink([&](const ShardedEngine::FlowEvent& e) {
      starved[static_cast<std::size_t>(e.task)] = {e.machine, e.start};
    });
    for (const Task& t : inst.tasks()) {
      engine.release(t.release, t.proc, t.eligible);
    }
    engine.drain();
  }
  // Free one core: the auto team takes exactly it (caller + 1), which it
  // could not if the zero grant above had leaked a claim.
  budget.release(1);
  {
    ShardedEngine engine(inst.m(), eft_factory(), opts);
    EXPECT_EQ(budget.try_acquire(1), 0);  // the team holds the freed core
  }
  EXPECT_EQ(budget.try_acquire(1), 1);  // and the team gave it back
  budget.release(rest);

  opts.shard_workers = 4;  // pinned teams bypass the budget cap entirely
  const std::vector<Assignment> pinned = run_sharded(inst, eft_factory(), opts);
  ASSERT_EQ(starved.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    ASSERT_EQ(starved[i].machine, pinned[i].machine) << "task " << i;
    ASSERT_EQ(starved[i].start, pinned[i].start) << "task " << i;
  }
}

// shards == m: every shard owns exactly one machine. Dispatch inside a
// shard is then forced, any multi-machine set is a boundary task, and
// singleton-set workloads still bit-match the single queue.
TEST(Sharded, SingleMachineShards) {
  const int m = 6;
  const ShardMap map = ShardMap::build(m, m);
  for (int j = 0; j < m; ++j) {
    EXPECT_EQ(map.shard_of(j), j);
    EXPECT_EQ(map.lo[static_cast<std::size_t>(j) + 1] -
                  map.lo[static_cast<std::size_t>(j)],
              1);
  }

  Rng rng(51);
  std::vector<Task> tasks;
  double time = 0;
  for (int i = 0; i < 150; ++i) {
    time += rng.exponential(1.0 / 4.0);
    const int j = rng.uniform_int(0, m - 1);
    tasks.push_back({.release = time,
                     .proc = rng.uniform(0.5, 1.5),
                     .eligible = ProcSet({j})});
  }
  const Instance inst(m, std::move(tasks));

  ShardedEngine::Options opts;
  opts.shards = m;
  opts.shard_workers = 3;
  opts.epoch_tasks = 8;
  const std::vector<Assignment> sharded =
      run_sharded(inst, eft_factory(), opts);
  const std::vector<Assignment> reference = run_streaming(inst);
  ASSERT_EQ(sharded.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(sharded[i].machine, reference[i].machine) << "task " << i;
    ASSERT_EQ(sharded[i].start, reference[i].start) << "task " << i;
  }

  // A spanning set exercises the boundary path at shard width 1 and still
  // lands inside its eligible set.
  ShardedEngine engine(m, eft_factory(), opts);
  std::vector<ShardedEngine::FlowEvent> events;
  engine.set_flow_sink(
      [&](const ShardedEngine::FlowEvent& e) { events.push_back(e); });
  engine.release(0.0, 1.0, ProcSet({2, 3}));
  engine.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(engine.boundary_tasks(), 1);
  EXPECT_TRUE(events[0].machine == 2 || events[0].machine == 3);
}

// Bad input is rejected at the release that passes it, with the lane
// engines' messages, at one worker and two: a NaN release time and an
// infinite proc used to reach a lane's admit() inside the epoch (std::
// terminate on a worker thread). A rejected release buffers nothing.
TEST(Sharded, RejectsNanReleaseAndInfiniteProcAtTheCall) {
  for (int workers : {1, 2}) {
    ShardedEngine::Options opts;
    opts.shards = 2;
    opts.shard_workers = workers;
    opts.epoch_tasks = 4;
    ShardedEngine engine(4, eft_factory(), opts);
    int flowed = 0;
    engine.set_flow_sink([&](const ShardedEngine::FlowEvent&) { ++flowed; });
    engine.release(0.0, 1.0, ProcSet::single(0));
    EXPECT_THROW(engine.release(std::nan(""), 1.0, ProcSet::single(3)),
                 std::invalid_argument);
    EXPECT_THROW(engine.release(1.0, std::numeric_limits<double>::infinity(),
                                ProcSet::single(3)),
                 std::invalid_argument);
    EXPECT_THROW(engine.release(1.0, std::nan(""), ProcSet::single(3)),
                 std::invalid_argument);
    engine.release(1.0, 1.0, ProcSet::single(3));
    engine.drain();
    EXPECT_EQ(flowed, 2) << "workers=" << workers;
  }
}

// An error no up-front check can see, a completion that overflows to +inf,
// is raised inside a lane. It reaches the caller as the lane's exception,
// whichever thread ran the lane, and the engine still destroys cleanly.
TEST(Sharded, LaneExceptionIsRethrownOnTheCaller) {
  const double big = std::numeric_limits<double>::max();
  for (int workers : {1, 2}) {
    ShardedEngine::Options opts;
    opts.shards = 2;
    opts.shard_workers = workers;
    opts.epoch_tasks = 1 << 14;
    ShardedEngine engine(4, eft_factory(), opts);
    // Both lanes get work, so the two-worker team runs the epoch. The
    // caller deals itself lane 0's long job, so lane 1, which overflows,
    // runs on the other worker.
    for (int i = 0; i < 8000; ++i) {
      engine.release(0.0, 1.0, ProcSet::single(0));
    }
    engine.release(0.0, big, ProcSet::single(3));
    engine.release(1.0, big, ProcSet::single(3));
    EXPECT_THROW(engine.flush(), std::invalid_argument)
        << "workers=" << workers;
  }
}

// A buffered task's M_i is a handle to the caller's shared block, so
// memory_bytes() does not grow with the number of tasks holding it (it
// used to add the members once per buffered task).
TEST(Sharded, MemoryCountsSharedSetsOnce) {
  ShardedEngine::Options opts;
  opts.shards = 1;
  opts.shard_workers = 1;
  opts.epoch_tasks = 256;
  ShardedEngine engine(1024, eft_factory(), opts);
  const std::size_t idle = engine.memory_bytes();
  const ProcSet wide = ProcSet::interval(0, 1023);
  for (int i = 0; i < 200; ++i) engine.release(0.01 * i, 1.0, wide);
  EXPECT_EQ(engine.memory_bytes(), idle);  // 200 buffered, none flushed
}

// --- [shard-equiv] for randomized dispatchers ------------------------------

// Counter-based per-task draws (sched/tiebreak.hpp per_task_seed) make
// independently constructed dispatcher replicas agree: each lane keys its
// draw on the global task id the router hands it, so the sharded schedule
// is bit-identical to the single queue even for randomized policies — the
// [shard-equiv] contract the fuzzer asserts through shard_equiv_policies().
TEST(Sharded, CounterRngRandomizedPoliciesBitEqual) {
  const int m = 16;
  Rng rng(61);
  std::vector<Task> tasks;
  double time = 0;
  for (int i = 0; i < 400; ++i) {
    time += rng.exponential(1.0 / 10.0);
    const int block = rng.uniform_int(0, 3) * 4;  // shard-local at S=4
    tasks.push_back({.release = time,
                     .proc = rng.uniform(0.5, 1.5),
                     .eligible = ProcSet::interval(block, block + 3)});
  }
  const Instance inst(m, std::move(tasks));

  static constexpr std::uint64_t kSeed = 0x5eedULL;
  struct Case {
    const char* name;
    std::function<std::unique_ptr<Dispatcher>()> make;
  };
  const std::vector<Case> cases = {
      {"EFT-Rand",
       [] {
         return std::make_unique<EftDispatcher>(TieBreakKind::kRand, kSeed,
                                                /*counter_rng=*/true);
       }},
      {"RandomEligible",
       [] {
         return std::make_unique<RandomEligibleDispatcher>(
             kSeed, /*counter_rng=*/true);
       }},
      {"Pow2",
       [] {
         return std::make_unique<PowerOfDChoicesDispatcher>(
             2, kSeed, /*counter_rng=*/true);
       }},
  };
  for (const Case& c : cases) {
    auto ref_dispatcher = c.make();
    StreamingEngine single(inst.m(), *ref_dispatcher);
    std::vector<Assignment> reference;
    reference.reserve(static_cast<std::size_t>(inst.n()));
    for (const Task& t : inst.tasks()) reference.push_back(single.release(t));
    single.drain();

    ShardedEngine::Options opts;
    opts.shards = 4;
    opts.shard_workers = 2;
    opts.epoch_tasks = 16;
    const std::vector<Assignment> sharded =
        run_sharded(inst, [&](int) { return c.make(); }, opts);
    ASSERT_EQ(sharded.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(sharded[i].machine, reference[i].machine)
          << c.name << " task " << i;
      ASSERT_EQ(sharded[i].start, reference[i].start)
          << c.name << " task " << i;
    }
  }
}

// --- simulate_cluster_streaming_sharded ------------------------------------

StreamReport run_cluster(int shards, int workers, std::uint64_t seed) {
  StoreConfig store_config;
  store_config.m = 16;
  store_config.keys = 400;
  store_config.zipf_s = 0.9;
  store_config.k = 4;
  store_config.strategy = ReplicationStrategy::kDisjoint;  // aligned blocks
  StreamConfig config;
  config.lambda = 10.0;
  config.requests = 4000;
  config.dist = ServiceDist::kExponential;
  Rng rng(seed);
  KeyValueStore store(store_config, rng);
  if (shards == 0) {
    auto policy = make_eft_min();
    return simulate_cluster_streaming(store, config, *policy, rng);
  }
  ShardedEngine::Options opts;
  opts.shards = shards;
  opts.shard_workers = workers;
  return simulate_cluster_streaming_sharded(store, config, eft_factory(),
                                            opts, rng);
}

// The full report pipeline: sharded at S=1 reproduces the legacy streaming
// report byte-for-byte, and on the aligned-disjoint store so does S=4 — at
// any worker count (the property cli_stream_smoke byte-compares end-to-end).
TEST(Sharded, StreamingShardedReportMatchesLegacy) {
  const std::string legacy = run_cluster(0, 0, 77).str();
  EXPECT_EQ(run_cluster(1, 1, 77).str(), legacy);
  EXPECT_EQ(run_cluster(4, 1, 77).str(), legacy);
  EXPECT_EQ(run_cluster(4, 4, 77).str(), legacy);
}

}  // namespace
}  // namespace flowsched
