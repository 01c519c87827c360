#include "runner/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace flowsched {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  // Four workers: four tasks that each wait for all four to start finish.
  // With fewer workers the started count stalls below 4 and the wait times
  // out.
  std::atomic<int> started{0};
  std::vector<std::future<bool>> meet;
  for (int i = 0; i < 4; ++i) {
    meet.push_back(pool.submit([&started] {
      ++started;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 4) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::yield();
      }
      return true;
    }));
  }
  for (auto& f : meet) EXPECT_TRUE(f.get());
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, RejectsBadConstruction) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(ThreadPool(2, 0), std::invalid_argument);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("replicate failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, BoundedQueueAppliesBackpressure) {
  // One worker pinned on a gate; queue capacity 2. The 4th submit (1
  // running + 2 queued) must block until the gate opens.
  ThreadPool pool(1, 2);
  std::promise<void> gate;
  auto gate_future = gate.get_future().share();
  std::promise<void> picked;
  auto running = pool.submit([gate_future, &picked] {
    picked.set_value();
    gate_future.wait();
  });
  // Wait until the worker picked the gate task up (queue drained to 0).
  picked.get_future().wait();
  auto q1 = pool.submit([] {});
  auto q2 = pool.submit([] {});

  // Set the moment submit returns: a submit that does not block sets it
  // while the gate still holds the only worker.
  std::atomic<bool> fourth_submitted{false};
  std::future<void> fourth;
  std::thread submitter([&] {
    fourth = pool.submit([] {});
    fourth_submitted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fourth_submitted) << "submit did not block on a full queue";

  gate.set_value();
  submitter.join();
  EXPECT_TRUE(fourth_submitted);
  fourth.get();
  running.get();
  q1.get();
  q2.get();
}

TEST(ThreadPool, ShutdownDrainsPendingTasksUnderContention) {
  std::atomic<int> done{0};
  constexpr int kTasks = 500;
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(8, 64);
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      futures.push_back(pool.submit([&done] { ++done; }));
    }
    // Destructor runs here while many tasks are still queued.
  }
  EXPECT_EQ(done.load(), kTasks);
  for (auto& f : futures) f.get();  // all futures ready, none broken
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] { return 1; }), std::runtime_error);
  pool.shutdown();  // idempotent
}

TEST(ThreadPool, ConcurrentProducersSeeEveryResult) {
  ThreadPool pool(4, 32);
  std::atomic<long> sum{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &sum, p] {
      std::vector<std::future<int>> futures;
      for (int i = 0; i < 200; ++i) {
        futures.push_back(pool.submit([p, i] { return p * 1000 + i; }));
      }
      for (auto& f : futures) sum += f.get();
    });
  }
  for (auto& t : producers) t.join();
  long expected = 0;
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 200; ++i) expected += p * 1000 + i;
  }
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace flowsched
