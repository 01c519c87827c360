#include "runner/thread_pool.hpp"

namespace flowsched {

ThreadPool::ThreadPool(int threads, std::size_t max_queue)
    : max_queue_(max_queue) {
  if (threads < 1) throw std::invalid_argument("ThreadPool: threads < 1");
  if (max_queue < 1) throw std::invalid_argument("ThreadPool: max_queue < 1");
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    task();  // exceptions are captured by the packaged_task
  }
}

CoreBudget::CoreBudget() {
  const unsigned hw = std::thread::hardware_concurrency();
  total_ = hw == 0 ? 1 : static_cast<int>(hw);
}

CoreBudget& CoreBudget::instance() {
  static CoreBudget budget;
  return budget;
}

void CoreBudget::reserve(int n) {
  if (n < 0) throw std::invalid_argument("CoreBudget::reserve: n < 0");
  std::lock_guard<std::mutex> lock(mutex_);
  claimed_ += n;
}

int CoreBudget::try_acquire(int n) {
  if (n < 0) throw std::invalid_argument("CoreBudget::try_acquire: n < 0");
  std::lock_guard<std::mutex> lock(mutex_);
  const int remaining = total_ - claimed_;
  const int granted = remaining > 0 ? (n < remaining ? n : remaining) : 0;
  claimed_ += granted;
  return granted;
}

void CoreBudget::release(int n) {
  if (n < 0) throw std::invalid_argument("CoreBudget::release: n < 0");
  std::lock_guard<std::mutex> lock(mutex_);
  claimed_ -= n;
  if (claimed_ < 0) claimed_ = 0;
}

}  // namespace flowsched
