#include "runner/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <thread>

#include "util/stats.hpp"

namespace flowsched {
namespace {

// Same finalizer as util/rng.cpp uses to expand seeds; duplicated here so
// the seed-derivation contract cannot drift with Rng internals.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string hex_id(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ReplicateError::ReplicateError(std::uint64_t experiment, std::uint64_t cell,
                               std::uint64_t rep, const std::string& detail)
    : std::runtime_error("replicate failed: experiment=" + hex_id(experiment) +
                         " cell=" + hex_id(cell) + " rep=" +
                         std::to_string(rep) + ": " + detail) {}

std::uint64_t experiment_id(std::string_view name) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;  // FNV prime
  }
  return h;
}

std::uint64_t cell_id(std::initializer_list<std::uint64_t> coords) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t c : coords) {
    std::uint64_t x = h ^ c;
    h = splitmix64(x);
  }
  return h;
}

std::uint64_t replicate_seed(std::uint64_t experiment, std::uint64_t cell,
                             std::uint64_t rep) {
  std::uint64_t x = experiment;
  std::uint64_t h = splitmix64(x);
  x = h ^ cell;
  h = splitmix64(x);
  x = h ^ rep;
  return splitmix64(x);
}

int resolve_threads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ExperimentRunner::ExperimentRunner(int threads)
    : threads_(resolve_threads(threads)) {
  if (threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(threads_);
    // Outer claim in the process-wide ledger: nested shard engines
    // (sched/sharded) auto-size their worker teams from what is left.
    budget_reserved_ = threads_;
    CoreBudget::instance().reserve(budget_reserved_);
  }
}

ExperimentRunner::~ExperimentRunner() {
  if (budget_reserved_ > 0) CoreBudget::instance().release(budget_reserved_);
}

std::vector<double> ExperimentRunner::replicates(
    std::uint64_t experiment, std::uint64_t cell, int reps,
    const std::function<double(std::uint64_t, int)>& fn) {
  set_watch_label("experiment=" + hex_id(experiment) + " cell=" +
                  hex_id(cell));
  auto result = map<double>(reps, [&](int rep) {
    const std::uint64_t seed =
        replicate_seed(experiment, cell, static_cast<std::uint64_t>(rep));
    try {
      return fn(seed, rep);
    } catch (const ReplicateError&) {
      throw;  // already tagged (nested replicates())
    } catch (const std::exception& e) {
      throw ReplicateError(experiment, cell, static_cast<std::uint64_t>(rep),
                           e.what());
    } catch (...) {
      throw ReplicateError(experiment, cell, static_cast<std::uint64_t>(rep),
                           "unknown exception");
    }
  });
  set_watch_label("");
  return result;
}

// --- Watchdog --------------------------------------------------------------

struct ExperimentRunner::WatchdogState {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<double> started;  // steady seconds; 0 = not running
  std::vector<bool> reported;
  int open = 0;      // jobs begun and not yet ended
  int finished = 0;  // jobs ended
  int count = 0;
  bool done = false;
};

ExperimentRunner::WatchSession ExperimentRunner::watch_start(int count) {
  WatchSession session;
  if (watchdog_seconds_ <= 0) return session;
  session.state = std::make_shared<WatchdogState>();
  session.state->started.assign(static_cast<std::size_t>(count), 0.0);
  session.state->reported.assign(static_cast<std::size_t>(count), false);
  session.state->count = count;
  const double limit = watchdog_seconds_;
  std::shared_ptr<WatchdogState> state = session.state;
  session.monitor = std::thread([this, state, limit] {
    std::unique_lock<std::mutex> lock(state->mu);
    // Poll at a fraction of the limit so an overrun is noticed promptly
    // without busy-waiting.
    const auto tick = std::chrono::duration<double>(
        std::max(limit / 4.0, 1e-3));
    while (!state->done) {
      state->cv.wait_for(lock, tick);
      const double now = now_seconds();
      for (std::size_t i = 0; i < state->started.size(); ++i) {
        if (state->started[i] > 0 && !state->reported[i] &&
            now - state->started[i] > limit) {
          state->reported[i] = true;
          const double elapsed = now - state->started[i];
          lock.unlock();
          record_hung(static_cast<int>(i), elapsed);
          lock.lock();
        }
      }
    }
  });
  return session;
}

void ExperimentRunner::watch_job_begin(const std::shared_ptr<WatchdogState>& s,
                                       int index) {
  if (!s) return;
  std::lock_guard<std::mutex> lock(s->mu);
  s->started[static_cast<std::size_t>(index)] = now_seconds();
  ++s->open;
}

void ExperimentRunner::watch_job_end(const std::shared_ptr<WatchdogState>& s,
                                     int index) {
  if (!s) return;
  std::lock_guard<std::mutex> lock(s->mu);
  s->started[static_cast<std::size_t>(index)] = 0.0;
  --s->open;
  ++s->finished;
}

void ExperimentRunner::watch_finish(WatchSession& session) {
  if (!session.state) return;
  {
    std::lock_guard<std::mutex> lock(session.state->mu);
    session.state->done = true;
  }
  session.state->cv.notify_all();
  if (session.monitor.joinable()) session.monitor.join();
}

void ExperimentRunner::watch_inline_begin() {
  if (watchdog_seconds_ <= 0) return;
  inline_job_begin_ = now_seconds();
}

void ExperimentRunner::watch_inline_end(int index) {
  if (watchdog_seconds_ <= 0) return;
  const double elapsed = now_seconds() - inline_job_begin_;
  if (elapsed > watchdog_seconds_) record_hung(index, elapsed);
}

void ExperimentRunner::record_hung(int index, double elapsed_seconds) {
  std::string entry = watch_label_.empty() ? "" : watch_label_ + " ";
  entry += "rep=" + std::to_string(index) + " exceeded the " +
           std::to_string(watchdog_seconds_) + "s watchdog (running " +
           std::to_string(elapsed_seconds) + "s)";
  std::fprintf(stderr, "[watchdog] %s\n", entry.c_str());
}

double ExperimentRunner::median_replicates(
    std::uint64_t experiment, std::uint64_t cell, int reps,
    const std::function<double(std::uint64_t, int)>& fn) {
  return median(replicates(experiment, cell, reps, fn));
}

}  // namespace flowsched
