#include "micg/rt/scheduler.hpp"

#include <thread>

#include "micg/rt/worker.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/rng.hpp"

namespace micg::rt {

namespace {
// Spawner id of the task currently executing on this thread; -1 when not
// inside a task. Used for TBB-style split-on-steal detection.
thread_local int tls_current_spawner = -1;
// Per-thread victim-selection RNG; seeded lazily from the thread id hash.
thread_local xoshiro256ss tls_victim_rng{
    0x9e3779b97f4a7c15ULL ^
    std::hash<std::thread::id>{}(std::this_thread::get_id())};
}  // namespace

task_scheduler::task_scheduler(thread_pool& pool, int nthreads)
    : pool_(pool), nthreads_(nthreads) {
  MICG_CHECK(nthreads >= 1, "scheduler needs at least one worker");
  deques_.reserve(static_cast<std::size_t>(nthreads));
  for (int i = 0; i < nthreads; ++i) {
    deques_.push_back(std::make_unique<ws_deque<task*>>());
  }
  const auto slots = static_cast<std::size_t>(nthreads);
  steal_count_ =
      std::make_unique<padded<std::atomic<std::uint64_t>>[]>(slots);
  spawn_count_ =
      std::make_unique<padded<std::atomic<std::uint64_t>>[]>(slots);
  exec_count_ =
      std::make_unique<padded<std::atomic<std::uint64_t>>[]>(slots);
}

task_scheduler::~task_scheduler() = default;

scheduler_stats task_scheduler::stats() const {
  scheduler_stats s;
  for (int i = 0; i < nthreads_; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    s.stolen += steal_count_[idx].value.load(std::memory_order_relaxed);
    s.spawned += spawn_count_[idx].value.load(std::memory_order_relaxed);
    s.executed += exec_count_[idx].value.load(std::memory_order_relaxed);
  }
  return s;
}

bool task_scheduler::current_task_was_stolen() {
  return tls_current_spawner >= 0 &&
         tls_current_spawner != this_worker_id();
}

void task_scheduler::run(const std::function<void()>& root) {
  done_.store(false, std::memory_order_relaxed);
  pool_.run(nthreads_, [this, &root](int worker) {
    if (worker == 0) {
      root();
      done_.store(true, std::memory_order_release);
    } else {
      int idle_spins = 0;
      while (!done_.load(std::memory_order_acquire)) {
        if (try_execute_one(worker)) {
          idle_spins = 0;
        } else if (++idle_spins > 16) {
          std::this_thread::yield();
          idle_spins = 0;
        }
      }
    }
  });
}

void task_scheduler::spawn_task(task_group& group, std::function<void()> fn) {
  const int self = this_worker_id();
  MICG_CHECK(self >= 0 && self < nthreads_,
             "spawn must be called from a scheduler worker");
  group.pending_.fetch_add(1, std::memory_order_relaxed);
  auto* t = new task{std::move(fn), &group.pending_, self};
  spawn_count_[static_cast<std::size_t>(self)].value.fetch_add(
      1, std::memory_order_relaxed);
  deques_[static_cast<std::size_t>(self)]->push(t);
}

void task_scheduler::wait_group(task_group& group) {
  const int self = this_worker_id();
  if (group.pending_.load(std::memory_order_acquire) == 0) return;
  MICG_CHECK(self >= 0 && self < nthreads_,
             "wait must be called from a scheduler worker");
  int idle_spins = 0;
  while (group.pending_.load(std::memory_order_acquire) > 0) {
    if (try_execute_one(self)) {
      idle_spins = 0;
    } else if (++idle_spins > 16) {
      std::this_thread::yield();
      idle_spins = 0;
    }
  }
}

bool task_scheduler::try_execute_one(int self) {
  const auto self_idx = static_cast<std::size_t>(self);
  // Local LIFO first: depth-first execution keeps the working set hot.
  if (auto t = deques_[self_idx]->pop()) {
    execute(*t, self);
    return true;
  }
  if (nthreads_ == 1) return false;
  // Randomized stealing: up to 2*nthreads probe attempts per call.
  for (int attempt = 0; attempt < 2 * nthreads_; ++attempt) {
    const auto victim = static_cast<int>(tls_victim_rng.below(
        static_cast<std::uint64_t>(nthreads_)));
    if (victim == self) continue;
    if (auto t = deques_[static_cast<std::size_t>(victim)]->steal()) {
      steal_count_[self_idx].value.fetch_add(1, std::memory_order_relaxed);
      execute(*t, self);
      return true;
    }
  }
  return false;
}

void task_scheduler::execute(task* t, int self) {
  exec_count_[static_cast<std::size_t>(self)].value.fetch_add(
      1, std::memory_order_relaxed);
  const int saved = tls_current_spawner;
  tls_current_spawner = t->spawner;
  t->fn();
  tls_current_spawner = saved;
  t->pending->fetch_sub(1, std::memory_order_acq_rel);
  delete t;
}

}  // namespace micg::rt
