// Persistent fork-join thread pool.
//
// All three programming-model substrates (OpenMP-style loops, Cilk-style
// work stealing, TBB-style partitioned ranges) execute on this pool, so a
// thread-count sweep exercises identical OS threads for every model — the
// property the paper relies on when comparing runtimes (§V).
//
// Helpers are created on demand and live for the pool's lifetime (CP.41:
// minimize thread creation). Each one waits between parallel regions on
// its own cache-line-padded sequence word: it spins for about a
// microsecond, then parks in std::atomic::wait. A region bumps only the
// words of its own helpers, and the caller joins on an atomic countdown
// the same way, so a region costs no mutex, no condition variable and no
// wake-up of helpers outside it. The pool deliberately supports
// oversubscription: the paper runs 121 threads on 31 cores, and CI
// machines may have a single core; because the spin is bounded, idle
// helpers leave the cores to threads with work.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "micg/support/cacheline.hpp"

namespace micg::obs {
class phase_timer;
}  // namespace micg::obs

namespace micg::rt {

class thread_pool {
 public:
  /// A pool that starts with helpers for regions of `threads` workers
  /// (including the caller, which always participates as worker 0).
  /// run() spawns more helpers when a wider region asks for them.
  explicit thread_pool(int threads);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Process-wide pool. Starts with no helpers; run() spawns exactly the
  /// ones the widest region so far needed.
  static thread_pool& global();

  /// Execute `fn(worker_id)` on workers 0..nthreads-1 and return when all
  /// have finished. The calling thread runs worker 0; only helpers
  /// 1..nthreads-1 are woken. Not reentrant: a worker must not call run()
  /// on the same pool (nested parallelism is provided by the work-stealing
  /// scheduler instead).
  void run(int nthreads, const std::function<void(int)>& fn);

  /// Current capacity (including the caller's slot).
  [[nodiscard]] int max_threads() const;

  /// Ensure capacity for regions of `nthreads` workers.
  void reserve(int nthreads);

 private:
  /// One helper's wake-up state, alone on its cache line: the caller's
  /// bump and the helper's spin touch no line another helper polls.
  struct alignas(cacheline_size) helper {
    std::atomic<std::uint32_t> seq{0};  ///< bumped once per region joined
    std::atomic<bool> parked{false};    ///< blocked (or about to) in wait
    helper* next = nullptr;             ///< next helper in spawn order
    std::thread thread;
  };

  void helper_main(helper& self, int id);
  void spawn_locked(int target_helpers);

  // Growth only. The helper list is append-only and each node is linked
  // before `spawned_` publishes it, so run() walks it without the lock.
  std::mutex mu_;
  std::vector<std::unique_ptr<helper>> helpers_;  // guarded by mu_
  helper* first_ = nullptr;
  std::atomic<int> spawned_{0};

  // The current region. Written by the caller before it bumps the
  // helpers' words; read by helpers after they see the bump.
  const std::function<void(int)>* job_fn_ = nullptr;
  obs::phase_timer* job_busy_ = nullptr;  ///< rt.worker_busy, if recording
  std::exception_ptr job_error_;          ///< first helper exception
  std::atomic<bool> job_error_claimed_{false};
  std::atomic<bool> in_region_{false};
  std::atomic<bool> stopping_{false};

  // Join countdown, on its own line: every finishing helper hits it.
  alignas(cacheline_size) std::atomic<int> remaining_{0};
  std::atomic<bool> caller_parked_{false};
};

}  // namespace micg::rt
