#include "micg/rt/thread_pool.hpp"

#include <chrono>
#include <utility>

#include "micg/obs/obs.hpp"
#include "micg/rt/worker.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/timer.hpp"

namespace micg::rt {

namespace {

/// How long a waiter polls before it parks. Enough to catch back-to-back
/// regions; measured on a 4-core host, a 5 µs pause-then-yield budget
/// bought level-synchronous BFS ~5% and cost serve read latency about as
/// much, because idle helpers of 8 concurrent slot pools compete for the
/// cores with the requests.
constexpr std::chrono::nanoseconds spin_budget{1000};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Wait until `done(word)` holds and return the value that satisfied it:
/// spin for `spin_budget`, then raise `parked` and block in atomic::wait.
/// The writer pairs this with notify_if_parked(). Both sides use seq_cst
/// on (word, parked), so either the waiter sees the new value before it
/// blocks or the writer sees `parked` and wakes it.
template <typename T, typename Done>
T spin_then_park(std::atomic<T>& word, std::atomic<bool>& parked,
                 const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + spin_budget;
  for (unsigned i = 1;; ++i) {
    const T v = word.load(std::memory_order_acquire);
    if (done(v)) return v;
    if (i % 8 == 0 && std::chrono::steady_clock::now() >= deadline) break;
    cpu_relax();
  }
  parked.store(true, std::memory_order_seq_cst);
  T v = word.load(std::memory_order_seq_cst);
  while (!done(v)) {
    word.wait(v, std::memory_order_acquire);
    v = word.load(std::memory_order_seq_cst);
  }
  parked.store(false, std::memory_order_relaxed);
  return v;
}

/// Called after a seq_cst write to `word`: one futex wake, and only when
/// the waiter has parked.
template <typename T>
void notify_if_parked(std::atomic<T>& word, const std::atomic<bool>& parked) {
  if (parked.load(std::memory_order_seq_cst)) word.notify_one();
}

/// Run one worker's share, adding its wall time to rt.worker_busy when a
/// recorder was installed at fork.
void run_share(obs::phase_timer* busy, int worker,
               const std::function<void(int)>& fn) {
  if (busy == nullptr) {
    fn(worker);
    return;
  }
  stopwatch sw;
  fn(worker);
  busy->add_seconds(worker, sw.seconds());
}

}  // namespace

thread_pool::thread_pool(int threads) {
  MICG_CHECK(threads >= 1, "pool needs at least one thread");
  reserve(threads);
}

thread_pool::~thread_pool() {
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& h : helpers_) {
    h->seq.fetch_add(1, std::memory_order_seq_cst);
    h->seq.notify_one();
  }
  for (auto& h : helpers_) h->thread.join();
}

thread_pool& thread_pool::global() {
  static thread_pool pool(1);
  return pool;
}

int thread_pool::max_threads() const {
  return spawned_.load(std::memory_order_acquire) + 1;
}

void thread_pool::reserve(int nthreads) {
  std::lock_guard<std::mutex> lock(mu_);
  spawn_locked(nthreads - 1);
}

void thread_pool::spawn_locked(int target_helpers) {
  // Caller holds mu_. Helpers are workers 1..target; worker 0 is the caller.
  while (static_cast<int>(helpers_.size()) < target_helpers) {
    const int id = static_cast<int>(helpers_.size()) + 1;
    auto h = std::make_unique<helper>();
    helper& self = *h;
    self.thread = std::thread([this, &self, id] { helper_main(self, id); });
    if (helpers_.empty()) {
      first_ = &self;
    } else {
      helpers_.back()->next = &self;
    }
    helpers_.push_back(std::move(h));
    spawned_.store(id, std::memory_order_release);
  }
}

void thread_pool::run(int nthreads, const std::function<void(int)>& fn) {
  MICG_CHECK(nthreads >= 1, "parallel region needs at least one worker");

  // Resolve the recorder and its handles once, on the caller (a single
  // relaxed load when recording is off). Helpers get the busy timer
  // through the job, so a region publishes to one recorder throughout.
  obs::recorder* rec = obs::recorder::global();
  obs::phase_timer* busy = nullptr;
  if (rec != nullptr) {
    rec->get_counter("rt.regions").inc(0);
    rec->get_counter("rt.region_workers")
        .add(0, static_cast<std::uint64_t>(nthreads));
    busy = &rec->get_timer("rt.worker_busy");
  }

  // Width-1 regions execute inline and are therefore legal anywhere —
  // including nested inside another region (a task calling a serial
  // library routine, ...). The
  // worker id is scoped so per-worker storage indexes slot 0 and is
  // restored afterwards.
  if (nthreads == 1) {
    worker_id_scope scope(0);
    run_share(busy, 0, fn);
    return;
  }
  MICG_CHECK(this_worker_id() < 0,
             "a multi-thread thread_pool::run() is not reentrant from "
             "inside a parallel region (use width 1, or the work-stealing "
             "scheduler for nested parallelism)");
  obs::phase_timer* wall =
      rec != nullptr ? &rec->get_timer("rt.region_wall") : nullptr;
  stopwatch region_clock;
  if (spawned_.load(std::memory_order_acquire) < nthreads - 1) {
    reserve(nthreads);
  }
  // Nothing below throws before the join, so the flag is always cleared.
  MICG_CHECK(!in_region_.exchange(true, std::memory_order_acquire),
             "concurrent thread_pool::run() calls");
  job_fn_ = &fn;
  job_busy_ = busy;
  remaining_.store(nthreads - 1, std::memory_order_relaxed);
  // Never read the `next` of helper n-1: a concurrent reserve() may be
  // linking it.
  helper* h = first_;
  for (int i = 1;; ++i) {
    h->seq.fetch_add(1, std::memory_order_seq_cst);
    notify_if_parked(h->seq, h->parked);
    if (i == nthreads - 1) break;
    h = h->next;
  }

  // Exceptions (from any worker, including this caller) must not unwind
  // past the region while helpers still reference `fn`: capture the first
  // one, always join, rethrow after.
  std::exception_ptr caller_error;
  {
    worker_id_scope scope(0);
    try {
      run_share(busy, 0, fn);
    } catch (...) {
      caller_error = std::current_exception();
    }
  }

  spin_then_park(remaining_, caller_parked_, [](int r) { return r == 0; });
  std::exception_ptr helper_error = std::exchange(job_error_, nullptr);
  job_error_claimed_.store(false, std::memory_order_relaxed);
  job_fn_ = nullptr;
  in_region_.store(false, std::memory_order_release);

  if (wall != nullptr) wall->add_seconds(0, region_clock.seconds());
  if (caller_error) std::rethrow_exception(caller_error);
  if (helper_error) std::rethrow_exception(helper_error);
}

void thread_pool::helper_main(helper& self, int id) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = spin_then_park(self.seq, self.parked,
                          [seen](std::uint32_t s) { return s != seen; });
    if (stopping_.load(std::memory_order_relaxed)) return;
    {
      worker_id_scope scope(id);
      try {
        run_share(job_busy_, id, *job_fn_);
      } catch (...) {
        // First worker exception wins; rethrown by run() on the caller.
        if (!job_error_claimed_.exchange(true, std::memory_order_relaxed)) {
          job_error_ = std::current_exception();
        }
      }
    }
    // The last helper out wakes the caller if it parked. The countdown's
    // release sequence carries every helper's writes (payload, busy time,
    // error) to the caller's acquire of zero.
    if (remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      notify_if_parked(remaining_, caller_parked_);
    }
  }
}

}  // namespace micg::rt
