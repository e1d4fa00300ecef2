// Tests for the persistent thread pool, barrier and worker ids.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <mutex>
#include <numeric>
#include <set>
#include <vector>

#include "micg/rt/barrier.hpp"
#include "micg/rt/thread_pool.hpp"
#include "micg/rt/worker.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/cacheline.hpp"

namespace {

using micg::rt::thread_pool;

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  thread_pool pool(8);
  std::atomic<int> hits{0};
  std::mutex mu;
  std::set<int> ids;
  pool.run(8, [&](int w) {
    hits.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(w);
  });
  EXPECT_EQ(hits.load(), 8);
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), 7);
}

TEST(ThreadPool, CallerIsWorkerZero) {
  thread_pool pool(4);
  int caller_id = -2;
  pool.run(1, [&](int w) {
    if (micg::rt::this_worker_id() == 0) caller_id = w;
  });
  EXPECT_EQ(caller_id, 0);
}

TEST(ThreadPool, WorkerIdVisibleViaTls) {
  thread_pool pool(4);
  std::vector<micg::padded<int>> seen(4);
  pool.run(4, [&](int w) {
    seen[static_cast<std::size_t>(w)].value = micg::rt::this_worker_id();
  });
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(seen[static_cast<std::size_t>(w)].value, w);
  }
}

TEST(ThreadPool, WorkerIdResetAfterRegion) {
  thread_pool pool(2);
  pool.run(2, [](int) {});
  EXPECT_EQ(micg::rt::this_worker_id(), -1);
}

TEST(ThreadPool, SupportsRepeatedRegions) {
  thread_pool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(4, [&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, RegionsOfVaryingWidth) {
  thread_pool pool(1);  // grows on demand
  for (int n : {1, 3, 7, 2, 16, 1}) {
    std::atomic<int> hits{0};
    pool.run(n, [&](int) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), n) << "width " << n;
  }
  EXPECT_GE(pool.max_threads(), 16);
}

TEST(ThreadPool, GrowsLazilyWithoutOvershoot) {
  thread_pool pool(1);
  EXPECT_EQ(pool.max_threads(), 1);
  std::atomic<int> hits{0};
  pool.run(4, [&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(pool.max_threads(), 4);
  pool.run(2, [&](int) { hits.fetch_add(1); });
  EXPECT_EQ(pool.max_threads(), 4);
}

TEST(ThreadPool, AlternatingWidthsRunEachWorkerOnce) {
  // Wide regions leave helpers idle in the narrow ones that follow; each
  // region must still run fn exactly once per id in [0, n) and never on
  // an idle helper.
  constexpr int kMax = 16;
  thread_pool pool(1);
  std::vector<micg::padded<std::atomic<int>>> hits(kMax);
  const int widths[] = {16, 2, 16, 7, 2, 16};
  int bad_regions = 0;
  for (int r = 0; r < 3000; ++r) {
    const int n = widths[r % 6];
    for (auto& h : hits) h.value.store(0, std::memory_order_relaxed);
    pool.run(n, [&](int w) {
      hits[static_cast<std::size_t>(w)].value.fetch_add(1);
    });
    for (int w = 0; w < kMax; ++w) {
      const int expect = w < n ? 1 : 0;
      if (hits[static_cast<std::size_t>(w)].value.load() != expect) {
        ++bad_regions;
        break;
      }
    }
  }
  EXPECT_EQ(bad_regions, 0);
  EXPECT_EQ(pool.max_threads(), kMax);
}

TEST(ThreadPool, OversubscriptionWorks) {
  // 64 workers on however few cores this machine has.
  thread_pool pool(64);
  std::atomic<long> sum{0};
  pool.run(64, [&](int w) { sum.fetch_add(w); });
  EXPECT_EQ(sum.load(), 64L * 63L / 2L);
}

TEST(ThreadPool, NestedWidthOneRegionIsLegal) {
  // A serial (width-1) region may run inside a parallel region — the
  // pattern of a spawned task calling a serial library routine.
  thread_pool outer(4);
  thread_pool inner(1);
  std::atomic<int> nested_runs{0};
  outer.run(4, [&](int) {
    inner.run(1, [&](int w) {
      EXPECT_EQ(w, 0);
      EXPECT_EQ(micg::rt::this_worker_id(), 0);
      nested_runs.fetch_add(1);
    });
  });
  EXPECT_EQ(nested_runs.load(), 4);
  // Multi-thread nesting is still rejected.
  EXPECT_THROW(
      outer.run(2, [&](int) { inner.run(2, [](int) {}); }),
      micg::check_error);
}

TEST(ThreadPool, WorkerExceptionsPropagateToCaller) {
  thread_pool pool(4);
  // Thrown on a helper thread: captured, joined, rethrown on the caller.
  EXPECT_THROW(pool.run(4,
                        [&](int w) {
                          if (w == 3) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> hits{0};
  pool.run(4, [&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
  // Thrown on the caller (worker 0): helpers are still joined first.
  EXPECT_THROW(pool.run(4,
                        [&](int w) {
                          if (w == 0) throw std::runtime_error("caller");
                        }),
               std::runtime_error);
  pool.run(2, [&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 6);
}

TEST(ThreadPool, NarrowRegionExceptionAfterWideRegion) {
  thread_pool pool(1);
  std::atomic<int> hits{0};
  pool.run(8, [&](int) { hits.fetch_add(1); });
  EXPECT_THROW(pool.run(2,
                        [&](int w) {
                          if (w == 1) throw std::runtime_error("narrow");
                        }),
               std::runtime_error);
  pool.run(8, [&](int) { hits.fetch_add(1); });
  pool.run(3, [&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 19);
}

TEST(ThreadPool, RejectsZeroThreads) {
  thread_pool pool(2);
  EXPECT_THROW(pool.run(0, [](int) {}), micg::check_error);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> hits{0};
  thread_pool::global().run(4, [&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(Barrier, SynchronizesPhases) {
  constexpr int kThreads = 8;
  constexpr int kPhases = 20;
  thread_pool pool(kThreads);
  micg::rt::sense_barrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::atomic<bool> torn{false};
  pool.run(kThreads, [&](int) {
    for (int p = 0; p < kPhases; ++p) {
      phase_counter.fetch_add(1);
      barrier.arrive_and_wait();
      // After the barrier every thread must observe the full phase count.
      if (phase_counter.load() < (p + 1) * kThreads) torn.store(true);
      barrier.arrive_and_wait();
    }
  });
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(phase_counter.load(), kThreads * kPhases);
}

TEST(Barrier, SingleParticipantNeverBlocks) {
  micg::rt::sense_barrier barrier(1);
  for (int i = 0; i < 100; ++i) barrier.arrive_and_wait();
  SUCCEED();
}

}  // namespace
