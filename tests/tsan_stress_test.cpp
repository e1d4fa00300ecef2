// Deterministic concurrency stress harness, designed to run under
// ThreadSanitizer (the CI tsan job builds exactly this binary plus the
// functional suites with -fsanitize=thread).
//
// Every test is seeded and bounded: the point is not statistical coverage
// (stress_test.cpp does bigger randomized runs) but to drive each rt/ and
// frontier primitive through the interleavings its memory-order discipline
// must survive — contended steal vs pop, ring growth mid-steal, barrier
// generation reuse, frontier swap/reset cycles — while TSan checks every
// happens-before edge. Workloads shrink under MICG_TSAN so the suite stays
// fast despite the ~10x sanitizer slowdown.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "micg/api/api.hpp"
#include "micg/bfs/bag.hpp"
#include "micg/bfs/block_queue.hpp"
#include "micg/bfs/direction.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/bfs/sssp.hpp"
#include "micg/bfs/tls_queue.hpp"
#include "micg/color/iterative.hpp"
#include "micg/color/verify.hpp"
#include "micg/graph/components.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/weighted.hpp"
#include "micg/irregular/pagerank.hpp"
#include "micg/rt/barrier.hpp"
#include "micg/rt/cilk_for.hpp"
#include "micg/rt/exec.hpp"
#include "micg/rt/reduce.hpp"
#include "micg/rt/reducer.hpp"
#include "micg/rt/scan.hpp"
#include "micg/rt/scheduler.hpp"
#include "micg/rt/thread_pool.hpp"
#include "micg/rt/ws_deque.hpp"
#include "micg/support/cacheline.hpp"
#include "micg/support/rng.hpp"
#include "micg/support/tsan.hpp"

namespace {

using micg::graph::vertex_t;
using micg::rt::thread_pool;

#if MICG_TSAN
constexpr int kThreads = 8;
constexpr int kRounds = 6;
constexpr std::int64_t kItems = 1500;
#else
constexpr int kThreads = 12;
constexpr int kRounds = 20;
constexpr std::int64_t kItems = 6000;
#endif

// --- ws_deque ---------------------------------------------------------------

// The satellite regression: contended steal vs pop with the owner draining
// aggressively, so the single-element CAS race and the bottom_ publication
// orders are both on the critical path every round.
TEST(TsanStress, WsDequeStealPopContention) {
  thread_pool pool(kThreads);
  for (int round = 0; round < kRounds; ++round) {
    micg::rt::ws_deque<std::int64_t> d;
    std::atomic<std::int64_t> sum{0};
    std::atomic<std::int64_t> taken{0};
    pool.run(kThreads, [&](int w) {
      micg::xoshiro256ss rng(static_cast<std::uint64_t>(w) * 101 + round);
      std::int64_t local = 0;
      if (w == 0) {
        std::int64_t pushed = 0;
        while (pushed < kItems) {
          // Keep the deque near-empty: push tiny bursts, pop immediately,
          // so pop and steal collide on the last element constantly.
          const auto burst = static_cast<std::int64_t>(1 + rng.below(3));
          for (std::int64_t i = 0; i < burst && pushed < kItems; ++i) {
            d.push(++pushed);
          }
          while (auto v = d.pop()) {
            local += *v;
            taken.fetch_add(1);
            if (rng.below(2) == 0) break;  // leave leftovers to thieves
          }
        }
        while (auto v = d.pop()) {
          local += *v;
          taken.fetch_add(1);
        }
      } else {
        while (taken.load(std::memory_order_relaxed) < kItems) {
          if (auto v = d.steal()) {
            local += *v;
            taken.fetch_add(1);
          } else {
            std::this_thread::yield();
          }
        }
      }
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), kItems * (kItems + 1) / 2) << "round " << round;
  }
}

// Ring growth while thieves hold pointers into the old ring: starts at the
// minimum capacity so push() doubles repeatedly mid-steal, exercising the
// array_ publication and the retired-ring reclamation rule.
TEST(TsanStress, WsDequeGrowthUnderActiveSteals) {
  thread_pool pool(kThreads);
  for (int round = 0; round < kRounds; ++round) {
    micg::rt::ws_deque<std::int64_t> d(8);
    std::atomic<std::int64_t> sum{0};
    std::atomic<std::int64_t> taken{0};
    pool.run(kThreads, [&](int w) {
      std::int64_t local = 0;
      if (w == 0) {
        // Push everything before draining: forces growth to kItems slots.
        for (std::int64_t i = 1; i <= kItems; ++i) d.push(i);
        while (auto v = d.pop()) {
          local += *v;
          taken.fetch_add(1);
        }
      } else {
        while (taken.load(std::memory_order_relaxed) < kItems) {
          if (auto v = d.steal()) {
            local += *v;
            taken.fetch_add(1);
          } else {
            std::this_thread::yield();
          }
        }
      }
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), kItems * (kItems + 1) / 2) << "round " << round;
  }
}

// --- scheduler --------------------------------------------------------------

// Seeded fork trees whose tasks write non-atomic payloads: the stolen-task
// payload is exactly the data whose happens-before edge rides on the deque
// publication order, so TSan validates the whole spawn -> steal -> execute
// chain, not just the counters.
TEST(TsanStress, SchedulerSeededForkTreesWithPayload) {
  thread_pool pool(kThreads);
  micg::rt::task_scheduler sched(pool, kThreads);
  for (int round = 0; round < kRounds; ++round) {
    constexpr int kLeaves = 256;
    std::vector<std::int64_t> payload(kLeaves, -1);  // non-atomic on purpose
    std::atomic<int> next{0};
    std::function<void(int)> tree = [&](int depth) {
      if (depth == 0) {
        const int slot = next.fetch_add(1, std::memory_order_relaxed);
        payload[static_cast<std::size_t>(slot)] = slot;
        return;
      }
      micg::rt::task_group g(sched);
      g.spawn([&, depth] { tree(depth - 1); });
      g.spawn([&, depth] { tree(depth - 1); });
      g.wait();
    };
    sched.run([&] { tree(8); });  // 2^8 leaves
    ASSERT_EQ(next.load(), kLeaves);
    for (int i = 0; i < kLeaves; ++i) {
      ASSERT_GE(payload[static_cast<std::size_t>(i)], 0) << "leaf " << i;
    }
  }
  const auto stats = sched.stats();
  EXPECT_EQ(stats.executed, stats.spawned);
}

// --- barrier ----------------------------------------------------------------

// Generation reuse: two barriers per thread per phase, non-atomic per-phase
// payload handed across the barrier. The payload reads are racy unless
// arrive_and_wait() really publishes (release) and observes (acquire) the
// generation counter.
TEST(TsanStress, BarrierGenerationsPublishPayload) {
  thread_pool pool(kThreads);
  micg::rt::sense_barrier gate(kThreads);
  micg::rt::sense_barrier gate2(kThreads);
  std::vector<micg::padded<std::int64_t>> cell(kThreads);
  std::atomic<std::int64_t> mismatches{0};
  const int phases = kRounds * 10;
  pool.run(kThreads, [&](int w) {
    for (int p = 0; p < phases; ++p) {
      cell[static_cast<std::size_t>(w)].value = p;  // non-atomic write
      gate.arrive_and_wait();
      // Read the neighbor's cell: safe only via the barrier's ordering.
      const int peer = (w + 1) % kThreads;
      if (cell[static_cast<std::size_t>(peer)].value != p) {
        mismatches.fetch_add(1);
      }
      gate2.arrive_and_wait();
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// Back-to-back regions of changing width. Helpers write plain cells and
// the caller reads them after run() returns, and the caller rewrites the
// payload before the next region, so both the fork (sequence-word bump)
// and the join (countdown) must carry happens-before. Widths shrink and
// grow so some helpers sit out regions and wake again later.
TEST(TsanStress, PoolBackToBackRegionsPublishPayload) {
  thread_pool pool(1);
  std::vector<micg::padded<std::int64_t>> cell(kThreads);
  std::int64_t input = 0;  // non-atomic; written by the caller between regions
  const int widths[] = {kThreads, 2, kThreads - 1, 3, kThreads};
  std::int64_t mismatches = 0;
  for (int r = 0; r < kRounds * 50; ++r) {
    const int n = widths[r % 5];
    input = r;
    pool.run(n, [&](int w) {
      cell[static_cast<std::size_t>(w)].value = input * kThreads + w;
    });
    for (int w = 0; w < n; ++w) {
      if (cell[static_cast<std::size_t>(w)].value !=
          static_cast<std::int64_t>(r) * kThreads + w) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// --- reducers / scan --------------------------------------------------------

TEST(TsanStress, ReducerMaxAcrossBackends) {
  const std::int64_t n = kItems;
  for (auto kind : {micg::rt::backend::omp_dynamic,
                    micg::rt::backend::cilk_holder,
                    micg::rt::backend::tbb_simple}) {
    micg::rt::exec e;
    e.kind = kind;
    e.threads = kThreads;
    e.chunk = 16;
    micg::rt::reducer_max<std::int64_t> best(kThreads, -1);
    micg::rt::for_range(e, n, [&](std::int64_t b, std::int64_t en, int) {
      for (std::int64_t i = b; i < en; ++i) {
        best.update((i * 2654435761u) % n);  // scrambled so max moves around
      }
    });
    EXPECT_EQ(best.get(), n - 1) << micg::rt::backend_name(kind);
  }
}

TEST(TsanStress, ParallelScanMatchesSequential) {
  micg::xoshiro256ss rng(4242);
  std::vector<std::int64_t> values(static_cast<std::size_t>(kItems));
  for (auto& v : values) v = static_cast<std::int64_t>(rng.below(100));
  std::vector<std::int64_t> expect = values;
  std::int64_t running = 0;
  for (auto& v : expect) {
    const auto next = running + v;
    v = running;
    running = next;
  }
  for (auto kind : {micg::rt::backend::omp_static,
                    micg::rt::backend::tbb_simple}) {
    micg::rt::exec e;
    e.kind = kind;
    e.threads = kThreads;
    e.chunk = 37;  // deliberately unaligned chunking
    std::vector<std::int64_t> got = values;
    const auto total = micg::rt::parallel_exclusive_scan(e, got);
    EXPECT_EQ(total, running) << micg::rt::backend_name(kind);
    EXPECT_EQ(got, expect) << micg::rt::backend_name(kind);
  }
}

// pagerank's fixed-block sweeps hand each 4096-vertex block to whichever
// worker claims it, so one sweep's writes to contrib and to the block
// partials come from several workers, and the next region's gather reads
// them. Every 4-thread run must reproduce the T=1 bits.
TEST(TsanStress, PagerankSweepsAcrossWorkers) {
  const auto g = micg::graph::make_rmat(15, 8, 0.57, 0.19, 0.19, 3);
  ASSERT_GE(g.num_vertices(), 8 * micg::rt::deterministic_sum_block);
  micg::irregular::pagerank_options opt;
  opt.max_iterations = 8;
  opt.ex.threads = 1;
  const auto ref = micg::irregular::pagerank(g, opt);
  opt.ex.threads = 4;
  constexpr micg::rt::backend kinds[] = {micg::rt::backend::omp_dynamic,
                                         micg::rt::backend::cilk_holder,
                                         micg::rt::backend::tbb_auto};
  for (int round = 0; round < kRounds; ++round) {
    opt.ex.kind = kinds[round % 3];
    const auto r = micg::irregular::pagerank(g, opt);
    ASSERT_EQ(r.rank, ref.rank) << "round " << round;
    ASSERT_EQ(r.final_delta, ref.final_delta) << "round " << round;
    ASSERT_EQ(r.iterations, ref.iterations) << "round " << round;
  }
}

// Afforest's link passes CAS roots that other workers are climbing
// through, and its compress passes shortcut parents that other workers
// read. Every 4-thread run must produce the T=1 labels.
TEST(TsanStress, ComponentsLinkAcrossWorkers) {
  const auto g = micg::graph::make_rmat(15, 8, 0.57, 0.19, 0.19, 3);
  micg::rt::exec ex;
  ex.threads = 1;
  const auto ref = micg::graph::parallel_components(g, ex);
  ex.threads = 4;
  constexpr micg::rt::backend kinds[] = {micg::rt::backend::omp_dynamic,
                                         micg::rt::backend::cilk_holder,
                                         micg::rt::backend::tbb_auto};
  for (int round = 0; round < kRounds; ++round) {
    ex.kind = kinds[round % 3];
    const auto r = micg::graph::parallel_components(g, ex);
    ASSERT_EQ(r.label, ref.label) << "round " << round;
    ASSERT_EQ(r.num_components, ref.num_components) << "round " << round;
    ASSERT_EQ(r.rounds, ref.rounds) << "round " << round;
  }
}

// Direction-optimizing BFS at 4 workers with thresholds that force a
// bottom-up stretch and a bounce back: relaxed top-down claims race on
// shared levels, block-queue pushes race on the queue cursor, and every
// worker fills its own padded frontier counter. A switch is decided on an
// exact total, so every round takes the same steps as one worker does.
TEST(TsanStress, DirectionBfsBouncesAcrossWorkers) {
  const auto g = micg::graph::make_rmat(15, 8, 0.57, 0.19, 0.19, 3);
  vertex_t src = 0;
  while (g.degree(src) == 0) ++src;
  const auto ref = micg::bfs::seq_bfs(g, src);
  micg::bfs::direction_options opt;
  opt.ex.threads = 4;
  opt.alpha = 100.0;
  opt.beta = 2.0;
  micg::bfs::direction_options one_worker = opt;
  one_worker.ex.threads = 1;
  const auto steps = micg::bfs::direction_optimizing_bfs(g, src, one_worker);
  ASSERT_GT(steps.top_down_steps, 0);
  ASSERT_GT(steps.bottom_up_steps, 0);
  for (int round = 0; round < kRounds; ++round) {
    const auto r = micg::bfs::direction_optimizing_bfs(g, src, opt);
    ASSERT_EQ(r.level, ref.level) << "round " << round;
    ASSERT_EQ(r.top_down_steps, steps.top_down_steps) << "round " << round;
    ASSERT_EQ(r.bottom_up_steps, steps.bottom_up_steps) << "round " << round;
  }
}

// --- frontier structures ----------------------------------------------------

// The BFS driver's per-level life cycle: parallel pushes, flush, consume,
// swap cur/next, reset — repeated. The swap is the satellite fix: it must
// be safe between levels and checked against misuse during one.
TEST(TsanStress, BlockQueueSwapResetLevelCycles) {
  thread_pool pool(kThreads);
  const std::size_t cap = static_cast<std::size_t>(kItems) * 2 +
                          static_cast<std::size_t>(kThreads) * 64;
  micg::bfs::block_queue cur(cap, 4, kThreads);
  micg::bfs::block_queue next(cap, 4, kThreads);
  for (int level = 0; level < kRounds; ++level) {
    const vertex_t per = static_cast<vertex_t>(kItems / kThreads);
    pool.run(kThreads, [&](int w) {
      for (vertex_t i = 0; i < per; ++i) {
        next.push(w, static_cast<vertex_t>(w) * per + i);
      }
    });
    next.flush_all();
    ASSERT_EQ(next.count_valid(),
              static_cast<std::size_t>(per) * kThreads)
        << "level " << level;
    swap(cur, next);
    next.reset();
    // Consume cur (sequentially, as the driver does between levels).
    std::int64_t sum = 0;
    for (auto v : cur.raw()) {
      if (v != micg::graph::invalid_vertex) sum += v;
    }
    const std::int64_t total = static_cast<std::int64_t>(per) * kThreads;
    ASSERT_EQ(sum, total * (total - 1) / 2) << "level " << level;
    cur.reset();
  }
}

// Swap during a level (open, unflushed block) is a checked precondition
// violation, not silent corruption.
TEST(TsanStress, BlockQueueSwapWithOpenBlockIsRejected) {
  micg::bfs::block_queue q(64, 4, 2);
  micg::bfs::block_queue r(64, 4, 2);
  q.push(0, 7);  // opens worker 0's block; never flushed
  EXPECT_THROW(q.swap(r), micg::check_error);
  EXPECT_THROW(r.swap(q), micg::check_error);
  q.flush_all();
  EXPECT_NO_THROW(q.swap(r));
  ASSERT_EQ(r.count_valid(), 1u);
}

TEST(TsanStress, TlsFrontierMergeCycles) {
  thread_pool pool(kThreads);
  micg::bfs::tls_frontier f(kThreads);
  std::vector<vertex_t> merged;
  for (int level = 0; level < kRounds; ++level) {
    const vertex_t per = static_cast<vertex_t>(kItems / kThreads);
    pool.run(kThreads, [&](int w) {
      for (vertex_t i = 0; i < per; ++i) {
        f.push(w, static_cast<vertex_t>(w) * per + i);
      }
    });
    ASSERT_EQ(f.total_size(), static_cast<std::size_t>(per) * kThreads);
    f.merge_into(merged);
    ASSERT_EQ(merged.size(), static_cast<std::size_t>(per) * kThreads);
    std::int64_t sum = 0;
    for (auto v : merged) sum += v;
    const std::int64_t total = static_cast<std::int64_t>(per) * kThreads;
    ASSERT_EQ(sum, total * (total - 1) / 2) << "level " << level;
    ASSERT_EQ(f.total_size(), 0u);
  }
}

TEST(TsanStress, BagPerWorkerInsertAbsorbTraverse) {
  constexpr int kBagThreads = 4;
  thread_pool pool(kBagThreads);
  micg::rt::task_scheduler sched(pool, kBagThreads);
  const std::int64_t n = kItems;
  std::vector<micg::bfs::vertex_bag> bags;
  for (int t = 0; t < kBagThreads; ++t) bags.emplace_back(16);
  sched.run([&] {
    micg::rt::cilk_for(sched, 0, n, 32,
                       [&](std::int64_t b, std::int64_t e, int worker) {
                         for (std::int64_t i = b; i < e; ++i) {
                           bags[static_cast<std::size_t>(worker)].insert(
                               static_cast<vertex_t>(i));
                         }
                       });
  });
  micg::bfs::vertex_bag merged(16);
  for (auto& b : bags) merged.absorb(std::move(b));
  ASSERT_EQ(merged.size(), static_cast<std::size_t>(n));
  // Parallel traversal touches every pennant node as a stolen task.
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(n));
  sched.run([&] {
    merged.traverse_parallel(
        sched, [&](std::span<const vertex_t> vs, int) {
          for (auto v : vs) seen[static_cast<std::size_t>(v)].fetch_add(1);
        });
  });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "vertex " << i;
  }
}

// --- iterative coloring -----------------------------------------------------

// The speculate-and-repair loop is the paper's central benign-race kernel;
// under TSan this proves the races are exactly the declared (atomic) ones.
TEST(TsanStress, IterativeColoringSpeculationRaces) {
#if MICG_TSAN
  const auto g = micg::graph::make_erdos_renyi(1200, 8.0, 99);
#else
  const auto g = micg::graph::make_erdos_renyi(4000, 12.0, 99);
#endif
  for (auto kind : {micg::rt::backend::omp_dynamic,
                    micg::rt::backend::cilk_holder,
                    micg::rt::backend::tbb_simple}) {
    micg::color::iterative_options opt;
    opt.ex.kind = kind;
    opt.ex.threads = kThreads;
    opt.ex.chunk = 8;  // tiny chunks maximize conflicting speculation
    const auto r = micg::color::iterative_color(g, opt);
    ASSERT_TRUE(micg::color::is_valid_coloring(g, r.color))
        << micg::rt::backend_name(kind);
  }
}

// --- sssp -------------------------------------------------------------------

// api::run(sssp) at 4 threads: the request's weights are filled by the
// pool's workers, then the relax passes race on CAS-min distances and on
// the per-vertex `expanded` exchange that drops duplicate scans. Every
// target distance must still be Dijkstra's.
TEST(TsanStress, SsspParallelFillAndDedup) {
  const auto g = micg::graph::make_rmat(12, 8, 0.57, 0.19, 0.19, 5);
  const micg::graph::any_csr ag(g);
  const auto w = micg::graph::generate_weights(g, micg::graph::weight_params{});
  const auto ref = micg::bfs::seq_dijkstra(
      g, 0, std::span<const micg::graph::weight_t>(w));
  micg::api::sssp_request req;
  req.source = 0;
  req.ex.threads = 4;
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    req.targets.push_back(v);
  }
  for (int round = 0; round < 20; ++round) {
    ASSERT_EQ(micg::api::run(ag, req).target_dists, ref) << "round " << round;
  }
}

}  // namespace
