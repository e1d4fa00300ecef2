// Tests for the OpenMP-style loop scheduler, the exec facade, TLS and
// reducers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "micg/rt/edge_partition.hpp"
#include "micg/rt/exec.hpp"
#include "micg/rt/loop.hpp"
#include "micg/rt/reducer.hpp"
#include "micg/rt/tls.hpp"
#include "micg/rt/thread_pool.hpp"

namespace {

using micg::rt::backend;
using micg::rt::exec;
using micg::rt::loop_options;
using micg::rt::omp_schedule;
using micg::rt::thread_pool;

// ------------------------------------------------------------ omp schedules

// gtest names each case from the raw bytes of its parameter, so the struct
// has no implicit padding: the two filler fields are always zero, and the
// case names no longer carry whatever the padding happened to hold.
struct LoopCase {
  LoopCase(omp_schedule s, std::int64_t c, int t, std::int64_t size)
      : schedule(s), chunk(c), threads(t), n(size) {}

  omp_schedule schedule;
  std::int32_t fill0 = 0;
  std::int64_t chunk;
  int threads;
  std::int32_t fill1 = 0;
  std::int64_t n;
};
static_assert(sizeof(LoopCase) == 32 &&
                  std::has_unique_object_representations_v<LoopCase>,
              "LoopCase must have no padding bytes");

class OmpLoop : public ::testing::TestWithParam<LoopCase> {};

TEST_P(OmpLoop, CoversRangeExactlyOnce) {
  const auto p = GetParam();
  thread_pool pool(p.threads);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(p.n));
  micg::rt::omp_parallel_for(
      pool, p.threads, p.n, {p.schedule, p.chunk},
      [&](std::int64_t b, std::int64_t e, int) {
        for (std::int64_t i = b; i < e; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
  for (std::int64_t i = 0; i < p.n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, OmpLoop,
    ::testing::Values(
        LoopCase{omp_schedule::static_even, 1, 1, 100},
        LoopCase{omp_schedule::static_even, 1, 4, 1000},
        LoopCase{omp_schedule::static_even, 1, 7, 10},  // n < threads
        LoopCase{omp_schedule::static_chunked, 16, 4, 1000},
        LoopCase{omp_schedule::static_chunked, 100, 3, 101},
        LoopCase{omp_schedule::dynamic, 16, 4, 1000},
        LoopCase{omp_schedule::dynamic, 1, 8, 100},
        LoopCase{omp_schedule::dynamic, 1000, 4, 100},  // chunk > n
        LoopCase{omp_schedule::guided, 16, 4, 1000},
        LoopCase{omp_schedule::guided, 1, 2, 7},
        LoopCase{omp_schedule::guided, 50, 6, 5000}));

TEST(OmpLoopEdge, EmptyRangeIsNoop) {
  thread_pool pool(2);
  bool touched = false;
  micg::rt::omp_parallel_for(pool, 2, 0,
                             {omp_schedule::dynamic, 4},
                             [&](std::int64_t, std::int64_t, int) {
                               touched = true;
                             });
  EXPECT_FALSE(touched);
}

TEST(OmpLoopEdge, StaticEvenBalancesWithinOne) {
  thread_pool pool(4);
  std::vector<micg::padded<std::int64_t>> per_thread(4);
  micg::rt::omp_parallel_for(pool, 4, 103,
                             {omp_schedule::static_even, 1},
                             [&](std::int64_t b, std::int64_t e, int w) {
                               per_thread[static_cast<std::size_t>(w)].value +=
                                   e - b;
                             });
  std::int64_t lo = 1000, hi = 0;
  for (auto& p : per_thread) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(OmpLoopEdge, GuidedChunksDecrease) {
  // A region of 4 runs on 4 workers whatever the pool was built with, so
  // chunks are recorded under a lock and put back in cursor order.
  thread_pool pool(1);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;  // (begin, size)
  micg::rt::omp_parallel_for(pool, 4, 10000,
                             {omp_schedule::guided, 8},
                             [&](std::int64_t b, std::int64_t e, int) {
                               std::lock_guard<std::mutex> lock(mu);
                               chunks.emplace_back(b, e - b);
                             });
  std::sort(chunks.begin(), chunks.end());
  std::vector<std::int64_t> sizes;
  for (const auto& c : chunks) sizes.push_back(c.second);
  // First chunk should be about n/nthreads, later chunks shrink to >= 8.
  ASSERT_GE(sizes.size(), 2u);
  EXPECT_TRUE(std::is_sorted(sizes.rbegin(), sizes.rend()));
  EXPECT_GE(sizes.front(), 2000);
  EXPECT_GE(sizes.back(), 1);
  EXPECT_LT(sizes.back(), sizes.front());
}

// ---------------------------------------------------------------- exec facade

class ExecBackend : public ::testing::TestWithParam<backend> {};

TEST_P(ExecBackend, ForRangeCoversExactlyOnce) {
  exec e;
  e.kind = GetParam();
  e.threads = 4;
  e.chunk = 32;
  constexpr std::int64_t kN = 3000;
  std::vector<std::atomic<int>> hits(kN);
  micg::rt::for_range(e, kN, [&](std::int64_t b, std::int64_t eend, int) {
    for (std::int64_t i = b; i < eend; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST_P(ExecBackend, SingleThreadWorks) {
  exec e;
  e.kind = GetParam();
  e.threads = 1;
  e.chunk = 10;
  std::int64_t sum = 0;
  micg::rt::for_range(e, 100, [&](std::int64_t b, std::int64_t eend, int) {
    for (std::int64_t i = b; i < eend; ++i) sum += i;
  });
  EXPECT_EQ(sum, 99 * 100 / 2);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ExecBackend,
                         ::testing::ValuesIn(micg::rt::all_backends()),
                         [](const auto& info) {
                           std::string n = micg::rt::backend_name(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(ExecNames, RoundTrip) {
  for (backend b : micg::rt::all_backends()) {
    EXPECT_EQ(micg::rt::backend_from_name(micg::rt::backend_name(b)), b);
  }
  EXPECT_THROW(micg::rt::backend_from_name("NotABackend"),
               micg::check_error);
}

TEST(ExecNames, FamilyPredicates) {
  EXPECT_TRUE(micg::rt::is_omp(backend::omp_guided));
  EXPECT_TRUE(micg::rt::is_cilk(backend::cilk_holder));
  EXPECT_TRUE(micg::rt::is_tbb(backend::tbb_affinity));
  EXPECT_FALSE(micg::rt::is_omp(backend::cilk_tid));
  EXPECT_FALSE(micg::rt::is_tbb(backend::omp_static));
}

// --------------------------------------------------------------- tls/reducer

TEST(Tls, OneInstancePerWorker) {
  thread_pool pool(4);
  micg::rt::enumerable_thread_specific<std::int64_t> ets(4);
  micg::rt::omp_parallel_for(pool, 4, 1000,
                             {omp_schedule::dynamic, 8},
                             [&](std::int64_t b, std::int64_t e, int) {
                               ets.local() += e - b;
                             });
  EXPECT_LE(ets.size(), 4u);
  EXPECT_GE(ets.size(), 1u);
  const std::int64_t total =
      ets.combine(std::int64_t{0},
                  [](std::int64_t acc, std::int64_t v) { return acc + v; });
  EXPECT_EQ(total, 1000);
}

TEST(Tls, FactoryRunsLazily) {
  thread_pool pool(4);
  std::atomic<int> constructed{0};
  micg::rt::enumerable_thread_specific<int> ets(4, [&] {
    constructed.fetch_add(1);
    return 7;
  });
  EXPECT_EQ(constructed.load(), 0);
  pool.run(1, [&](int) { EXPECT_EQ(ets.local(), 7); });
  EXPECT_EQ(constructed.load(), 1);
}

TEST(Tls, LocalOutsideRegionThrows) {
  micg::rt::enumerable_thread_specific<int> ets(2);
  EXPECT_THROW(ets.local(), micg::check_error);
}

TEST(Tls, ClearResets) {
  thread_pool pool(2);
  micg::rt::enumerable_thread_specific<int> ets(2);
  pool.run(1, [&](int) { ets.local() = 42; });
  ets.clear();
  EXPECT_EQ(ets.size(), 0u);
  pool.run(1, [&](int) { EXPECT_EQ(ets.local(), 0); });
}

TEST(Combinable, CombinesAcrossThreads) {
  thread_pool pool(4);
  micg::rt::combinable<std::int64_t> acc(4);
  micg::rt::omp_parallel_for(pool, 4, 100,
                             {omp_schedule::static_even, 1},
                             [&](std::int64_t b, std::int64_t e, int) {
                               for (std::int64_t i = b; i < e; ++i) {
                                 acc.local() += i;
                               }
                             });
  const std::int64_t total = acc.combine(
      std::int64_t{0},
      [](std::int64_t a, std::int64_t b2) { return a + b2; });
  EXPECT_EQ(total, 99 * 100 / 2);
}

TEST(Holder, ViewsAreIndependentScratch) {
  thread_pool pool(4);
  micg::rt::holder<std::vector<int>> h(
      4, [] { return std::vector<int>(16, -1); });
  std::atomic<bool> clean{true};
  micg::rt::omp_parallel_for(pool, 4, 200,
                             {omp_schedule::dynamic, 4},
                             [&](std::int64_t b, std::int64_t e, int) {
                               auto& view = h.view();
                               if (view.size() != 16) clean.store(false);
                               for (std::int64_t i = b; i < e; ++i) {
                                 view[static_cast<std::size_t>(i) % 16] =
                                     static_cast<int>(i);
                               }
                             });
  EXPECT_TRUE(clean.load());
  EXPECT_GE(h.views_created(), 1u);
  EXPECT_LE(h.views_created(), 4u);
}

TEST(ReducerMax, FindsGlobalMax) {
  thread_pool pool(4);
  micg::rt::reducer_max<int> rmax(4, 0);
  micg::rt::omp_parallel_for(pool, 4, 10000,
                             {omp_schedule::dynamic, 64},
                             [&](std::int64_t b, std::int64_t e, int) {
                               for (std::int64_t i = b; i < e; ++i) {
                                 rmax.update(static_cast<int>((i * 37) % 9973));
                               }
                             });
  EXPECT_EQ(rmax.get(), 9972);  // 37 and 9973 coprime -> all residues hit
}

TEST(ReducerMax, IdentityWhenUntouched) {
  micg::rt::reducer_max<int> rmax(4, -5);
  EXPECT_EQ(rmax.get(), -5);
}

TEST(ReducerMax, ResetRestoresIdentity) {
  thread_pool pool(2);
  micg::rt::reducer_max<int> rmax(2, 0);
  pool.run(1, [&](int) { rmax.update(99); });
  EXPECT_EQ(rmax.get(), 99);
  rmax.reset();
  EXPECT_EQ(rmax.get(), 0);
}

// --------------------------------------------------------- edge partition

// Offsets of a pathological "one hub plus leaves" degree distribution:
// vertex 0 owns half of all edges. Templated on the offset type so both
// CSR edge-id widths exercise the binary search.
template <class EId>
std::vector<EId> hub_xadj(std::int64_t n) {
  std::vector<EId> xadj(static_cast<std::size_t>(n) + 1, 0);
  xadj[1] = static_cast<EId>(n - 1);  // the hub row
  for (std::int64_t v = 2; v <= n; ++v) {
    xadj[static_cast<std::size_t>(v)] =
        xadj[static_cast<std::size_t>(v) - 1] + 1;
  }
  return xadj;
}

template <class EId>
void expect_covers_exactly_once() {
  const std::int64_t n = 997;
  const auto xadj = hub_xadj<EId>(n);
  for (backend kind : micg::rt::all_backends()) {
    exec e;
    e.kind = kind;
    e.threads = 4;
    e.chunk = 50;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    for (auto& h : hits) h.store(0);
    micg::rt::for_range_edges(
        e, n, xadj.data(), [&](std::int64_t b, std::int64_t ed, int) {
          for (std::int64_t i = b; i < ed; ++i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1);
          }
        });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << micg::rt::backend_name(kind) << " vertex " << i;
    }
  }
}

TEST(EdgePartition, CoversEveryVertexExactlyOnceInt32) {
  expect_covers_exactly_once<std::int32_t>();
}

TEST(EdgePartition, CoversEveryVertexExactlyOnceInt64) {
  expect_covers_exactly_once<std::int64_t>();
}

TEST(EdgePartition, ChunksBalanceEdgesNotVertices) {
  const std::int64_t n = 1000;
  const auto xadj = hub_xadj<std::int64_t>(n);
  const std::int64_t total = xadj.back();
  exec e;
  e.threads = 1;
  e.chunk = 100;  // a vertex split would put the hub plus 99 rows together
  std::int64_t max_chunk_edges = 0;
  std::int64_t chunks = 0;
  micg::rt::for_range_edges(
      e, n, xadj.data(), [&](std::int64_t b, std::int64_t ed, int) {
        ++chunks;
        const std::int64_t edges = xadj[static_cast<std::size_t>(ed)] -
                                   xadj[static_cast<std::size_t>(b)];
        max_chunk_edges = std::max(max_chunk_edges, edges);
      });
  // 10 chunks over ~2n edges: every chunk stays near total/10 + one row.
  EXPECT_GE(chunks, 2);
  EXPECT_LE(max_chunk_edges, total / 10 + n);
  // The hub must not drag half the vertex range into its chunk: the
  // chunk holding vertex 0 ends long before vertex n/2.
  bool hub_seen = false;
  micg::rt::for_range_edges(
      e, n, xadj.data(), [&](std::int64_t b, std::int64_t ed, int) {
        if (b == 0) {
          hub_seen = true;
          EXPECT_LT(ed, n / 2);
        }
      });
  EXPECT_TRUE(hub_seen);
}

TEST(EdgePartition, HandlesZeroDegreeRunsAndEmptyGraphs) {
  // All-zero degrees: falls back to the vertex split but still covers
  // the range.
  const std::int64_t n = 65;
  std::vector<std::int64_t> xadj(static_cast<std::size_t>(n) + 1, 0);
  exec e;
  e.threads = 2;
  e.chunk = 8;
  std::atomic<std::int64_t> covered{0};
  micg::rt::for_range_edges(
      e, n, xadj.data(), [&](std::int64_t b, std::int64_t ed, int) {
        covered.fetch_add(ed - b);
      });
  EXPECT_EQ(covered.load(), n);
  micg::rt::for_range_edges(e, 0, xadj.data(),
                            [&](std::int64_t, std::int64_t, int) {
                              FAIL() << "empty range must not call body";
                            });
}

TEST(EdgePartition, VertexModeDispatchesToPlainForRange) {
  const std::int64_t n = 100;
  const auto xadj = hub_xadj<std::int64_t>(n);
  exec e;
  e.threads = 2;
  e.chunk = 10;
  std::atomic<std::int64_t> covered{0};
  micg::rt::for_range_graph(e, n, xadj.data(),
                            micg::rt::partition_mode::vertex,
                            [&](std::int64_t b, std::int64_t ed, int) {
                              covered.fetch_add(ed - b);
                            });
  EXPECT_EQ(covered.load(), n);
  EXPECT_STREQ(micg::rt::partition_mode_name(
                   micg::rt::partition_mode::vertex),
               "vertex");
  EXPECT_STREQ(
      micg::rt::partition_mode_name(micg::rt::partition_mode::edge),
      "edge");
}

}  // namespace
