// Tests for parallel scan, the fixed-block deterministic sum, the
// compacting frontier (the paper's rejected alternative, §IV-C), and a
// validation of the scheduling model against the real schedulers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "micg/bfs/compact_frontier.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/suite.hpp"
#include "micg/model/machine.hpp"
#include "micg/model/sched_model.hpp"
#include "micg/rt/loop.hpp"
#include "micg/rt/reduce.hpp"
#include "micg/rt/scan.hpp"
#include "micg/rt/thread_pool.hpp"
#include "micg/support/cacheline.hpp"
#include "micg/support/rng.hpp"

namespace {

using micg::rt::backend;
using micg::rt::exec;

exec make_exec(backend b, int threads, std::int64_t chunk = 64) {
  exec e;
  e.kind = b;
  e.threads = threads;
  e.chunk = chunk;
  return e;
}

// --------------------------------------------------------------------- scan

class ScanBackend : public ::testing::TestWithParam<backend> {};

TEST_P(ScanBackend, MatchesSequentialScan) {
  micg::xoshiro256ss rng(5);
  for (std::size_t n : {0u, 1u, 7u, 100u, 4097u, 50000u}) {
    std::vector<std::int64_t> values(n);
    for (auto& v : values) v = static_cast<std::int64_t>(rng.below(100));
    std::vector<std::int64_t> expect(values);
    std::int64_t total = 0;
    for (auto& v : expect) {
      const auto x = v;
      v = total;
      total += x;
    }
    auto parallel = values;
    const auto ptotal = micg::rt::parallel_exclusive_scan(
        make_exec(GetParam(), 4, 128), parallel);
    EXPECT_EQ(parallel, expect) << "n=" << n;
    EXPECT_EQ(ptotal, total) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ScanBackend,
                         ::testing::Values(backend::omp_dynamic,
                                           backend::omp_static,
                                           backend::cilk_holder,
                                           backend::tbb_simple),
                         [](const auto& info) {
                           std::string n =
                               micg::rt::backend_name(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Scan, DoubleValuesWork) {
  std::vector<double> v{0.5, 1.5, 2.0, 4.0};
  const double total = micg::rt::parallel_exclusive_scan(
      make_exec(backend::omp_dynamic, 2, 2), v);
  EXPECT_DOUBLE_EQ(total, 8.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[3], 4.0);
}

// -------------------------------------------------------- deterministic sum

constexpr std::int64_t kBlock = micg::rt::deterministic_sum_block;
constexpr std::int64_t kSumSizes[] = {0,          1,          kBlock - 1,
                                      kBlock,     kBlock + 1, 9 * kBlock + 17};
constexpr backend kSumBackends[] = {backend::omp_static, backend::omp_dynamic,
                                    backend::cilk_holder, backend::tbb_auto};

/// Terms spanning forty binary orders of magnitude, both signs, so any
/// regrouping of the additions moves low bits.
std::vector<double> sum_terms(std::int64_t n, std::uint64_t seed) {
  micg::xoshiro256ss rng(seed);
  std::vector<double> t(static_cast<std::size_t>(n));
  for (auto& x : t) {
    const int exponent = static_cast<int>(rng.below(40));
    x = (rng.uniform() - 0.5) * std::ldexp(1.0, exponent);
  }
  return t;
}

/// Serial reference: sequential sums within fixed blocks, combined in
/// block order.
double blockwise_sum(const std::vector<double>& t) {
  const auto n = static_cast<std::int64_t>(t.size());
  double total = 0.0;
  for (std::int64_t lo = 0; lo < n; lo += kBlock) {
    double s = 0.0;
    for (std::int64_t i = lo; i < std::min(n, lo + kBlock); ++i) {
      s += t[static_cast<std::size_t>(i)];
    }
    total += s;
  }
  return total;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(DeterministicSum, VisitsEachIndexExactlyOnce) {
  for (const std::int64_t n : kSumSizes) {
    for (const backend b : kSumBackends) {
      std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
      const auto sum = micg::rt::deterministic_sum<1>(
          make_exec(b, 4), n, [&](std::int64_t i) {
            visits[static_cast<std::size_t>(i)].fetch_add(
                1, std::memory_order_relaxed);
            return std::array{1.0};
          });
      EXPECT_EQ(sum[0], static_cast<double>(n));
      std::int64_t wrong = 0;
      for (const auto& v : visits) wrong += v.load() != 1 ? 1 : 0;
      EXPECT_EQ(wrong, 0) << micg::rt::backend_name(b) << " n=" << n;
    }
  }
}

TEST(DeterministicSum, MatchesSerialBlockwiseBits) {
  const std::int64_t chunks[] = {1, 64, std::int64_t{1} << 20};
  for (const std::int64_t n : kSumSizes) {
    // Several seeds: for a single draw, another combine order can round
    // to the same total by chance.
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const auto t = sum_terms(n, seed);
      const double ref = blockwise_sum(t);
      for (const backend b : kSumBackends) {
        for (const int threads : {1, 4}) {
          for (const std::int64_t chunk : chunks) {
            const auto sum = micg::rt::deterministic_sum<1>(
                make_exec(b, threads, chunk), n, [&](std::int64_t i) {
                  return std::array{t[static_cast<std::size_t>(i)]};
                });
            EXPECT_EQ(bits(sum[0]), bits(ref))
                << micg::rt::backend_name(b) << " T=" << threads
                << " chunk=" << chunk << " n=" << n << " seed=" << seed;
          }
        }
      }
    }
  }
}

TEST(DeterministicSum, FusedSweepEqualsSingleSweeps) {
  for (const std::int64_t n : kSumSizes) {
    const auto a = sum_terms(n, 5);
    const auto c = sum_terms(n, 6);
    const exec e = make_exec(backend::omp_dynamic, 4);
    const auto single = [&](const std::vector<double>& t) {
      return micg::rt::deterministic_sum<1>(e, n, [&](std::int64_t i) {
        return std::array{t[static_cast<std::size_t>(i)]};
      })[0];
    };
    const auto [sa, sc] =
        micg::rt::deterministic_sum<2>(e, n, [&](std::int64_t i) {
          const auto j = static_cast<std::size_t>(i);
          return std::array{a[j], c[j]};
        });
    EXPECT_EQ(bits(sa), bits(single(a))) << "n=" << n;
    EXPECT_EQ(bits(sc), bits(single(c))) << "n=" << n;
  }
}

// --------------------------------------------------------- compact frontier

TEST(CompactFrontier, CompactionIsDenseAndComplete) {
  micg::rt::thread_pool pool(4);
  micg::bfs::compact_frontier f(4);
  pool.run(4, [&](int w) {
    for (int i = 0; i < 100 * (w + 1); ++i) {
      f.push(w, w * 1000 + i);
    }
  });
  EXPECT_EQ(f.total_size(), 100u + 200u + 300u + 400u);
  const auto out = f.compact(make_exec(backend::omp_dynamic, 4));
  EXPECT_EQ(out.size(), 1000u);
  // Worker segments appear contiguously in worker order.
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[100], 1000);
  EXPECT_EQ(out[300], 2000);
  EXPECT_EQ(out[600], 3000);
  // Frontier reusable afterwards.
  EXPECT_EQ(f.total_size(), 0u);
}

TEST(CompactBfs, MatchesSequentialLevels) {
  const struct {
    micg::graph::csr_graph g;
    micg::graph::vertex_t source;
  } cases[] = {
      {micg::graph::make_grid_2d(30, 30), 17},
      {micg::graph::make_rmat(11, 8, 0.57, 0.19, 0.19, 5), 1},
      {micg::graph::make_suite_graph(
           micg::graph::suite_entry_by_name("hood"), 0.01),
       100},
  };
  for (const auto& c : cases) {
    micg::graph::vertex_t src = c.source;
    while (c.g.degree(src) == 0) ++src;
    const auto ref = micg::bfs::seq_bfs(c.g, src);
    micg::bfs::compact_bfs_options opt;
    opt.ex.threads = 4;
    const auto r = micg::bfs::parallel_bfs_compact(c.g, src, opt);
    EXPECT_EQ(r.level, ref.level);
    EXPECT_EQ(r.num_levels, ref.num_levels);
    EXPECT_EQ(r.reached, ref.reached);
  }
}

// --------------------------------------- scheduling model vs real scheduler

TEST(SchedModelValidation, StaticAssignmentMatchesRealScheduler) {
  // The model's omp_static split must equal the real scheduler's: count
  // real items per worker and compare against assign_step's item counts.
  constexpr int kThreads = 5;
  constexpr std::int64_t kN = 1234;
  micg::rt::thread_pool pool(kThreads);
  std::vector<micg::padded<std::int64_t>> real_items(kThreads);
  micg::rt::omp_parallel_for(pool, kThreads, kN,
                             {micg::rt::omp_schedule::static_even, 1},
                             [&](std::int64_t b, std::int64_t e, int w) {
                               real_items[static_cast<std::size_t>(w)]
                                   .value += e - b;
                             });

  micg::model::parallel_step step;
  step.items.assign(kN, micg::model::work_item{1.0, 0.0, 0.0});
  auto m = micg::model::machine_config::knf();
  m.thread_jitter = 0.0;  // compare raw assignment, not noise
  const auto loads = micg::model::assign_step(
      step, backend::omp_static, kThreads, 1, m);
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_DOUBLE_EQ(loads[static_cast<std::size_t>(w)].cpu_ops,
                     static_cast<double>(
                         real_items[static_cast<std::size_t>(w)].value))
        << "worker " << w;
  }
}

TEST(SchedModelValidation, ChunkedAssignmentMatchesRealScheduler) {
  constexpr int kThreads = 4;
  constexpr std::int64_t kN = 1000;
  constexpr std::int64_t kChunk = 64;
  micg::rt::thread_pool pool(kThreads);
  std::vector<micg::padded<std::int64_t>> real_items(kThreads);
  micg::rt::omp_parallel_for(pool, kThreads, kN,
                             {micg::rt::omp_schedule::static_chunked,
                              kChunk},
                             [&](std::int64_t b, std::int64_t e, int w) {
                               real_items[static_cast<std::size_t>(w)]
                                   .value += e - b;
                             });
  micg::model::parallel_step step;
  step.items.assign(kN, micg::model::work_item{1.0, 0.0, 0.0});
  auto m = micg::model::machine_config::knf();
  m.thread_jitter = 0.0;
  const auto loads = micg::model::assign_step(
      step, backend::omp_static_chunked, kThreads, kChunk, m);
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_DOUBLE_EQ(loads[static_cast<std::size_t>(w)].cpu_ops,
                     static_cast<double>(
                         real_items[static_cast<std::size_t>(w)].value))
        << "worker " << w;
  }
}

TEST(SchedModelValidation, DynamicConservesItemsLikeRealScheduler) {
  constexpr int kThreads = 6;
  constexpr std::int64_t kN = 5000;
  micg::model::parallel_step step;
  step.items.assign(kN, micg::model::work_item{1.0, 0.0, 0.0});
  const auto m = micg::model::machine_config::knf();
  const auto loads = micg::model::assign_step(
      step, backend::omp_dynamic, kThreads, 64, m);
  double total = 0.0;
  for (const auto& ld : loads) total += ld.cpu_ops;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(kN));
}

}  // namespace
