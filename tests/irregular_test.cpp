// Tests for the irregular-computation module: Algorithm 5 kernel (both
// modes), PageRank, heat diffusion, SpMV.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "micg/graph/builder.hpp"
#include "micg/graph/csr.hpp"
#include "micg/graph/generators.hpp"
#include "micg/rt/edge_partition.hpp"
#include "micg/irregular/heat.hpp"
#include "micg/irregular/kernel.hpp"
#include "micg/irregular/pagerank.hpp"
#include "micg/irregular/spmv.hpp"
#include "micg/rt/reduce.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/rng.hpp"

namespace {

using micg::graph::csr_graph;
using micg::graph::vertex_t;
using micg::rt::backend;

std::vector<double> random_state(vertex_t n, std::uint64_t seed) {
  micg::xoshiro256ss rng(seed);
  std::vector<double> s(static_cast<std::size_t>(n));
  for (auto& x : s) x = rng.uniform() * 100.0;
  return s;
}

// ------------------------------------------------------------------ kernel

TEST(Kernel, SingleThreadInPlaceMatchesSequential) {
  auto g = micg::graph::make_grid_2d(20, 20);
  const auto state = random_state(g.num_vertices(), 1);
  micg::irregular::kernel_options opt;
  opt.ex.kind = backend::omp_static;
  opt.ex.threads = 1;
  opt.ex.chunk = 1 << 30;  // single chunk: exact natural order
  opt.iterations = 3;
  const auto par = micg::irregular::irregular_kernel(g, state, opt);
  const auto seq = micg::irregular::irregular_kernel_seq(g, state, 3);
  EXPECT_EQ(par, seq);
}

class KernelBackend : public ::testing::TestWithParam<backend> {};

TEST_P(KernelBackend, ConvexityBoundsHold) {
  // Every update is a convex combination of current states, so the state
  // stays within the initial [min, max] under any interleaving.
  auto g = micg::graph::make_erdos_renyi(2000, 8.0, 3);
  const auto state = random_state(g.num_vertices(), 2);
  const auto [mn, mx] = std::minmax_element(state.begin(), state.end());
  micg::irregular::kernel_options opt;
  opt.ex.kind = GetParam();
  opt.ex.threads = 4;
  opt.ex.chunk = 64;
  opt.iterations = 5;
  const auto out = micg::irregular::irregular_kernel(g, state, opt);
  for (double x : out) {
    EXPECT_GE(x, *mn - 1e-12);
    EXPECT_LE(x, *mx + 1e-12);
  }
}

TEST_P(KernelBackend, JacobiModeIsDeterministicAcrossThreads) {
  auto g = micg::graph::make_grid_2d(30, 30);
  const auto state = random_state(g.num_vertices(), 7);
  micg::irregular::kernel_options opt;
  opt.ex.kind = GetParam();
  opt.ex.chunk = 32;
  opt.iterations = 2;
  opt.mode = micg::irregular::kernel_mode::jacobi;
  opt.ex.threads = 1;
  const auto one = micg::irregular::irregular_kernel(g, state, opt);
  opt.ex.threads = 8;
  const auto eight = micg::irregular::irregular_kernel(g, state, opt);
  EXPECT_EQ(one, eight);
}

INSTANTIATE_TEST_SUITE_P(Backends, KernelBackend,
                         ::testing::Values(backend::omp_dynamic,
                                           backend::omp_guided,
                                           backend::cilk_holder,
                                           backend::tbb_simple,
                                           backend::tbb_affinity),
                         [](const auto& info) {
                           std::string n =
                               micg::rt::backend_name(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Kernel, IterationsAmplifyComputationNotResultScale) {
  // More iterations smooth harder but never escape the convex hull.
  auto g = micg::graph::make_cycle(50);
  std::vector<double> state(50, 0.0);
  state[0] = 50.0;
  micg::irregular::kernel_options opt;
  opt.ex.threads = 1;
  opt.iterations = 10;
  const auto out = micg::irregular::irregular_kernel(g, state, opt);
  const double total_before =
      std::accumulate(state.begin(), state.end(), 0.0);
  for (double x : out) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 50.0);
  }
  // Averaging does not conserve the sum but stays bounded by it here
  // (single spike smears outward).
  const double total_after = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_LE(total_after, total_before + 1e-9);
}

TEST(Kernel, RejectsBadOptions) {
  auto g = micg::graph::make_chain(4);
  std::vector<double> state(4, 1.0);
  micg::irregular::kernel_options opt;
  opt.iterations = 0;
  EXPECT_THROW(micg::irregular::irregular_kernel(g, state, opt),
               micg::check_error);
  opt.iterations = 1;
  std::vector<double> short_state(2, 1.0);
  EXPECT_THROW(micg::irregular::irregular_kernel(g, short_state, opt),
               micg::check_error);
}

// ---------------------------------------------------------------- pagerank

TEST(Pagerank, SumsToOneAndConverges) {
  auto g = micg::graph::make_erdos_renyi(1000, 10.0, 21);
  micg::irregular::pagerank_options opt;
  opt.ex.kind = backend::omp_dynamic;
  opt.ex.threads = 4;
  const auto r = micg::irregular::pagerank(g, opt);
  EXPECT_TRUE(r.converged);
  const double total =
      std::accumulate(r.rank.begin(), r.rank.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  for (double x : r.rank) EXPECT_GT(x, 0.0);
}

TEST(Pagerank, RegularGraphIsUniform) {
  auto g = micg::graph::make_cycle(100);  // 2-regular
  micg::irregular::pagerank_options opt;
  opt.ex.threads = 2;
  const auto r = micg::irregular::pagerank(g, opt);
  for (double x : r.rank) EXPECT_NEAR(x, 0.01, 1e-9);
}

TEST(Pagerank, HubOutranksLeaves) {
  auto g = micg::graph::make_star(50);
  micg::irregular::pagerank_options opt;
  opt.ex.threads = 2;
  const auto r = micg::irregular::pagerank(g, opt);
  for (std::size_t v = 1; v < r.rank.size(); ++v) {
    EXPECT_GT(r.rank[0], r.rank[v]);
  }
}

TEST(Pagerank, HandlesIsolatedVertices) {
  micg::graph::graph_builder b(4);
  b.add_edge(0, 1);
  auto g = std::move(b).build();  // 2 and 3 isolated (dangling)
  micg::irregular::pagerank_options opt;
  opt.ex.threads = 2;
  const auto r = micg::irregular::pagerank(g, opt);
  const double total =
      std::accumulate(r.rank.begin(), r.rank.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(Pagerank, DeterministicAcrossThreadCounts) {
  // 10000 vertices: three deterministic_sum blocks, the last one partial,
  // and at average degree 3 about 5% of the vertices are isolated, so the
  // dangling mass crosses block boundaries too.
  const auto g = micg::graph::make_erdos_renyi(10000, 3.0, 13);
  ASSERT_GT(g.num_vertices(), 2 * micg::rt::deterministic_sum_block);
  micg::irregular::pagerank_options opt;
  opt.tolerance = 1e-5;  // 39 iterations instead of 76 at the default
  opt.ex.kind = backend::omp_static;
  opt.ex.threads = 1;
  const auto ref = micg::irregular::pagerank(g, opt);
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, 1);
  for (const auto kind : {backend::omp_static, backend::omp_dynamic,
                          backend::tbb_auto, backend::cilk_holder}) {
    for (const int threads : {1, 2, 4}) {
      for (const std::int64_t chunk : {std::int64_t{1}, std::int64_t{64},
                                       std::int64_t{1} << 20}) {
        opt.ex.kind = kind;
        opt.ex.threads = threads;
        opt.ex.chunk = chunk;
        const auto r = micg::irregular::pagerank(g, opt);
        const std::string where = std::string(micg::rt::backend_name(kind)) +
                                  " T=" + std::to_string(threads) +
                                  " chunk=" + std::to_string(chunk);
        EXPECT_EQ(r.rank, ref.rank) << where;
        EXPECT_EQ(r.final_delta, ref.final_delta) << where;
        EXPECT_EQ(r.iterations, ref.iterations) << where;
      }
    }
  }
}

/// FNV-1a over the IEEE-754 bit patterns, least significant byte first.
std::uint64_t fnv1a_bits(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double x : values) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// Pins the exact output, not just its invariance: a change to how the
// reductions group their terms (block size, combine order, fusing sweeps)
// moves these bits even when every thread count still agrees.
TEST(Pagerank, OutputBitsArePinned) {
  const auto g = micg::graph::make_rmat(15, 8, 0.57, 0.19, 0.19, 3);
  ASSERT_EQ(g.num_vertices(), 8 * micg::rt::deterministic_sum_block);
  std::int64_t isolated = 0;
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(static_cast<vertex_t>(v)) == 0) ++isolated;
  }
  ASSERT_GT(isolated, 0);
  micg::irregular::pagerank_options opt;
  opt.ex.threads = 1;
  const auto r = micg::irregular::pagerank(g, opt);
  EXPECT_EQ(fnv1a_bits(r.rank), 1648846117868852987ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.final_delta),
            4486827260499427840ULL);
  EXPECT_EQ(r.iterations, 30);
  EXPECT_TRUE(r.converged);
}

// -------------------------------------------------------------------- heat

TEST(Heat, ConservesTotalHeat) {
  auto g = micg::graph::make_grid_2d(25, 25);
  auto state = random_state(g.num_vertices(), 5);
  const double before =
      std::accumulate(state.begin(), state.end(), 0.0);
  micg::irregular::heat_options opt;
  opt.ex.threads = 4;
  opt.alpha = 0.1;
  opt.steps = 20;
  const auto out = micg::irregular::heat_diffusion(g, state, opt);
  const double after = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(after, before, 1e-6 * std::abs(before));
}

TEST(Heat, ConvergesToUniform) {
  auto g = micg::graph::make_complete(16);
  std::vector<double> state(16, 0.0);
  state[0] = 16.0;
  micg::irregular::heat_options opt;
  opt.ex.threads = 2;
  opt.alpha = 0.05;  // Delta = 15, stable
  opt.steps = 500;
  const auto out = micg::irregular::heat_diffusion(g, state, opt);
  for (double x : out) EXPECT_NEAR(x, 1.0, 1e-3);
}

TEST(Heat, ZeroStepsIsIdentity) {
  auto g = micg::graph::make_chain(8);
  const auto state = random_state(8, 9);
  micg::irregular::heat_options opt;
  opt.steps = 0;
  const auto out = micg::irregular::heat_diffusion(g, state, opt);
  EXPECT_EQ(out, state);
}

// -------------------------------------------------------------------- spmv

TEST(Spmv, MatchesDenseReference) {
  auto g = micg::graph::make_erdos_renyi(64, 6.0, 13);
  const auto x = random_state(64, 11);
  micg::rt::exec ex;
  ex.kind = backend::omp_dynamic;
  ex.threads = 4;
  ex.chunk = 8;
  const auto y = micg::irregular::spmv(g, x, ex);
  // Dense reference.
  for (vertex_t v = 0; v < 64; ++v) {
    double expect = 0.0;
    for (vertex_t w : g.neighbors(v)) {
      expect += x[static_cast<std::size_t>(w)];
    }
    EXPECT_NEAR(y[static_cast<std::size_t>(v)], expect, 1e-9);
  }
}

TEST(Spmv, RandomWalkMatrixRowsAverage) {
  auto g = micg::graph::make_star(5);
  std::vector<double> x{0.0, 1.0, 2.0, 3.0, 4.0};
  micg::rt::exec ex;
  ex.threads = 1;
  const auto y = micg::irregular::spmv(
      g, x, ex, micg::irregular::spmv_matrix::random_walk);
  EXPECT_NEAR(y[0], (1.0 + 2.0 + 3.0 + 4.0) / 4.0, 1e-12);
  EXPECT_NEAR(y[1], 0.0, 1e-12);  // leaf sees only the center
}

// ------------------------------------------------- fast-path knob parity
//
// The whole point of the striped gather_sum design is that flipping any
// memory-hierarchy knob (SIMD, partitioning) changes performance only:
// results must be *bit-identical*, on every CSR layout.

const std::vector<micg::rt::mem_opts>& knob_grid() {
  static std::vector<micg::rt::mem_opts> grid = [] {
    std::vector<micg::rt::mem_opts> g;
    for (bool simd : {false, true}) {
      for (auto part : {micg::rt::partition_mode::vertex,
                        micg::rt::partition_mode::edge}) {
        g.push_back({.partition = part, .simd = simd});
      }
    }
    return g;
  }();
  return grid;
}

std::string knob_label(const micg::rt::mem_opts& m) {
  return std::string(micg::rt::partition_mode_name(m.partition)) +
         (m.simd ? "/simd" : "/scalar");
}

TEST(Spmv, KnobsAreBitIdenticalAcrossLayouts) {
  const auto g = micg::graph::make_rmat(10, 8, 0.57, 0.19, 0.19, 99);
  const auto x = random_state(g.num_vertices(), 31);
  const auto g32 = micg::graph::convert_csr<micg::graph::csr32>(g);
  const auto g64 = micg::graph::convert_csr<micg::graph::csr64>(g);
  for (auto matrix : {micg::irregular::spmv_matrix::adjacency,
                      micg::irregular::spmv_matrix::random_walk}) {
    micg::irregular::spmv_options base;
    base.ex.kind = backend::omp_dynamic;
    base.ex.threads = 4;
    base.ex.chunk = 32;
    base.matrix = matrix;
    base.mem = micg::rt::scalar_mem_opts();
    const auto ref = micg::irregular::spmv(g, x, base);
    for (const auto& mem : knob_grid()) {
      auto opt = base;
      opt.mem = mem;
      EXPECT_EQ(micg::irregular::spmv(g, x, opt), ref) << knob_label(mem);
      EXPECT_EQ(micg::irregular::spmv(g32, x, opt), ref)
          << "csr32 " << knob_label(mem);
      EXPECT_EQ(micg::irregular::spmv(g64, x, opt), ref)
          << "csr64 " << knob_label(mem);
    }
  }
}

TEST(Spmv, LegacyOverloadUsesFastDefaults) {
  const auto g = micg::graph::make_erdos_renyi(500, 8.0, 17);
  const auto x = random_state(g.num_vertices(), 23);
  micg::rt::exec ex;
  ex.threads = 2;
  micg::irregular::spmv_options opt;
  opt.ex = ex;
  EXPECT_EQ(micg::irregular::spmv(g, x, ex),
            micg::irregular::spmv(g, x, opt));
}

TEST(Pagerank, KnobsAreBitIdenticalAcrossLayouts) {
  const auto g = micg::graph::make_rmat(10, 8, 0.57, 0.19, 0.19, 5);
  const auto g32 = micg::graph::convert_csr<micg::graph::csr32>(g);
  const auto g64 = micg::graph::convert_csr<micg::graph::csr64>(g);
  micg::irregular::pagerank_options base;
  base.ex.kind = backend::tbb_auto;
  base.ex.threads = 4;
  base.max_iterations = 30;
  base.mem = micg::rt::scalar_mem_opts();
  const auto ref = micg::irregular::pagerank(g, base);
  for (const auto& mem : knob_grid()) {
    auto opt = base;
    opt.mem = mem;
    const auto r = micg::irregular::pagerank(g, opt);
    EXPECT_EQ(r.rank, ref.rank) << knob_label(mem);
    EXPECT_EQ(r.iterations, ref.iterations) << knob_label(mem);
    EXPECT_EQ(micg::irregular::pagerank(g32, opt).rank, ref.rank)
        << "csr32 " << knob_label(mem);
    EXPECT_EQ(micg::irregular::pagerank(g64, opt).rank, ref.rank)
        << "csr64 " << knob_label(mem);
  }
}

TEST(Heat, KnobsAreBitIdentical) {
  const auto g = micg::graph::make_rmat(9, 8, 0.45, 0.22, 0.22, 7);
  const auto state = random_state(g.num_vertices(), 41);
  micg::irregular::heat_options base;
  base.ex.threads = 4;
  base.alpha = 0.001;
  base.steps = 5;
  base.mem = micg::rt::scalar_mem_opts();
  const auto ref = micg::irregular::heat_diffusion(g, state, base);
  for (const auto& mem : knob_grid()) {
    auto opt = base;
    opt.mem = mem;
    EXPECT_EQ(micg::irregular::heat_diffusion(g, state, opt), ref)
        << knob_label(mem);
  }
}

TEST(Kernel, JacobiKnobsAreBitIdentical) {
  const auto g = micg::graph::make_rmat(9, 8, 0.57, 0.19, 0.19, 3);
  const auto state = random_state(g.num_vertices(), 43);
  micg::irregular::kernel_options base;
  base.ex.threads = 4;
  base.iterations = 3;
  base.mode = micg::irregular::kernel_mode::jacobi;
  base.mem = micg::rt::scalar_mem_opts();
  const auto ref = micg::irregular::irregular_kernel(g, state, base);
  for (const auto& mem : knob_grid()) {
    auto opt = base;
    opt.mem = mem;
    EXPECT_EQ(micg::irregular::irregular_kernel(g, state, opt), ref)
        << knob_label(mem);
  }
}

TEST(Spmv, ConsistentAcrossBackends) {
  auto g = micg::graph::make_grid_2d(12, 12);
  const auto x = random_state(g.num_vertices(), 3);
  micg::rt::exec a;
  a.kind = backend::omp_static;
  a.threads = 1;
  const auto ya = micg::irregular::spmv(g, x, a);
  for (backend b : micg::rt::all_backends()) {
    micg::rt::exec e;
    e.kind = b;
    e.threads = 4;
    e.chunk = 16;
    const auto yb = micg::irregular::spmv(g, x, e);
    ASSERT_EQ(ya.size(), yb.size());
    for (std::size_t i = 0; i < ya.size(); ++i) {
      ASSERT_NEAR(ya[i], yb[i], 1e-12) << micg::rt::backend_name(b);
    }
  }
}

}  // namespace
