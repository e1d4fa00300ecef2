// Tests for the second extension batch: parallel connected components and
// Jones-Plassmann coloring.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "micg/color/iterative.hpp"
#include "micg/color/jones_plassmann.hpp"
#include "micg/color/verify.hpp"
#include "micg/graph/builder.hpp"
#include "micg/graph/components.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/suite.hpp"

namespace {

using micg::graph::csr_graph;
using micg::graph::vertex_t;
using micg::rt::backend;

// ---------------------------------------------------------------- components

micg::rt::exec exec4(backend b = backend::omp_dynamic) {
  micg::rt::exec e;
  e.kind = b;
  e.threads = 4;
  e.chunk = 64;
  return e;
}

TEST(Components, MatchesSequentialCount) {
  micg::graph::graph_builder b(10);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(4, 5);
  b.add_edge(7, 8);
  auto g = std::move(b).build();
  const auto r = micg::graph::parallel_components(g, exec4());
  // {0,1,2} {3} {4,5} {6} {7,8} {9} -> 6 components.
  EXPECT_EQ(r.num_components, 6);
  EXPECT_EQ(r.num_components, micg::graph::count_components(g));
}

TEST(Components, LabelsAreCanonicalMinima) {
  micg::graph::graph_builder b(6);
  b.add_edge(5, 3);
  b.add_edge(3, 4);
  b.add_edge(0, 2);
  auto g = std::move(b).build();
  const auto r = micg::graph::parallel_components(g, exec4());
  EXPECT_EQ(r.label[5], 3);
  EXPECT_EQ(r.label[4], 3);
  EXPECT_EQ(r.label[3], 3);
  EXPECT_EQ(r.label[0], 0);
  EXPECT_EQ(r.label[2], 0);
  EXPECT_EQ(r.label[1], 1);
}

TEST(Components, LabelsRespectEdges) {
  auto g = micg::graph::make_erdos_renyi(2000, 1.5, 11);  // fragmented
  const auto r = micg::graph::parallel_components(g, exec4());
  EXPECT_EQ(r.num_components, micg::graph::count_components(g));
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (vertex_t w : g.neighbors(v)) {
      ASSERT_EQ(r.label[static_cast<std::size_t>(v)],
                r.label[static_cast<std::size_t>(w)]);
    }
  }
}

TEST(Components, ChainConvergesByPointerJumping) {
  auto g = micg::graph::make_chain(4096);
  const auto r = micg::graph::parallel_components(g, exec4());
  EXPECT_EQ(r.num_components, 1);
  // Afforest makes a fixed number of link passes, far below n.
  EXPECT_LT(r.rounds, 64);
}

TEST(Components, WorksAcrossBackends) {
  auto g = micg::graph::make_suite_graph(
      micg::graph::suite_entry_by_name("auto"), 0.01);
  for (backend b : {backend::omp_static, backend::cilk_holder,
                    backend::tbb_simple}) {
    const auto r = micg::graph::parallel_components(g, exec4(b));
    EXPECT_EQ(r.num_components, 1) << micg::rt::backend_name(b);
  }
}

/// Sequential reference: every vertex labeled with the smallest id in its
/// component (a traversal from each unlabeled vertex in increasing order).
std::vector<vertex_t> canonical_min_labels(const csr_graph& g) {
  const vertex_t n = g.num_vertices();
  std::vector<vertex_t> label(static_cast<std::size_t>(n), -1);
  std::vector<vertex_t> stack;
  for (vertex_t root = 0; root < n; ++root) {
    if (label[static_cast<std::size_t>(root)] >= 0) continue;
    label[static_cast<std::size_t>(root)] = root;
    stack.push_back(root);
    while (!stack.empty()) {
      const vertex_t v = stack.back();
      stack.pop_back();
      for (vertex_t w : g.neighbors(v)) {
        if (label[static_cast<std::size_t>(w)] < 0) {
          label[static_cast<std::size_t>(w)] = root;
          stack.push_back(w);
        }
      }
    }
  }
  return label;
}

/// Labels equal the reference, and labels and rounds are the same over
/// threads x backend x chunk.
void expect_canonical_everywhere(const csr_graph& g) {
  const auto ref = canonical_min_labels(g);
  vertex_t expected = 0;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    if (ref[v] == static_cast<vertex_t>(v)) ++expected;
  }
  int rounds = -1;
  for (const int threads : {1, 2, 4}) {
    for (const backend b : {backend::omp_static, backend::omp_dynamic,
                            backend::cilk_holder, backend::tbb_simple}) {
      for (const std::int64_t chunk : {std::int64_t{1}, std::int64_t{64},
                                       std::int64_t{1} << 20}) {
        SCOPED_TRACE(std::string(micg::rt::backend_name(b)) + " threads=" +
                     std::to_string(threads) +
                     " chunk=" + std::to_string(chunk));
        micg::rt::exec ex;
        ex.kind = b;
        ex.threads = threads;
        ex.chunk = chunk;
        const auto r = micg::graph::parallel_components(g, ex);
        ASSERT_EQ(r.label, ref);
        EXPECT_EQ(r.num_components, expected);
        if (rounds < 0) rounds = r.rounds;
        EXPECT_EQ(r.rounds, rounds);
      }
    }
  }
}

TEST(Components, StarWithHubAtTheHighestId) {
  // Every leaf's first sampled neighbor is the hub, which is the root
  // that must end up under leaf 0.
  constexpr vertex_t n = 5000;
  micg::graph::graph_builder b(n);
  for (vertex_t v = 0; v + 1 < n; ++v) b.add_edge(v, n - 1);
  expect_canonical_everywhere(std::move(b).build());
}

TEST(Components, PathWithDescendingIds) {
  // Walked from its start, the path visits n-1, n-2, ..., 0: the minimum
  // sits at the far end from the start.
  constexpr vertex_t n = 20000;
  micg::graph::graph_builder b(n);
  for (vertex_t v = n - 1; v > 0; --v) b.add_edge(v, v - 1);
  expect_canonical_everywhere(std::move(b).build());
}

TEST(Components, MostlyIsolatedWithOneThousandVertexComponent) {
  // 199,000 isolated vertices and one 1,000-vertex component that the
  // two sampled neighbors leave in pieces: 333 triangles {x, y, z}
  // whose two smallest neighbors are in the triangle, joined only by
  // z_k - z_{k+1} edges at adjacency slot 2 or later, plus a pendant.
  // With the kernel's fixed sample, the vote lands on an isolated
  // vertex, so the skip covers no edge, and every joining edge must come
  // from the final pass.
  constexpr vertex_t n = 200000;
  constexpr vertex_t stride = n / 1000;  // spread ids, keep their order
  constexpr vertex_t kTriangles = 333;
  micg::graph::graph_builder b(n);
  const auto id = [](vertex_t local) { return local * stride + 7; };
  const auto z = [&](vertex_t k) { return id(2 * kTriangles + k); };
  for (vertex_t k = 0; k < kTriangles; ++k) {
    b.add_edge(id(2 * k), id(2 * k + 1));
    b.add_edge(id(2 * k), z(k));
    b.add_edge(id(2 * k + 1), z(k));
    if (k + 1 < kTriangles) b.add_edge(z(k), z(k + 1));
  }
  b.add_edge(z(kTriangles - 1), id(999));
  const auto g = std::move(b).build();
  ASSERT_EQ(micg::graph::count_components(g), n - 999);
  expect_canonical_everywhere(g);
}

TEST(Components, TwoEqualHalves) {
  // Even ids form one component and odd ids the other, the same shape:
  // the vote for the giant is a near tie.
  constexpr vertex_t half = 5000;
  micg::graph::graph_builder b(2 * half);
  for (vertex_t k = 0; k < half; ++k) {
    for (const vertex_t step : {1, 37, 1000}) {
      const vertex_t other = (k + step) % half;
      b.add_edge(2 * k, 2 * other);
      b.add_edge(2 * k + 1, 2 * other + 1);
    }
  }
  const auto g = std::move(b).build();
  ASSERT_EQ(micg::graph::count_components(g), 2);
  expect_canonical_everywhere(g);
}

// ------------------------------------------------------------ jones-plassmann

TEST(JonesPlassmann, ValidColoringNoConflictsEver) {
  auto g = micg::graph::make_erdos_renyi(3000, 10.0, 42);
  micg::color::jp_options opt;
  opt.ex = exec4();
  const auto r = micg::color::jones_plassmann_color(g, opt);
  EXPECT_TRUE(micg::color::is_valid_coloring(g, r.color));
  for (auto c : r.conflicts_per_round) EXPECT_EQ(c, 0u);
  EXPECT_LE(r.num_colors, static_cast<int>(g.max_degree()) + 1);
}

TEST(JonesPlassmann, MoreRoundsThanIterative) {
  // The trade-off the ablation quantifies: JP needs many priority rounds;
  // speculation needs very few repair rounds.
  auto g = micg::graph::make_suite_graph(
      micg::graph::suite_entry_by_name("hood"), 0.01);
  micg::color::jp_options jp;
  jp.ex = exec4();
  const auto rjp = micg::color::jones_plassmann_color(g, jp);
  micg::color::iterative_options it;
  it.ex = exec4();
  const auto rit = micg::color::iterative_color(g, it);
  EXPECT_TRUE(micg::color::is_valid_coloring(g, rjp.color));
  EXPECT_GT(rjp.rounds, rit.rounds);
}

TEST(JonesPlassmann, DeterministicPerSeed) {
  auto g = micg::graph::make_grid_2d(20, 20);
  micg::color::jp_options opt;
  opt.ex = exec4();
  opt.ex.threads = 1;  // single thread: fully deterministic
  const auto a = micg::color::jones_plassmann_color(g, opt);
  const auto b = micg::color::jones_plassmann_color(g, opt);
  EXPECT_EQ(a.color, b.color);
  opt.seed = 99;
  const auto c = micg::color::jones_plassmann_color(g, opt);
  EXPECT_TRUE(micg::color::is_valid_coloring(g, c.color));
}

TEST(JonesPlassmann, HandlesStructuredGraphs) {
  for (auto g : {micg::graph::make_complete(12),
                 micg::graph::make_star(40),
                 micg::graph::make_chain(200)}) {
    micg::color::jp_options opt;
    opt.ex = exec4(backend::tbb_simple);
    const auto r = micg::color::jones_plassmann_color(g, opt);
    EXPECT_TRUE(micg::color::is_valid_coloring(g, r.color));
  }
}

}  // namespace
