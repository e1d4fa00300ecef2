// Tests for the second extension batch: parallel connected components and
// Jones-Plassmann coloring.
#include <gtest/gtest.h>

#include <set>
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
  // Pointer jumping keeps rounds logarithmic-ish, far below n.
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
