// Tests for the second extension batch: parallel connected components,
// Jones-Plassmann coloring, and the colored Gauss-Seidel smoother.
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
#include "micg/irregular/gauss_seidel.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/rng.hpp"

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

// ---------------------------------------------------------------- colored GS

TEST(GaussSeidel, ParallelMatchesSequentialExactly) {
  auto g = micg::graph::make_suite_graph(
      micg::graph::suite_entry_by_name("msdoor"), 0.01);
  micg::color::iterative_options copt;
  copt.ex = exec4();
  const auto coloring = micg::color::iterative_color(g, copt);

  std::vector<double> state(static_cast<std::size_t>(g.num_vertices()));
  micg::xoshiro256ss rng(3);
  for (auto& x : state) x = rng.uniform();

  micg::irregular::gauss_seidel_options opt;
  opt.ex = exec4(backend::cilk_holder);
  opt.sweeps = 3;
  const auto par =
      micg::irregular::colored_gauss_seidel(g, coloring.color, state, opt);
  const auto seq = micg::irregular::gauss_seidel_seq(
      g, coloring.color, state, opt.sweeps, opt.self_weight);
  // Bit-exact: within a color class updates are independent, so thread
  // interleaving cannot change any arithmetic.
  EXPECT_EQ(par, seq);
}

TEST(GaussSeidel, SmoothsTowardsLocalAverage) {
  auto g = micg::graph::make_grid_2d(20, 20);
  const auto coloring = micg::color::greedy_color(g);
  std::vector<double> state(400, 0.0);
  state[210] = 400.0;
  micg::irregular::gauss_seidel_options opt;
  opt.ex = exec4();
  opt.sweeps = 50;
  const auto out =
      micg::irregular::colored_gauss_seidel(g, coloring.color, state, opt);
  // The spike must have spread: its height drops by >10x and neighbors
  // rise above zero.
  EXPECT_LT(out[210], 40.0);
  EXPECT_GT(out[209], 0.0);
}

TEST(GaussSeidel, RejectsInvalidColoring) {
  auto g = micg::graph::make_chain(4);
  std::vector<int> bad{1, 1, 1, 1};
  std::vector<double> state(4, 1.0);
  micg::irregular::gauss_seidel_options opt;
  EXPECT_THROW(
      micg::irregular::colored_gauss_seidel(g, bad, state, opt),
      micg::check_error);
}

TEST(GaussSeidel, ZeroSweepsIsIdentity) {
  auto g = micg::graph::make_cycle(8);
  const auto coloring = micg::color::greedy_color(g);
  std::vector<double> state{1, 2, 3, 4, 5, 6, 7, 8};
  micg::irregular::gauss_seidel_options opt;
  opt.sweeps = 0;
  const auto out =
      micg::irregular::colored_gauss_seidel(g, coloring.color, state, opt);
  EXPECT_EQ(out, state);
}

}  // namespace
