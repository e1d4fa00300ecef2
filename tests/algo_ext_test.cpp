// Tests for the extension algorithms: coloring orderings, betweenness
// centrality, and binary I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "micg/bfs/centrality.hpp"
#include "micg/color/greedy.hpp"
#include "micg/color/ordering.hpp"
#include "micg/color/verify.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/io_binary.hpp"
#include "micg/graph/permute.hpp"
#include "micg/graph/suite.hpp"
#include "micg/support/assert.hpp"

namespace {

using micg::graph::csr_graph;
using micg::graph::vertex_t;

// ---------------------------------------------------------------- orderings

TEST(Ordering, LargestFirstSortsByDegree) {
  auto g = micg::graph::make_star(10);  // center degree 9, leaves 1
  const auto order = micg::color::largest_first_order(g);
  ASSERT_EQ(order.size(), 10u);
  EXPECT_EQ(order[0], 0);  // the hub first
  std::vector<vertex_t> check(order.begin(), order.end());
  EXPECT_TRUE(micg::graph::is_permutation(check));
}

TEST(Ordering, AllOrdersArePermutations) {
  auto g = micg::graph::make_erdos_renyi(500, 8.0, 3);
  for (auto order : {micg::color::largest_first_order(g),
                     micg::color::smallest_last_order(g),
                     micg::color::incidence_order(g)}) {
    std::vector<vertex_t> check(order.begin(), order.end());
    EXPECT_TRUE(micg::graph::is_permutation(check));
  }
}

TEST(Ordering, DegeneracyOfKnownGraphs) {
  EXPECT_EQ(micg::color::degeneracy(micg::graph::make_chain(10)), 1);
  EXPECT_EQ(micg::color::degeneracy(micg::graph::make_cycle(10)), 2);
  EXPECT_EQ(micg::color::degeneracy(micg::graph::make_complete(6)), 5);
  EXPECT_EQ(micg::color::degeneracy(micg::graph::make_star(20)), 1);
  EXPECT_EQ(micg::color::degeneracy(micg::graph::make_grid_2d(8, 8)), 2);
}

TEST(Ordering, SmallestLastBoundsColorsByDegeneracy) {
  for (std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    auto g = micg::graph::make_erdos_renyi(800, 10.0, seed);
    const int d = micg::color::degeneracy(g);
    const auto order = micg::color::smallest_last_order(g);
    const auto c = micg::color::greedy_color(g, order);
    EXPECT_TRUE(micg::color::is_valid_coloring(g, c.color));
    EXPECT_LE(c.num_colors, d + 1);
    // And degeneracy+1 <= Delta+1, usually much less.
    EXPECT_LE(d, static_cast<int>(g.max_degree()));
  }
}

TEST(Ordering, DegreeOrdersHelpOnSkewedGraphs) {
  // On RMAT graphs, smallest-last typically beats natural order.
  auto g = micg::graph::make_rmat(11, 8, 0.57, 0.19, 0.19, 7);
  const auto natural = micg::color::greedy_color(g);
  const auto sl = micg::color::greedy_color(
      g, micg::color::smallest_last_order(g));
  EXPECT_LE(sl.num_colors, natural.num_colors);
}

TEST(Ordering, IncidenceStartsConnected) {
  auto g = micg::graph::make_grid_2d(10, 10);
  const auto order = micg::color::incidence_order(g);
  // After the first vertex, every visited vertex (within the component)
  // must touch an earlier one.
  std::vector<bool> seen(static_cast<std::size_t>(g.num_vertices()),
                         false);
  seen[static_cast<std::size_t>(order[0])] = true;
  for (std::size_t i = 1; i < order.size(); ++i) {
    bool touches = false;
    for (vertex_t w : g.neighbors(order[i])) {
      if (seen[static_cast<std::size_t>(w)]) touches = true;
    }
    EXPECT_TRUE(touches) << "vertex " << order[i] << " at position " << i;
    seen[static_cast<std::size_t>(order[i])] = true;
  }
}

// --------------------------------------------------------------- centrality

TEST(Centrality, PathGraphClosedForm) {
  // Path 0-1-2-3-4: BC(v) = #pairs whose shortest path passes through v:
  // vertex 2 carries pairs {0,1}x{3,4} plus {1}x{3},... closed form for
  // path P_n: bc(i) = i*(n-1-i).
  auto g = micg::graph::make_chain(5);
  const auto bc = micg::bfs::betweenness_centrality_seq(g);
  ASSERT_EQ(bc.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(bc[static_cast<std::size_t>(i)],
                static_cast<double>(i * (4 - i)), 1e-9)
        << i;
  }
}

TEST(Centrality, StarCenterCarriesAllPairs) {
  auto g = micg::graph::make_star(8);  // 7 leaves
  const auto bc = micg::bfs::betweenness_centrality_seq(g);
  // Center: C(7,2) = 21 leaf pairs; leaves 0.
  EXPECT_NEAR(bc[0], 21.0, 1e-9);
  for (std::size_t v = 1; v < bc.size(); ++v) EXPECT_NEAR(bc[v], 0.0, 1e-9);
}

TEST(Centrality, CompleteGraphAllZero) {
  auto g = micg::graph::make_complete(6);
  for (double x : micg::bfs::betweenness_centrality_seq(g)) {
    EXPECT_NEAR(x, 0.0, 1e-9);
  }
}

TEST(Centrality, ParallelMatchesSequential) {
  auto g = micg::graph::make_erdos_renyi(300, 6.0, 17);
  const auto seq = micg::bfs::betweenness_centrality_seq(g);
  for (auto kind : {micg::rt::backend::omp_dynamic,
                    micg::rt::backend::cilk_holder,
                    micg::rt::backend::tbb_simple}) {
    micg::bfs::centrality_options opt;
    opt.ex.kind = kind;
    opt.ex.threads = 4;
    opt.ex.chunk = 8;
    const auto par = micg::bfs::betweenness_centrality(g, opt);
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t v = 0; v < seq.size(); ++v) {
      ASSERT_NEAR(par[v], seq[v], 1e-6) << "vertex " << v;
    }
  }
}

TEST(Centrality, SampledApproximatesExact) {
  auto g = micg::graph::make_grid_2d(16, 16);
  const auto exact = micg::bfs::betweenness_centrality_seq(g);
  micg::bfs::centrality_options opt;
  opt.ex.threads = 2;
  opt.sample_sources = 64;  // every fourth vertex
  const auto approx = micg::bfs::betweenness_centrality(g, opt);
  // Same argmax region: compare total mass within 30%.
  const double me = std::accumulate(exact.begin(), exact.end(), 0.0);
  const double ma = std::accumulate(approx.begin(), approx.end(), 0.0);
  EXPECT_NEAR(ma / me, 1.0, 0.3);
}

// ---------------------------------------------------------------- binary io

TEST(IoBinary, RoundTrip) {
  auto g = micg::graph::make_erdos_renyi(500, 7.0, 23);
  std::stringstream ss;
  micg::graph::write_binary(ss, g);
  const auto h = micg::graph::read_binary(ss);
  EXPECT_EQ(g.xadj(), h.xadj());
  EXPECT_EQ(g.adj(), h.adj());
}

TEST(IoBinary, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(micg::graph::read_binary(empty), micg::check_error);
  std::stringstream wrong("not a graph at all, definitely not magic");
  EXPECT_THROW(micg::graph::read_binary(wrong), micg::check_error);
  EXPECT_THROW(micg::graph::load_binary("/nonexistent/x.micg"),
               micg::check_error);
}

TEST(IoBinary, TruncatedStreamDetected) {
  auto g = micg::graph::make_grid_2d(10, 10);
  std::stringstream ss;
  micg::graph::write_binary(ss, g);
  std::string data = ss.str();
  std::stringstream cut(data.substr(0, data.size() / 2));
  EXPECT_THROW(micg::graph::read_binary(cut), micg::check_error);
}

}  // namespace
