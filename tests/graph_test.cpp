// Tests for the graph substrate: CSR invariants, builder canonicalization,
// generators, permutation, properties, MatrixMarket I/O, and the Table I
// suite stand-ins.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "micg/bfs/seq.hpp"
#include "micg/graph/builder.hpp"
#include "micg/graph/csr.hpp"
#include "micg/graph/components.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/io_mm.hpp"
#include "micg/graph/permute.hpp"
#include "micg/graph/stats.hpp"
#include "micg/graph/suite.hpp"
#include "micg/support/assert.hpp"

namespace {

using micg::graph::csr_graph;
using micg::graph::vertex_t;

// -------------------------------------------------------------------- csr

TEST(Csr, EmptyGraph) {
  csr_graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Csr, TriangleBasics) {
  auto g = micg::graph::make_complete(3);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.num_directed_edges(), 6);
  EXPECT_EQ(g.max_degree(), 2);
  for (vertex_t v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2);
  auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1);
  EXPECT_EQ(n0[1], 2);
  EXPECT_NO_THROW(g.validate());
}

TEST(Csr, RejectsBadXadj) {
  // xadj not ending at adjacency size.
  EXPECT_THROW(csr_graph({0, 2}, {1}), micg::check_error);
  // xadj not starting at zero.
  EXPECT_THROW(csr_graph({1, 2}, {0, 1}), micg::check_error);
}

TEST(Csr, RejectsDecreasingXadj) {
  // The constructor's max-degree scan must reject a decreasing offset
  // before subtracting: INT64_MIN + 2 would overflow degree().
  using micg::graph::csr64;
  const std::vector<std::int64_t> adj(4, 0);
  EXPECT_THROW(csr64({0, 3, 1, 4}, adj), micg::check_error);
  EXPECT_THROW(
      csr64({0, std::numeric_limits<std::int64_t>::min() + 2, 4}, adj),
      micg::check_error);
}

TEST(Csr, ValidateCatchesAsymmetry) {
  // 0 -> 1 present but 1 -> 0 missing.
  csr_graph g({0, 1, 1}, {1});
  EXPECT_THROW(g.validate(), micg::check_error);
}

TEST(Csr, ValidateCatchesSelfLoop) {
  csr_graph g({0, 1}, {0});
  EXPECT_THROW(g.validate(), micg::check_error);
}

// ----------------------------------------------------------------- builder

TEST(Builder, DeduplicatesAndSymmetrizes) {
  micg::graph::graph_builder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate (reversed)
  b.add_edge(0, 1);  // duplicate (same)
  b.add_edge(1, 2);
  auto g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_NO_THROW(g.validate());
}

TEST(Builder, DropsSelfLoops) {
  micg::graph::graph_builder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  auto g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(Builder, IsolatedVerticesKept) {
  micg::graph::graph_builder b(5);
  b.add_edge(0, 1);
  auto g = std::move(b).build();
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.degree(4), 0);
  EXPECT_TRUE(g.neighbors(4).empty());
}

TEST(Builder, RejectsOutOfRangeAtBuild) {
  std::vector<std::pair<vertex_t, vertex_t>> edges{{0, 7}};
  EXPECT_THROW(micg::graph::csr_from_edges(3, edges), micg::check_error);
}

// --------------------------------------------------------------- generators

TEST(Generators, ChainShape) {
  auto g = micg::graph::make_chain(100);
  EXPECT_EQ(g.num_vertices(), 100);
  EXPECT_EQ(g.num_edges(), 99);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(99), 1);
  EXPECT_EQ(micg::bfs::seq_bfs(g, 0).num_levels, 100);
  EXPECT_EQ(micg::bfs::seq_bfs(g, 50).num_levels, 51);
}

TEST(Generators, CycleShape) {
  auto g = micg::graph::make_cycle(10);
  EXPECT_EQ(g.num_edges(), 10);
  for (vertex_t v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_EQ(micg::bfs::seq_bfs(g, 0).num_levels, 6);
}

TEST(Generators, StarShape) {
  auto g = micg::graph::make_star(64);
  EXPECT_EQ(g.num_edges(), 63);
  EXPECT_EQ(g.max_degree(), 63);
  EXPECT_EQ(micg::bfs::seq_bfs(g, 0).num_levels, 2);
  EXPECT_EQ(micg::bfs::seq_bfs(g, 5).num_levels, 3);
}

TEST(Generators, CompleteShape) {
  auto g = micg::graph::make_complete(8);
  EXPECT_EQ(g.num_edges(), 28);
  EXPECT_EQ(micg::bfs::seq_bfs(g, 3).num_levels, 2);
}

TEST(Generators, KaryTreeShape) {
  auto g = micg::graph::make_kary_tree(2, 5);  // 31 vertices
  EXPECT_EQ(g.num_vertices(), 31);
  EXPECT_EQ(g.num_edges(), 30);
  EXPECT_EQ(micg::bfs::seq_bfs(g, 0).num_levels, 5);
  EXPECT_EQ(g.degree(0), 2);   // root
  EXPECT_EQ(g.degree(30), 1);  // leaf
}

TEST(Generators, Grid2dShape) {
  auto g = micg::graph::make_grid_2d(5, 4);
  EXPECT_EQ(g.num_vertices(), 20);
  // Edges: 4*4 horizontal rows * ... = (nx-1)*ny + nx*(ny-1) = 16 + 15.
  EXPECT_EQ(g.num_edges(), 31);
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_EQ(micg::graph::count_components(g), 1);
}

TEST(Generators, Grid2dDiagonals) {
  auto g = micg::graph::make_grid_2d(4, 4, /*diagonals=*/true);
  EXPECT_EQ(g.max_degree(), 8);
  EXPECT_NO_THROW(g.validate());
}

TEST(Generators, ErdosRenyiDegreeClose) {
  auto g = micg::graph::make_erdos_renyi(5000, 12.0, 42);
  const auto stats = micg::graph::compute_graph_stats(g);
  // Dedupe and self-loop losses are small.
  EXPECT_NEAR(stats.avg_degree, 12.0, 1.0);
  EXPECT_NO_THROW(g.validate());
}

TEST(Generators, ErdosRenyiDeterministic) {
  auto a = micg::graph::make_erdos_renyi(500, 8.0, 7);
  auto b = micg::graph::make_erdos_renyi(500, 8.0, 7);
  EXPECT_EQ(a.adj(), b.adj());
  auto c = micg::graph::make_erdos_renyi(500, 8.0, 8);
  EXPECT_NE(a.adj(), c.adj());
}

TEST(Generators, RmatPowerLaw) {
  auto g = micg::graph::make_rmat(12, 8, 0.57, 0.19, 0.19, 1);
  EXPECT_EQ(g.num_vertices(), 4096);
  const auto stats = micg::graph::compute_graph_stats(g);
  // Skew: max degree far above the mean is the RMAT signature.
  EXPECT_GT(static_cast<double>(stats.max_degree), 4.0 * stats.avg_degree);
  EXPECT_NO_THROW(g.validate());
}

TEST(Generators, FemLikeStencilDegrees) {
  micg::graph::fem_params p;
  p.sx = p.sy = p.sz = 10;
  p.stencil_pairs = 13;  // full 3x3x3 box
  auto g = micg::graph::make_fem_like(p);
  EXPECT_EQ(g.num_vertices(), 1000);
  EXPECT_EQ(g.max_degree(), 26);  // interior vertex
  // Corner vertex has the 7 box neighbors that stay in bounds.
  EXPECT_EQ(g.degree(0), 7);
  EXPECT_NO_THROW(g.validate());
}

TEST(Generators, FemLikeHubsRaiseMaxDegree) {
  micg::graph::fem_params p;
  p.sx = p.sy = 8;
  p.sz = 32;
  p.stencil_pairs = 7;
  p.hub_degree = 50;
  p.num_hubs = 3;
  auto g = micg::graph::make_fem_like(p);
  EXPECT_GE(g.max_degree(), 50);
  EXPECT_NO_THROW(g.validate());
}

TEST(Generators, InvalidParamsRejected) {
  EXPECT_THROW(micg::graph::make_chain(0), micg::check_error);
  EXPECT_THROW(micg::graph::make_star(1), micg::check_error);
  EXPECT_THROW(micg::graph::make_cycle(2), micg::check_error);
  micg::graph::fem_params p;
  p.stencil_pairs = 99;
  EXPECT_THROW(micg::graph::make_fem_like(p), micg::check_error);
  EXPECT_THROW(micg::graph::make_rmat(2, 2, 0.5, 0.3, 0.3, 1),
               micg::check_error);
}

// ------------------------------------------------------------------ permute

TEST(Permute, IdentityIsNoop) {
  auto g = micg::graph::make_grid_2d(6, 6);
  auto p = micg::graph::identity_permutation(g.num_vertices());
  auto h = micg::graph::apply_permutation(g, p);
  EXPECT_EQ(g.xadj(), h.xadj());
  EXPECT_EQ(g.adj(), h.adj());
}

TEST(Permute, RandomPermutationIsBijection) {
  auto p = micg::graph::random_permutation(1000, 3);
  EXPECT_TRUE(micg::graph::is_permutation(p));
  auto q = micg::graph::random_permutation(1000, 3);
  EXPECT_EQ(p, q);  // deterministic
  auto r = micg::graph::random_permutation(1000, 4);
  EXPECT_NE(p, r);
}

TEST(Permute, PreservesStructure) {
  auto g = micg::graph::make_erdos_renyi(400, 6.0, 11);
  auto perm = micg::graph::random_permutation(g.num_vertices(), 5);
  auto h = micg::graph::apply_permutation(g, perm);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.max_degree(), g.max_degree());
  EXPECT_NO_THROW(h.validate());
  // Degree multiset is preserved.
  std::vector<std::int64_t> dg, dh;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    dg.push_back(g.degree(v));
    dh.push_back(h.degree(perm[static_cast<std::size_t>(v)]));
  }
  EXPECT_EQ(dg, dh);
}

TEST(Permute, RejectsNonPermutation) {
  auto g = micg::graph::make_chain(4);
  std::vector<vertex_t> bad{0, 0, 1, 2};
  EXPECT_THROW(micg::graph::apply_permutation(g, bad), micg::check_error);
  std::vector<vertex_t> short_perm{0, 1};
  EXPECT_THROW(micg::graph::apply_permutation(g, short_perm),
               micg::check_error);
}

// -------------------------------------------------------------------- props

TEST(Props, DegreeStats) {
  auto g = micg::graph::make_star(11);
  const auto s = micg::graph::compute_graph_stats(g);
  EXPECT_EQ(s.min_degree, 1);
  EXPECT_EQ(s.max_degree, 10);
  EXPECT_NEAR(s.avg_degree, 20.0 / 11.0, 1e-9);
}

TEST(Props, ComponentsCounted) {
  micg::graph::graph_builder b(6);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  auto g = std::move(b).build();
  EXPECT_EQ(micg::graph::count_components(g), 4);  // {0,1} {2,3} {4} {5}
}

// ----------------------------------------------------------------------- io

TEST(IoMm, RoundTrip) {
  auto g = micg::graph::make_erdos_renyi(200, 5.0, 9);
  std::stringstream ss;
  micg::graph::write_matrix_market(ss, g);
  auto h = micg::graph::read_matrix_market(ss);
  EXPECT_EQ(g.xadj(), h.xadj());
  EXPECT_EQ(g.adj(), h.adj());
}

TEST(IoMm, ReadsGeneralRealMatrices) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment line\n"
      "3 3 4\n"
      "1 2 0.5\n"
      "2 1 0.5\n"
      "2 3 -1.0\n"
      "1 1 2.0\n");  // diagonal dropped
  auto g = micg::graph::read_matrix_market(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);  // {1,2} deduped, {2,3}, diag dropped
}

TEST(IoMm, RejectsMalformedInput) {
  std::stringstream notbanner("hello world\n1 1 0\n");
  EXPECT_THROW(micg::graph::read_matrix_market(notbanner),
               micg::check_error);
  std::stringstream rect(
      "%%MatrixMarket matrix coordinate pattern general\n2 3 0\n");
  EXPECT_THROW(micg::graph::read_matrix_market(rect), micg::check_error);
  std::stringstream trunc(
      "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n");
  EXPECT_THROW(micg::graph::read_matrix_market(trunc), micg::check_error);
  EXPECT_THROW(micg::graph::load_matrix_market("/nonexistent/file.mtx"),
               micg::check_error);
}

// -------------------------------------------------------------------- suite

class SuiteGraph : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteGraph, ScaledStandInIsHealthy) {
  const auto& entry = micg::graph::suite_entry_by_name(GetParam());
  auto g = micg::graph::make_suite_graph(entry, 0.02);
  EXPECT_GT(g.num_vertices(), 100);
  EXPECT_EQ(micg::graph::count_components(g), 1);
  EXPECT_NO_THROW(g.validate());
  // Average degree should be in the ballpark of the paper's graph (the
  // stand-in matches stencil density; boundaries pull the mean down a bit).
  const double paper_avg = 2.0 * static_cast<double>(entry.paper_edges) /
                           static_cast<double>(entry.paper_vertices);
  const auto stats = micg::graph::compute_graph_stats(g);
  EXPECT_GT(stats.avg_degree, 0.55 * paper_avg);
  EXPECT_LT(stats.avg_degree, 1.3 * paper_avg);
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, SuiteGraph,
                         ::testing::Values("auto", "bmw3_2", "hood",
                                           "inline_1", "ldoor", "msdoor",
                                           "pwtk"));

TEST(Suite, HasSevenEntriesInPaperOrder) {
  const auto& s = micg::graph::table1_suite();
  ASSERT_EQ(s.size(), 7u);
  EXPECT_EQ(s.front().name, "auto");
  EXPECT_EQ(s.back().name, "pwtk");
  EXPECT_EQ(s.back().paper_levels, 267);
}

TEST(Suite, UnknownNameThrows) {
  EXPECT_THROW(micg::graph::suite_entry_by_name("nope"), micg::check_error);
}

TEST(Suite, ScaledParamsShrinkDimensions) {
  const auto& e = micg::graph::suite_entry_by_name("ldoor");
  const auto p = micg::graph::scaled_params(e, 0.125);  // cbrt = 0.5
  EXPECT_EQ(p.sx, e.params.sx / 2);
  EXPECT_EQ(p.sz, e.params.sz / 2);
  EXPECT_THROW(micg::graph::scaled_params(e, 0.0), micg::check_error);
  EXPECT_THROW(micg::graph::scaled_params(e, 2.0), micg::check_error);
}

}  // namespace
