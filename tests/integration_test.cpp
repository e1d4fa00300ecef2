// Cross-module integration tests: complete workflows a downstream user
// would run, exercising graph construction, I/O, coloring, BFS, the
// irregular kernels and the model together.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <sstream>

#include "micg/bfs/centrality.hpp"
#include "micg/bfs/layered.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/bfs/validate.hpp"
#include "micg/color/iterative.hpp"
#include "micg/color/verify.hpp"
#include "micg/graph/builder.hpp"
#include "micg/graph/components.hpp"
#include "micg/graph/io_binary.hpp"
#include "micg/graph/io_mm.hpp"
#include "micg/graph/permute.hpp"
#include "micg/graph/suite.hpp"
#include "micg/irregular/pagerank.hpp"
#include "micg/model/bfs_model.hpp"
#include "micg/model/exec_model.hpp"
#include "micg/model/tracegen.hpp"

namespace {

using micg::graph::vertex_t;

TEST(Integration, GenerateSaveLoadAnalyzePipeline) {
  // Generate -> binary roundtrip -> mtx roundtrip -> identical analyses.
  const auto g = micg::graph::make_suite_graph(
      micg::graph::suite_entry_by_name("bmw3_2"), 0.01);

  std::stringstream bin, mtx;
  micg::graph::write_binary(bin, g);
  micg::graph::write_matrix_market(mtx, g);
  const auto g_bin = micg::graph::read_binary(bin);
  const auto g_mtx = micg::graph::read_matrix_market(mtx);
  EXPECT_EQ(g_bin.adj(), g.adj());
  EXPECT_EQ(g_mtx.adj(), g.adj());

  const auto bfs_a = micg::bfs::seq_bfs(g, 0);
  const auto bfs_b = micg::bfs::seq_bfs(g_bin, 0);
  EXPECT_EQ(bfs_a.level, bfs_b.level);
}

TEST(Integration, ColorThenScheduleThenSmooth) {
  // The paper's end-to-end story starts by coloring a conflict graph so
  // its classes can serve as a lock-free schedule; the colored sweep
  // itself runs in examples/task_scheduling.cpp.
  const auto g = micg::graph::make_suite_graph(
      micg::graph::suite_entry_by_name("auto"), 0.01);
  micg::color::iterative_options copt;
  copt.ex.kind = micg::rt::backend::tbb_simple;
  copt.ex.threads = 8;
  copt.ex.chunk = 40;
  const auto coloring = micg::color::iterative_color(g, copt);
  ASSERT_TRUE(micg::color::is_valid_coloring(g, coloring.color));
}

TEST(Integration, ShuffleChangesLocalityNotStructure) {
  // Figure 2's transformation end-to-end: a shuffled graph has identical
  // structural results (colors needed, BFS shape, components, centrality
  // ranking) under relabeling.
  const auto g = micg::graph::make_suite_graph(
      micg::graph::suite_entry_by_name("pwtk"), 0.01);
  const auto perm =
      micg::graph::random_permutation(g.num_vertices(), 11);
  const auto h = micg::graph::apply_permutation(g, perm);

  // BFS from mapped source: identical level histogram.
  const vertex_t src = g.num_vertices() / 4;
  const auto bg = micg::bfs::seq_bfs(g, src);
  const auto bh = micg::bfs::seq_bfs(
      h, perm[static_cast<std::size_t>(src)]);
  EXPECT_EQ(bg.frontier_sizes, bh.frontier_sizes);

  // Components are preserved.
  micg::rt::exec ex;
  ex.threads = 4;
  EXPECT_EQ(micg::graph::parallel_components(g, ex).num_components,
            micg::graph::parallel_components(h, ex).num_components);

  // Paper model depends only on frontier sizes: identical speedups.
  EXPECT_DOUBLE_EQ(
      micg::model::bfs_model_speedup(bg.frontier_sizes, 61, 32),
      micg::model::bfs_model_speedup(bh.frontier_sizes, 61, 32));
}

TEST(Integration, BfsFamilyAgreesEverywhere) {
  // Every BFS implementation (seq, six layered variants, model trace) sees
  // the same level structure.
  const auto g = micg::graph::make_suite_graph(
      micg::graph::suite_entry_by_name("msdoor"), 0.01);
  const vertex_t src = g.num_vertices() / 2;
  const auto ref = micg::bfs::seq_bfs(g, src);

  for (auto variant : micg::bfs::all_bfs_variants()) {
    micg::bfs::parallel_bfs_options opt;
    opt.variant = variant;
    opt.ex.threads = 4;
    const auto r = micg::bfs::parallel_bfs(g, src, opt);
    ASSERT_EQ(r.level, ref.level) << micg::bfs::bfs_variant_name(variant);
  }

  micg::model::bfs_trace_options bopt;
  const auto trace = micg::model::bfs_trace(g, src, bopt);
  EXPECT_EQ(trace.steps.size(),
            static_cast<std::size_t>(ref.num_levels));
}

TEST(Integration, PagerankOnColoredComponents) {
  // Disconnected graph: per-component mass of the PageRank vector matches
  // component sizes (teleport spreads uniformly), computed with the
  // parallel component labels.
  micg::graph::graph_builder b(300);
  for (vertex_t v = 0; v < 99; ++v) b.add_edge(v, v + 1);        // 0..99
  for (vertex_t v = 100; v < 299; ++v) b.add_edge(v, v + 1);     // 100..299
  auto g = std::move(b).build();

  micg::rt::exec ex;
  ex.threads = 4;
  const auto comps = micg::graph::parallel_components(g, ex);
  ASSERT_EQ(comps.num_components, 2);

  micg::irregular::pagerank_options popt;
  popt.ex = ex;
  const auto pr = micg::irregular::pagerank(g, popt);
  double mass0 = 0.0, mass1 = 0.0;
  for (vertex_t v = 0; v < 300; ++v) {
    (comps.label[static_cast<std::size_t>(v)] == 0 ? mass0 : mass1) +=
        pr.rank[static_cast<std::size_t>(v)];
  }
  EXPECT_NEAR(mass0 + mass1, 1.0, 1e-6);
  // Component masses proportional to size within a few percent (chain
  // ends distort slightly).
  EXPECT_NEAR(mass0, 100.0 / 300.0, 0.02);
}

TEST(Integration, CentralityTracksBfsStructure) {
  // On a barbell-ish graph (two cliques joined by a path) the path
  // vertices dominate centrality, and they're also the narrow BFS levels.
  micg::graph::graph_builder b(23);
  for (vertex_t u = 0; u < 8; ++u) {
    for (vertex_t v = u + 1; v < 8; ++v) b.add_edge(u, v);
  }
  for (vertex_t u = 15; u < 23; ++u) {
    for (vertex_t v = u + 1; v < 23; ++v) b.add_edge(u, v);
  }
  for (vertex_t v = 7; v < 16; ++v) b.add_edge(v, v + 1);  // the bridge
  auto g = std::move(b).build();

  const auto bc = micg::bfs::betweenness_centrality_seq(g);
  // The middle bridge vertex beats every clique vertex.
  const std::size_t mid = 11;
  for (vertex_t v = 0; v < 7; ++v) {
    EXPECT_GT(bc[mid], bc[static_cast<std::size_t>(v)]);
  }
  const auto r = micg::bfs::seq_bfs(g, 0);
  EXPECT_GT(r.num_levels, 8);  // the bridge stretches the BFS
}

}  // namespace
