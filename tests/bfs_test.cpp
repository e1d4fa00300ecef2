// Tests for the BFS module: sequential reference, block-accessed queue,
// TLS frontier, Leiserson-Schardl bag, all six layered parallel variants,
// validation, and the direction-optimizing extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "micg/bfs/bag.hpp"
#include "micg/bfs/block_queue.hpp"
#include "micg/bfs/direction.hpp"
#include "micg/bfs/layered.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/bfs/tls_queue.hpp"
#include "micg/bfs/validate.hpp"
#include "micg/graph/builder.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/permute.hpp"
#include "micg/graph/suite.hpp"
#include "micg/obs/obs.hpp"
#include "micg/rt/thread_pool.hpp"
#include "micg/support/assert.hpp"

namespace {

using micg::bfs::bfs_variant;
using micg::graph::csr_graph;
using micg::graph::invalid_vertex;
using micg::graph::vertex_t;

// --------------------------------------------------------------------- seq

TEST(SeqBfs, ChainLevels) {
  auto g = micg::graph::make_chain(5);
  const auto r = micg::bfs::seq_bfs(g, 0);
  EXPECT_EQ(r.level, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.num_levels, 5);
  EXPECT_EQ(r.reached, 5u);
  EXPECT_EQ(r.frontier_sizes, (std::vector<std::size_t>{1, 1, 1, 1, 1}));
}

TEST(SeqBfs, StarFromCenterAndLeaf) {
  auto g = micg::graph::make_star(6);
  const auto center = micg::bfs::seq_bfs(g, 0);
  EXPECT_EQ(center.num_levels, 2);
  EXPECT_EQ(center.frontier_sizes, (std::vector<std::size_t>{1, 5}));
  const auto leaf = micg::bfs::seq_bfs(g, 3);
  EXPECT_EQ(leaf.num_levels, 3);
  EXPECT_EQ(leaf.frontier_sizes, (std::vector<std::size_t>{1, 1, 4}));
}

TEST(SeqBfs, DisconnectedVerticesStayUnreached) {
  micg::graph::graph_builder b(4);
  b.add_edge(0, 1);
  auto g = std::move(b).build();
  const auto r = micg::bfs::seq_bfs(g, 0);
  EXPECT_EQ(r.level[2], -1);
  EXPECT_EQ(r.level[3], -1);
  EXPECT_EQ(r.reached, 2u);
}

TEST(SeqBfs, TreeLevelsMatchDepth) {
  auto g = micg::graph::make_kary_tree(3, 4);
  const auto r = micg::bfs::seq_bfs(g, 0);
  EXPECT_EQ(r.num_levels, 4);
  EXPECT_EQ(r.frontier_sizes, (std::vector<std::size_t>{1, 3, 9, 27}));
}

TEST(SeqBfs, RejectsBadSource) {
  auto g = micg::graph::make_chain(3);
  EXPECT_THROW(micg::bfs::seq_bfs(g, 5), micg::check_error);
  EXPECT_THROW(micg::bfs::seq_bfs(g, -1), micg::check_error);
}

// ------------------------------------------------------------- block queue

TEST(BlockQueue, PushAndFlushPadsWithSentinels) {
  micg::bfs::block_queue q(256, /*block=*/8, /*workers=*/2);
  for (vertex_t v = 0; v < 5; ++v) q.push(0, v);
  q.flush_all();
  // One block handed out: 5 vertices + 3 sentinels.
  EXPECT_EQ(q.size_with_sentinels(), 8u);
  EXPECT_EQ(q.count_valid(), 5u);
  auto raw = q.raw();
  EXPECT_EQ(raw[4], 4);
  EXPECT_EQ(raw[5], invalid_vertex);
}

TEST(BlockQueue, MultipleBlocksPerWorker) {
  micg::bfs::block_queue q(256, 4, 1);
  for (vertex_t v = 0; v < 10; ++v) q.push(0, v);
  q.flush_all();
  EXPECT_EQ(q.size_with_sentinels(), 12u);  // 3 blocks of 4
  EXPECT_EQ(q.count_valid(), 10u);
}

TEST(BlockQueue, ResetReusesStorage) {
  micg::bfs::block_queue q(64, 4, 1);
  for (vertex_t v = 0; v < 6; ++v) q.push(0, v);
  q.flush_all();
  q.reset();
  EXPECT_EQ(q.size_with_sentinels(), 0u);
  q.push(0, 42);
  q.flush_all();
  EXPECT_EQ(q.count_valid(), 1u);
  EXPECT_EQ(q.raw()[0], 42);
}

TEST(BlockQueue, ConcurrentPushesKeepEveryVertex) {
  constexpr int kWorkers = 8;
  constexpr vertex_t kPerWorker = 1000;
  micg::bfs::block_queue q(kWorkers * kPerWorker + kWorkers * 16 + 64, 16,
                           kWorkers);
  micg::rt::thread_pool pool(kWorkers);
  pool.run(kWorkers, [&](int w) {
    for (vertex_t i = 0; i < kPerWorker; ++i) {
      q.push(w, static_cast<vertex_t>(w) * kPerWorker + i);
    }
  });
  q.flush_all();
  EXPECT_EQ(q.count_valid(),
            static_cast<std::size_t>(kWorkers) * kPerWorker);
  std::set<vertex_t> seen;
  for (auto v : q.raw()) {
    if (v != invalid_vertex) {
      EXPECT_TRUE(seen.insert(v).second) << "duplicate " << v;
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kWorkers) * kPerWorker);
}

TEST(BlockQueue, OverflowThrows) {
  micg::bfs::block_queue q(8, 8, 1);
  for (vertex_t v = 0; v < 8; ++v) q.push(0, v);
  EXPECT_THROW(q.push(0, 9), micg::check_error);
}

TEST(BlockQueue, SwapExchangesContents) {
  micg::bfs::block_queue a(64, 4, 1), b(64, 4, 1);
  a.push(0, 7);
  a.flush_all();
  a.swap(b);
  EXPECT_EQ(a.size_with_sentinels(), 0u);
  EXPECT_EQ(b.count_valid(), 1u);
}

// ------------------------------------------------------------ tls frontier

TEST(TlsFrontier, MergeConcatenatesAndClears) {
  micg::bfs::tls_frontier f(3);
  f.push(0, 1);
  f.push(1, 2);
  f.push(1, 3);
  f.push(2, 4);
  EXPECT_EQ(f.total_size(), 4u);
  std::vector<vertex_t> out;
  f.merge_into(out);
  EXPECT_EQ(out, (std::vector<vertex_t>{1, 2, 3, 4}));
  EXPECT_EQ(f.total_size(), 0u);
}

// --------------------------------------------------------------------- bag

TEST(Bag, InsertAndSize) {
  micg::bfs::vertex_bag bag(4);
  EXPECT_TRUE(bag.empty());
  for (vertex_t v = 0; v < 20; ++v) bag.insert(v);
  EXPECT_EQ(bag.size(), 20u);
  // 20 items at grain 4 = 5 full nodes = binary 101 -> 2 pennants.
  EXPECT_EQ(bag.backbone_pennants(), 2u);
}

TEST(Bag, ForEachVisitsEverythingOnce) {
  micg::bfs::vertex_bag bag(8);
  for (vertex_t v = 0; v < 100; ++v) bag.insert(v);
  std::set<vertex_t> seen;
  bag.for_each([&](vertex_t v) { EXPECT_TRUE(seen.insert(v).second); });
  EXPECT_EQ(seen.size(), 100u);
}

TEST(Bag, AbsorbMergesCounts) {
  micg::bfs::vertex_bag a(4), b(4);
  for (vertex_t v = 0; v < 13; ++v) a.insert(v);
  for (vertex_t v = 100; v < 117; ++v) b.insert(v);
  a.absorb(std::move(b));
  EXPECT_EQ(a.size(), 30u);
  EXPECT_TRUE(b.empty());
  std::set<vertex_t> seen;
  a.for_each([&](vertex_t v) { EXPECT_TRUE(seen.insert(v).second); });
  EXPECT_EQ(seen.size(), 30u);
}

TEST(Bag, AbsorbIntoEmpty) {
  micg::bfs::vertex_bag a(4), b(4);
  for (vertex_t v = 0; v < 9; ++v) b.insert(v);
  a.absorb(std::move(b));
  EXPECT_EQ(a.size(), 9u);
}

TEST(Bag, GrainMismatchThrows) {
  micg::bfs::vertex_bag a(4), b(8);
  EXPECT_THROW(a.absorb(std::move(b)), micg::check_error);
}

TEST(Bag, MoveSemantics) {
  micg::bfs::vertex_bag a(4);
  for (vertex_t v = 0; v < 10; ++v) a.insert(v);
  micg::bfs::vertex_bag b(std::move(a));
  EXPECT_EQ(b.size(), 10u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): spec'd empty
  a = std::move(b);
  EXPECT_EQ(a.size(), 10u);
}

TEST(Bag, ParallelTraversalCoversAll) {
  micg::bfs::vertex_bag bag(16);
  constexpr vertex_t kN = 5000;
  for (vertex_t v = 0; v < kN; ++v) bag.insert(v);
  micg::rt::thread_pool pool(4);
  micg::rt::task_scheduler sched(pool, 4);
  std::vector<std::atomic<int>> hits(kN);
  sched.run([&] {
    bag.traverse_parallel(sched,
                          [&](std::span<const vertex_t> items, int) {
                            for (vertex_t v : items) {
                              hits[static_cast<std::size_t>(v)].fetch_add(1);
                            }
                          });
  });
  for (vertex_t v = 0; v < kN; ++v) {
    ASSERT_EQ(hits[static_cast<std::size_t>(v)].load(), 1) << v;
  }
}

// ------------------------------------------------------------ layered bfs

struct BfsCase {
  bfs_variant variant;
  int threads;
};

class LayeredBfs : public ::testing::TestWithParam<BfsCase> {};

TEST_P(LayeredBfs, MatchesSequentialOnStructuredGraphs) {
  const auto p = GetParam();
  micg::bfs::parallel_bfs_options opt;
  opt.variant = p.variant;
  opt.ex.threads = p.threads;
  opt.ex.chunk = 16;
  opt.block = 8;

  const struct {
    csr_graph g;
    vertex_t source;
  } cases[] = {
      {micg::graph::make_chain(500), 0},
      {micg::graph::make_chain(500), 250},
      {micg::graph::make_star(200), 0},
      {micg::graph::make_kary_tree(3, 6), 0},
      {micg::graph::make_grid_2d(30, 30), 17},
      {micg::graph::make_cycle(101), 3},
  };
  for (const auto& c : cases) {
    const auto seq = micg::bfs::seq_bfs(c.g, c.source);
    const auto par = micg::bfs::parallel_bfs(c.g, c.source, opt);
    EXPECT_EQ(par.level, seq.level);
    EXPECT_EQ(par.num_levels, seq.num_levels);
    EXPECT_EQ(par.frontier_sizes, seq.frontier_sizes);
    EXPECT_EQ(par.reached, seq.reached);
  }
}

TEST_P(LayeredBfs, MatchesSequentialOnIrregularGraphs) {
  const auto p = GetParam();
  micg::bfs::parallel_bfs_options opt;
  opt.variant = p.variant;
  opt.ex.threads = p.threads;
  opt.block = 32;

  auto er = micg::graph::make_erdos_renyi(4000, 8.0, 77);
  auto seq = micg::bfs::seq_bfs(er, 0);
  auto par = micg::bfs::parallel_bfs(er, 0, opt);
  EXPECT_EQ(par.level, seq.level);

  auto rmat = micg::graph::make_rmat(11, 8, 0.57, 0.19, 0.19, 5);
  // Pick a vertex in the big component as source.
  vertex_t src = 0;
  for (vertex_t v = 0; v < rmat.num_vertices(); ++v) {
    if (rmat.degree(v) > 0) {
      src = v;
      break;
    }
  }
  seq = micg::bfs::seq_bfs(rmat, src);
  par = micg::bfs::parallel_bfs(rmat, src, opt);
  EXPECT_EQ(par.level, seq.level);
  EXPECT_TRUE(micg::bfs::is_valid_bfs_levels(rmat, src, par.level));
}

TEST_P(LayeredBfs, MatchesSequentialOnSuiteStandIn) {
  const auto p = GetParam();
  const auto& entry = micg::graph::suite_entry_by_name("pwtk");
  auto g = micg::graph::make_suite_graph(entry, 0.01);
  const vertex_t src = g.num_vertices() / 2;
  micg::bfs::parallel_bfs_options opt;
  opt.variant = p.variant;
  opt.ex.threads = p.threads;
  const auto seq = micg::bfs::seq_bfs(g, src);
  const auto par = micg::bfs::parallel_bfs(g, src, opt);
  EXPECT_EQ(par.level, seq.level);
}

std::vector<BfsCase> bfs_cases() {
  std::vector<BfsCase> cases;
  for (auto v : micg::bfs::all_bfs_variants()) {
    cases.push_back({v, 1});
    cases.push_back({v, 4});
  }
  cases.push_back({bfs_variant::omp_block_relaxed, 16});
  cases.push_back({bfs_variant::cilk_bag_relaxed, 8});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, LayeredBfs, ::testing::ValuesIn(bfs_cases()),
    [](const auto& info) {
      std::string n = micg::bfs::bfs_variant_name(info.param.variant);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n + "_t" + std::to_string(info.param.threads);
    });

TEST(LayeredBfsDetails, BlockVariantReportsQueueSlots) {
  auto g = micg::graph::make_grid_2d(40, 40);
  micg::bfs::parallel_bfs_options opt;
  opt.variant = bfs_variant::omp_block_relaxed;
  opt.ex.threads = 4;
  opt.block = 8;
  const auto r = micg::bfs::parallel_bfs(g, 0, opt);
  ASSERT_FALSE(r.queue_slots_per_level.empty());
  // Slots (with sentinels) are at least the frontier size and a multiple
  // of nothing in general, but never exceed frontier + threads*block.
  for (std::size_t l = 0; l < r.queue_slots_per_level.size(); ++l) {
    EXPECT_GE(r.queue_slots_per_level[l], r.frontier_sizes[l]);
    EXPECT_LE(r.queue_slots_per_level[l],
              r.frontier_sizes[l] + 4u * 8u + 8u);
  }
}

TEST(LayeredBfsDetails, OptionsValidated) {
  auto g = micg::graph::make_chain(4);
  micg::bfs::parallel_bfs_options opt;
  opt.ex.threads = 0;
  EXPECT_THROW(micg::bfs::parallel_bfs(g, 0, opt), micg::check_error);
  opt.ex.threads = 1;
  opt.block = 0;
  EXPECT_THROW(micg::bfs::parallel_bfs(g, 0, opt), micg::check_error);
  opt.block = 8;
  EXPECT_THROW(micg::bfs::parallel_bfs(g, 99, opt), micg::check_error);
}

// ---------------------------------------------------------------- validate

TEST(Validate, AcceptsCorrectAndRejectsCorrupt) {
  auto g = micg::graph::make_grid_2d(10, 10);
  auto r = micg::bfs::seq_bfs(g, 0);
  EXPECT_TRUE(micg::bfs::is_valid_bfs_levels(g, 0, r.level));
  auto corrupt = r.level;
  corrupt[50] += 1;
  EXPECT_FALSE(micg::bfs::is_valid_bfs_levels(g, 0, corrupt));
  corrupt = r.level;
  corrupt[0] = 1;  // source must be level 0
  EXPECT_FALSE(micg::bfs::is_valid_bfs_levels(g, 0, corrupt));
}

// --------------------------------------------------------------- direction

TEST(DirectionBfs, MatchesSequentialOnMesh) {
  auto g = micg::graph::make_grid_2d(40, 40);
  micg::bfs::direction_options opt;
  opt.ex.threads = 4;
  const auto seq = micg::bfs::seq_bfs(g, 5);
  const auto dir = micg::bfs::direction_optimizing_bfs(g, 5, opt);
  EXPECT_EQ(dir.level, seq.level);
  // One step per processed frontier, including the deepest level whose
  // expansion discovers nothing.
  EXPECT_EQ(dir.top_down_steps + dir.bottom_up_steps, seq.num_levels);
}

TEST(DirectionBfs, SwitchesToBottomUpOnRmat) {
  auto g = micg::graph::make_rmat(12, 16, 0.57, 0.19, 0.19, 3);
  vertex_t src = 0;
  while (g.degree(src) == 0) ++src;
  micg::bfs::direction_options opt;
  opt.ex.threads = 4;
  opt.alpha = 50.0;  // aggressive switch for the test
  const auto seq = micg::bfs::seq_bfs(g, src);
  const auto dir = micg::bfs::direction_optimizing_bfs(g, src, opt);
  EXPECT_EQ(dir.level, seq.level);
  EXPECT_GT(dir.bottom_up_steps, 0);
}

// The word-scan bottom-up steps and the queue top-down steps together
// must produce seq_bfs levels.
TEST(DirectionBfs, BitmapMatchesSequential) {
  struct Case {
    csr_graph g;
    vertex_t source;
    double alpha;
  };
  const Case cases[] = {
      {micg::graph::make_rmat(12, 16, 0.57, 0.19, 0.19, 3), 0, 50.0},
      {micg::graph::make_grid_2d(50, 50), 17, 14.0},
      {micg::graph::make_star(3000), 1, 14.0},
  };
  for (const auto& c : cases) {
    vertex_t src = c.source;
    while (c.g.degree(src) == 0) ++src;
    const auto seq = micg::bfs::seq_bfs(c.g, src);
    micg::bfs::direction_options opt;
    opt.ex.threads = 4;
    opt.alpha = c.alpha;
    const auto r = micg::bfs::direction_optimizing_bfs(c.g, src, opt);
    EXPECT_EQ(r.level, seq.level);
    EXPECT_EQ(r.reached, seq.reached);
    EXPECT_EQ(r.top_down_steps + r.bottom_up_steps, seq.num_levels);
    EXPECT_TRUE(micg::bfs::is_valid_bfs_levels(c.g, src, r.level));
  }
}

TEST(DirectionBfs, BitmapMatchesOnAllLayouts) {
  const auto g = micg::graph::make_rmat(11, 12, 0.57, 0.19, 0.19, 9);
  vertex_t src = 0;
  while (g.degree(src) == 0) ++src;
  const auto g32 = micg::graph::convert_csr<micg::graph::csr32>(g);
  const auto g64 = micg::graph::convert_csr<micg::graph::csr64>(g);
  int one_worker_top_down = -1;
  int one_worker_bottom_up = -1;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    micg::bfs::direction_options opt;
    opt.ex.threads = threads;
    opt.alpha = 30.0;
    const auto ref = micg::bfs::direction_optimizing_bfs(g, src, opt);
    const auto r32 = micg::bfs::direction_optimizing_bfs(
        g32, static_cast<std::int32_t>(src), opt);
    const auto r64 = micg::bfs::direction_optimizing_bfs(
        g64, static_cast<std::int64_t>(src), opt);
    EXPECT_EQ(r32.level, ref.level);
    EXPECT_EQ(r64.level, ref.level);
    EXPECT_GT(ref.bottom_up_steps, 0);
    // A switch is decided on an exact frontier total, so the step
    // sequence depends neither on the layout nor on how workers race.
    if (threads == 1) {
      one_worker_top_down = ref.top_down_steps;
      one_worker_bottom_up = ref.bottom_up_steps;
    }
    for (const auto* r : {&ref, &r32, &r64}) {
      EXPECT_EQ(r->top_down_steps, one_worker_top_down);
      EXPECT_EQ(r->bottom_up_steps, one_worker_bottom_up);
    }
  }
}

// Bouncing back to top-down after bottom-up exercises the bitmap -> queue
// frontier unpack; beta makes the final sparse tail switch back. The
// per-level spans record each step's direction, so the test checks that a
// top-down step really follows a bottom-up one.
TEST(DirectionBfs, BitmapHandlesDirectionBounce) {
  auto g = micg::graph::make_rmat(12, 8, 0.57, 0.19, 0.19, 21);
  vertex_t src = 0;
  while (g.degree(src) == 0) ++src;
  const auto seq = micg::bfs::seq_bfs(g, src);
  int one_worker_top_down = -1;
  int one_worker_bottom_up = -1;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    micg::obs::recorder rec;
    micg::bfs::direction_options opt;
    opt.ex.threads = threads;
    opt.ex.rec = &rec;
    opt.alpha = 100.0;  // switch down early...
    opt.beta = 2.0;     // ...and back up as the frontier thins
    const auto r = micg::bfs::direction_optimizing_bfs(g, src, opt);
    EXPECT_EQ(r.level, seq.level);
    EXPECT_TRUE(micg::bfs::is_valid_bfs_levels(g, src, r.level));
    EXPECT_GT(r.top_down_steps, 0);
    EXPECT_GT(r.bottom_up_steps, 0);
    if (threads == 1) {
      one_worker_top_down = r.top_down_steps;
      one_worker_bottom_up = r.bottom_up_steps;
    }
    EXPECT_EQ(r.top_down_steps, one_worker_top_down);
    EXPECT_EQ(r.bottom_up_steps, one_worker_bottom_up);
    bool seen_bottom_up = false;
    bool bounced = false;
    for (const auto& span : rec.take().spans) {
      const bool bottom_up = std::any_of(
          span.values.begin(), span.values.end(),
          [](const auto& kv) { return kv.first == "bottom_up"; });
      bounced = bounced || (seen_bottom_up && !bottom_up);
      seen_bottom_up = seen_bottom_up || bottom_up;
    }
    EXPECT_TRUE(bounced);
  }
}

}  // namespace
