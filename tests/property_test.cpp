// Property-based differential-oracle suite (docs/testing.md).
//
// One seeded sweep: every generator family x all three CSR layouts x the
// runtime backends, checked against the sequential oracles —
//   * every parallel BFS variant (layered, direction-optimizing, batched
//     multi-source) produces bfs::seq_bfs's levels exactly;
//   * every coloring algorithm passes color::verify on every backend;
//   * pagerank/spmv/heat match naive textbook references within 1e-12.
// The sweep seed comes from MICG_PROPERTY_SEED (default 48879); every
// assertion is wrapped in SCOPED_TRACE carrying the generator name and
// seed, so a CI failure line is reproducible locally with
//   MICG_PROPERTY_SEED=<seed> ./tests/property_test
//
// The final section pins the portable RNG's raw streams and generator
// fingerprints: the generators must draw only from support/rng.hpp
// (splitmix64/xoshiro/Lemire), never from libstdc++ distributions, so the
// same seed yields the same graph on every platform and standard library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "micg/bfs/direction.hpp"
#include "micg/bfs/landmark.hpp"
#include "micg/bfs/layered.hpp"
#include "micg/bfs/msbfs.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/bfs/sssp.hpp"
#include "micg/bfs/validate.hpp"
#include "micg/graph/components.hpp"
#include "micg/graph/weighted.hpp"
#include "micg/color/greedy.hpp"
#include "micg/color/iterative.hpp"
#include "micg/color/jones_plassmann.hpp"
#include "micg/color/verify.hpp"
#include "micg/graph/csr.hpp"
#include "micg/graph/generators.hpp"
#include "micg/irregular/heat.hpp"
#include "micg/irregular/pagerank.hpp"
#include "micg/irregular/spmv.hpp"
#include "micg/support/rng.hpp"

namespace {

using micg::graph::csr32;
using micg::graph::csr64;
using micg::graph::csr_graph;

std::uint64_t property_seed() {
  if (const char* v = std::getenv("MICG_PROPERTY_SEED")) {
    return std::strtoull(v, nullptr, 10);
  }
  return 48879;
}

struct generated_graph {
  std::string name;
  csr_graph g;
};

/// The sweep's generator families, with seed-perturbed shapes so different
/// seeds explore different sizes, degrees and structures.
std::vector<generated_graph> generate_sweep(std::uint64_t seed) {
  using namespace micg::graph;
  micg::splitmix64 mix(seed);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(mix.next() %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  };
  std::vector<generated_graph> out;
  out.push_back({"chain", make_chain(pick(50, 300))});
  out.push_back({"star", make_star(pick(50, 300))});
  out.push_back({"kary_tree", make_kary_tree(pick(2, 4), pick(4, 6))});
  out.push_back({"grid_2d", make_grid_2d(pick(8, 24), pick(8, 24))});
  out.push_back({"erdos_renyi",
                 make_erdos_renyi(pick(200, 800), 1.0 + 5.0 * (seed % 3),
                                  seed)});
  out.push_back({"rmat", make_rmat(pick(8, 10), 8, 0.57, 0.19, 0.19, seed)});
  fem_params fp;
  fp.sx = static_cast<vertex_t>(pick(4, 8));
  fp.sy = static_cast<vertex_t>(pick(4, 8));
  fp.sz = static_cast<vertex_t>(pick(3, 6));
  fp.stencil_pairs = pick(3, 13);
  fp.hub_degree = 8;
  fp.num_hubs = 4;
  out.push_back({"fem_like", make_fem_like(fp)});
  return out;
}

/// Run `fn(g, layout_name)` for the graph in all three shipped layouts.
template <typename F>
void for_each_layout(const csr_graph& g, F&& fn) {
  fn(micg::graph::convert_csr<csr32>(g), "csr32");
  fn(g, "csr32e64");
  fn(micg::graph::convert_csr<csr64>(g), "csr64");
}

class PropertySweep : public ::testing::Test {
 protected:
  static std::uint64_t seed_;
  static std::vector<generated_graph> graphs_;
  static void SetUpTestSuite() {
    seed_ = property_seed();
    graphs_ = generate_sweep(seed_);
  }
  static std::string trace(const generated_graph& gg,
                           const char* layout = nullptr) {
    std::string t = "generator=" + gg.name +
                    " seed=" + std::to_string(seed_);
    if (layout != nullptr) t += std::string(" layout=") + layout;
    return t;
  }
};
std::uint64_t PropertySweep::seed_ = 0;
std::vector<generated_graph> PropertySweep::graphs_;

// ------------------------------------------------- BFS differential oracle

TEST_F(PropertySweep, ParallelBfsVariantsMatchSeq) {
  for (const auto& gg : graphs_) {
    for_each_layout(gg.g, [&](const auto& g, const char* layout) {
      SCOPED_TRACE(trace(gg, layout));
      using VId = typename std::decay_t<decltype(g)>::vertex_type;
      const auto n = g.num_vertices();
      for (const VId source :
           {static_cast<VId>(0), static_cast<VId>(n / 2)}) {
        const auto ref = micg::bfs::seq_bfs(g, source);
        for (const auto variant : micg::bfs::all_bfs_variants()) {
          SCOPED_TRACE(std::string("variant=") +
                       micg::bfs::bfs_variant_name(variant) +
                       " source=" + std::to_string(source));
          micg::bfs::parallel_bfs_options opt;
          opt.variant = variant;
          opt.ex.threads = 4;
          const auto r = micg::bfs::parallel_bfs(g, source, opt);
          ASSERT_EQ(r.level, ref.level);
          EXPECT_EQ(r.num_levels, ref.num_levels);
          EXPECT_EQ(r.reached, ref.reached);
        }
        // Beamer's thresholds, then an early switch that bounces back.
        for (const auto [alpha, beta] : {std::pair{14.0, 24.0},
                                         std::pair{100.0, 2.0}}) {
          SCOPED_TRACE("variant=direction alpha=" + std::to_string(alpha) +
                       " source=" + std::to_string(source));
          micg::bfs::direction_options opt;
          opt.ex.threads = 4;
          opt.alpha = alpha;
          opt.beta = beta;
          const auto r =
              micg::bfs::direction_optimizing_bfs(g, source, opt);
          ASSERT_EQ(r.level, ref.level);
          EXPECT_EQ(r.reached, ref.reached);
          EXPECT_TRUE(micg::bfs::is_valid_bfs_levels(g, source, r.level));
        }
      }
    });
  }
}

TEST_F(PropertySweep, MsbfsLanesMatchSeqAcrossLaneCountsAndThreads) {
  for (const auto& gg : graphs_) {
    for_each_layout(gg.g, [&](const auto& g, const char* layout) {
      SCOPED_TRACE(trace(gg, layout));
      using VId = typename std::decay_t<decltype(g)>::vertex_type;
      const auto n = g.num_vertices();
      // 17 sources spanning the id range, with a duplicate pair: forces
      // batch tiling at every lane count and checks lane independence.
      std::vector<VId> sources;
      for (int i = 0; i < 16; ++i) {
        sources.push_back(static_cast<VId>(
            static_cast<std::int64_t>(i) * n / 16));
      }
      sources.push_back(sources[8]);
      for (const int lanes : {1, 3, 64}) {
        for (const int threads : {1, 4}) {
          SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                       " threads=" + std::to_string(threads));
          micg::bfs::msbfs_pool::options opt;
          opt.ex.threads = threads;
          opt.lanes = lanes;
          const micg::bfs::msbfs_pool pool(opt);
          const auto levels = pool.run_levels(
              g, std::span<const VId>(sources));
          ASSERT_EQ(levels.size(), sources.size());
          for (std::size_t s = 0; s < sources.size(); ++s) {
            const auto ref = micg::bfs::seq_bfs(g, sources[s]);
            ASSERT_EQ(levels[s], ref.level)
                << "source index " << s << " = " << sources[s];
          }
        }
      }
    });
  }
}

TEST_F(PropertySweep, MsbfsPoolTilesOver64SourcesMatchingSeq) {
  // Regression for the msbfs_pool tiling path: a batch list longer than
  // one 64-lane word must split into multiple batches whose lanes still
  // match a per-source seq_bfs exactly (including duplicate sources that
  // land in different batches).
  for (const auto& gg : graphs_) {
    for_each_layout(gg.g, [&](const auto& g, const char* layout) {
      SCOPED_TRACE(trace(gg, layout));
      using VId = typename std::decay_t<decltype(g)>::vertex_type;
      const auto n = g.num_vertices();
      std::vector<VId> sources;
      for (int i = 0; i < 70; ++i) {
        sources.push_back(static_cast<VId>(
            static_cast<std::int64_t>(i) * n / 70));
      }
      sources.push_back(sources[0]);   // duplicate across batch boundary
      sources.push_back(sources[65]);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        micg::bfs::msbfs_pool::options opt;
        opt.ex.threads = threads;
        opt.lanes = micg::bfs::msbfs_max_lanes;
        const micg::bfs::msbfs_pool pool(opt);
        const auto levels =
            pool.run_levels(g, std::span<const VId>(sources));
        ASSERT_EQ(levels.size(), sources.size());
        for (std::size_t s = 0; s < sources.size(); ++s) {
          const auto ref = micg::bfs::seq_bfs(g, sources[s]);
          ASSERT_EQ(levels[s], ref.level)
              << "source index " << s << " = " << sources[s];
        }
      }
    });
  }
}

// ---------------------------------------------- landmark distance bounds

TEST_F(PropertySweep, LandmarkBoundsBracketSeqDistances) {
  for (const auto& gg : graphs_) {
    for_each_layout(gg.g, [&](const auto& g, const char* layout) {
      SCOPED_TRACE(trace(gg, layout));
      using VId = typename std::decay_t<decltype(g)>::vertex_type;
      const auto n = static_cast<std::int64_t>(g.num_vertices());
      micg::bfs::landmark_options lo;
      lo.count = 8;
      lo.ex.threads = 4;
      const auto idx = micg::bfs::build_landmarks(g, lo);
      ASSERT_GE(idx.count(), 1);
      ASSERT_EQ(idx.num_vertices(), n);

      // Pivot rows are exactly the pivot's seq_bfs levels.
      const auto p0 = idx.pivots().front();
      const auto pref = micg::bfs::seq_bfs(g, static_cast<VId>(p0));
      for (std::int64_t v = 0; v < n; v += std::max<std::int64_t>(n / 7, 1)) {
        ASSERT_EQ(idx.pivot_level(0, v),
                  pref.level[static_cast<std::size_t>(v)]);
      }

      // Sampled pairs: the estimate must bracket the true distance and
      // its exact/disjoint claims must be right.
      const std::int64_t stride = std::max<std::int64_t>(n / 5, 1);
      for (std::int64_t u = 0; u < n; u += stride) {
        const auto ref = micg::bfs::seq_bfs(g, static_cast<VId>(u));
        for (std::int64_t v = 0; v < n; v += stride) {
          SCOPED_TRACE("u=" + std::to_string(u) + " v=" + std::to_string(v));
          const auto est = idx.estimate(u, v);
          const int d = ref.level[static_cast<std::size_t>(v)];
          if (est.disjoint) {
            EXPECT_EQ(d, -1);
            EXPECT_TRUE(est.exact);
          } else if (d >= 0) {
            if (est.upper >= 0) {
              EXPECT_LE(est.lower, d);
              EXPECT_GE(est.upper, d);
            }
            if (est.exact) {
              EXPECT_EQ(est.upper, d);
            }
          }
          if (u == v) {
            EXPECT_TRUE(est.exact);
            EXPECT_EQ(est.upper, 0);
          }
        }
      }
    });
  }
}

// ------------------------------------------------------- coloring oracles

TEST_F(PropertySweep, EveryColoringAlgorithmIsValidOnEveryBackend) {
  for (const auto& gg : graphs_) {
    for_each_layout(gg.g, [&](const auto& g, const char* layout) {
      SCOPED_TRACE(trace(gg, layout));
      const int bound = static_cast<int>(g.max_degree()) + 1;
      auto check = [&](const std::vector<int>& color, int num_colors,
                       const std::string& algo) {
        SCOPED_TRACE("algorithm=" + algo);
        EXPECT_TRUE(micg::color::is_valid_coloring(g, color));
        EXPECT_TRUE(micg::color::find_conflicts(g, color).empty());
        EXPECT_LE(num_colors, bound);
        if (g.num_edges() > 0) EXPECT_GE(num_colors, 2);
      };
      const auto greedy = micg::color::greedy_color(g);
      check(greedy.color, greedy.num_colors, "greedy");
      for (const auto b : micg::rt::all_backends()) {
        micg::color::iterative_options opt;
        opt.ex.kind = b;
        opt.ex.threads = 4;
        opt.ex.chunk = 64;
        const auto it = micg::color::iterative_color(g, opt);
        check(it.color, it.num_colors,
              std::string("iterative/") + micg::rt::backend_name(b));
      }
      micg::color::jp_options jp;
      jp.ex.threads = 4;
      jp.seed = seed_ + 1;
      const auto j = micg::color::jones_plassmann_color(g, jp);
      check(j.color, j.num_colors, "jones_plassmann");
    });
  }
}

// --------------------------------------------- irregular-kernel references

/// Textbook power iteration with the library's exact update rule
/// (dangling mass redistributed, L1 convergence test).
std::vector<double> naive_pagerank(const csr_graph& g, double damping,
                                   double tolerance, int max_iterations) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (int it = 0; it < max_iterations; ++it) {
    double dangling = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (g.degree(static_cast<std::int32_t>(v)) == 0) dangling += rank[v];
    }
    const double base = (1.0 - damping) / static_cast<double>(n) +
                        damping * dangling / static_cast<double>(n);
    double delta = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      double sum = 0.0;
      for (const auto w : g.neighbors(static_cast<std::int32_t>(v))) {
        sum += rank[static_cast<std::size_t>(w)] /
               static_cast<double>(g.degree(w));
      }
      next[v] = base + damping * sum;
      delta += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    if (delta < tolerance) break;
  }
  return rank;
}

std::vector<double> seeded_vector(std::size_t n, std::uint64_t seed) {
  micg::xoshiro256ss rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform();
  return x;
}

TEST_F(PropertySweep, PagerankMatchesNaiveReference) {
  for (const auto& gg : graphs_) {
    const auto ref = naive_pagerank(gg.g, 0.85, 1e-10, 50);
    for_each_layout(gg.g, [&](const auto& g, const char* layout) {
      for (const auto kind :
           {micg::rt::backend::omp_dynamic, micg::rt::backend::tbb_simple}) {
        SCOPED_TRACE(trace(gg, layout) + " backend=" +
                     micg::rt::backend_name(kind));
        micg::irregular::pagerank_options opt;
        opt.ex.kind = kind;
        opt.ex.threads = 4;
        opt.tolerance = 1e-10;
        opt.max_iterations = 50;
        const auto r = micg::irregular::pagerank(g, opt);
        ASSERT_EQ(r.rank.size(), ref.size());
        for (std::size_t v = 0; v < ref.size(); ++v) {
          ASSERT_NEAR(r.rank[v], ref[v], 1e-12) << "vertex " << v;
        }
      }
    });
  }
}

TEST_F(PropertySweep, SpmvMatchesNaiveReference) {
  for (const auto& gg : graphs_) {
    const auto n = static_cast<std::size_t>(gg.g.num_vertices());
    const auto x = seeded_vector(n, seed_ + 17);
    for_each_layout(gg.g, [&](const auto& g, const char* layout) {
      SCOPED_TRACE(trace(gg, layout));
      using VId = typename std::decay_t<decltype(g)>::vertex_type;
      for (const auto matrix : {micg::irregular::spmv_matrix::adjacency,
                                micg::irregular::spmv_matrix::random_walk}) {
        micg::rt::exec ex;
        ex.threads = 4;
        const auto y = micg::irregular::spmv(g, x, ex, matrix);
        ASSERT_EQ(y.size(), n);
        for (std::size_t v = 0; v < n; ++v) {
          const auto vid = static_cast<VId>(v);
          double sum = 0.0;
          for (const auto w : g.neighbors(vid)) {
            sum += x[static_cast<std::size_t>(w)];
          }
          if (matrix == micg::irregular::spmv_matrix::random_walk &&
              g.degree(vid) > 0) {
            sum /= static_cast<double>(g.degree(vid));
          }
          ASSERT_NEAR(y[v], sum, 1e-12) << "vertex " << v;
        }
      }
    });
  }
}

TEST_F(PropertySweep, HeatDiffusionMatchesNaiveReference) {
  for (const auto& gg : graphs_) {
    const auto n = static_cast<std::size_t>(gg.g.num_vertices());
    const auto init = seeded_vector(n, seed_ + 23);
    // Naive explicit Euler, double-buffered.
    std::vector<double> ref = init;
    std::vector<double> buf(n);
    const double alpha = 0.04;
    const int steps = 3;
    for (int s = 0; s < steps; ++s) {
      for (std::size_t v = 0; v < n; ++v) {
        double acc = 0.0;
        for (const auto w :
             gg.g.neighbors(static_cast<std::int32_t>(v))) {
          acc += ref[static_cast<std::size_t>(w)] - ref[v];
        }
        buf[v] = ref[v] + alpha * acc;
      }
      ref.swap(buf);
    }
    for_each_layout(gg.g, [&](const auto& g, const char* layout) {
      SCOPED_TRACE(trace(gg, layout));
      micg::irregular::heat_options opt;
      opt.ex.threads = 4;
      opt.alpha = alpha;
      opt.steps = steps;
      const auto u = micg::irregular::heat_diffusion(g, init, opt);
      ASSERT_EQ(u.size(), n);
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_NEAR(u[v], ref[v], 1e-12) << "vertex " << v;
      }
    });
  }
}

// ------------------------------------- weighted workloads (SSSP and CC)

// Delta-stepping is exact for ANY bucket width (bfs/sssp.hpp): every
// family x every layout x (backend, threads) combos x deltas spanning
// Dijkstra-with-buckets (1) to Bellman-Ford (2^20) must reproduce the
// sequential Dijkstra oracle's int64 distances EXACTLY — integer weights,
// EXPECT_EQ, no tolerance.
TEST_F(PropertySweep, DeltaSteppingMatchesDijkstraAcrossBackendsAndDeltas) {
  for (const auto& gg : graphs_) {
    for_each_layout(gg.g, [&](const auto& g, const char* layout) {
      SCOPED_TRACE(trace(gg, layout));
      using VId = typename std::decay_t<decltype(g)>::vertex_type;
      micg::graph::weight_params wp;
      wp.seed = seed_ + 31;
      const auto w = micg::graph::generate_weights(g, wp);
      ASSERT_NO_THROW(micg::graph::validate_weights(
          g, std::span<const micg::graph::weight_t>(w)));
      const auto source = static_cast<VId>(g.num_vertices() / 2);
      const auto ref = micg::bfs::seq_dijkstra(
          g, source, std::span<const micg::graph::weight_t>(w));
      struct combo {
        micg::rt::backend kind;
        int threads;
      };
      for (const combo c : {combo{micg::rt::backend::omp_dynamic, 1},
                            combo{micg::rt::backend::omp_dynamic, 4},
                            combo{micg::rt::backend::tbb_simple, 4}}) {
        for (const std::int64_t delta :
             {std::int64_t{1}, std::int64_t{7}, std::int64_t{1} << 20}) {
          SCOPED_TRACE(std::string("backend=") +
                       micg::rt::backend_name(c.kind) +
                       " threads=" + std::to_string(c.threads) +
                       " delta=" + std::to_string(delta));
          micg::bfs::sssp_options opt;
          opt.ex.kind = c.kind;
          opt.ex.threads = c.threads;
          opt.delta = delta;
          const auto r = micg::bfs::delta_stepping_sssp(
              g, source, std::span<const micg::graph::weight_t>(w), opt);
          ASSERT_EQ(r.dist, ref);
          EXPECT_EQ(r.delta, delta);
          EXPECT_GE(r.buckets, 1);
        }
      }
    });
  }
}

// The knob invariance the api layer relies on: whatever
// tune::pick_sssp_delta would choose, and whatever order buckets are
// drained in across thread counts, the distance vector is one fixed
// function of (graph, weights, source).
TEST_F(PropertySweep, SsspDistancesInvariantAcrossDeltaAndThreads) {
  for (const auto& gg : graphs_) {
    SCOPED_TRACE(trace(gg));
    micg::graph::weight_params wp;
    wp.seed = seed_ + 37;
    wp.max_weight = 31;  // narrow range: many ties, adversarial ordering
    const auto w = micg::graph::generate_weights(gg.g, wp);
    const auto source =
        static_cast<std::int32_t>(gg.g.num_vertices() / 3);
    std::vector<std::int64_t> first;
    for (const std::int64_t delta : {std::int64_t{1}, std::int64_t{5},
                                     std::int64_t{64}}) {
      for (const int threads : {1, 3, 4}) {
        SCOPED_TRACE("delta=" + std::to_string(delta) +
                     " threads=" + std::to_string(threads));
        micg::bfs::sssp_options opt;
        opt.ex.threads = threads;
        opt.delta = delta;
        const auto r = micg::bfs::delta_stepping_sssp(
            gg.g, source, std::span<const micg::graph::weight_t>(w), opt);
        if (first.empty()) {
          first = r.dist;
        } else {
          ASSERT_EQ(r.dist, first);
        }
      }
    }
  }
}

/// Sequential union-find with the same canonical labeling the parallel
/// kernel promises: label[v] = smallest vertex id in v's component.
template <class G>
std::vector<typename G::vertex_type> union_find_labels(const G& g) {
  using VId = typename G::vertex_type;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::size_t> parent(n);
  for (std::size_t v = 0; v < n; ++v) parent[v] = v;
  std::function<std::size_t(std::size_t)> find =
      [&](std::size_t x) -> std::size_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t v = 0; v < n; ++v) {
    for (const auto u : g.neighbors(static_cast<VId>(v))) {
      const auto a = find(v);
      const auto b = find(static_cast<std::size_t>(u));
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  // Ascending scan: the first vertex hitting a root is the component's
  // smallest member, i.e. the canonical label.
  std::vector<VId> label(n);
  std::vector<VId> canon(n, VId{-1});
  for (std::size_t v = 0; v < n; ++v) {
    const auto r = find(v);
    if (canon[r] < 0) canon[r] = static_cast<VId>(v);
    label[v] = canon[r];
  }
  return label;
}

TEST_F(PropertySweep, ParallelComponentsMatchUnionFindOracle) {
  for (const auto& gg : graphs_) {
    for_each_layout(gg.g, [&](const auto& g, const char* layout) {
      SCOPED_TRACE(trace(gg, layout));
      const auto ref = union_find_labels(g);
      std::size_t expected = 0;
      for (std::size_t v = 0; v < ref.size(); ++v) {
        if (ref[v] == static_cast<std::int64_t>(v)) ++expected;
      }
      for (const auto kind :
           {micg::rt::backend::omp_dynamic, micg::rt::backend::tbb_simple}) {
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(std::string("backend=") +
                       micg::rt::backend_name(kind) +
                       " threads=" + std::to_string(threads));
          micg::rt::exec ex;
          ex.kind = kind;
          ex.threads = threads;
          const auto r = micg::graph::parallel_components(g, ex);
          ASSERT_EQ(r.label, ref);
          EXPECT_EQ(static_cast<std::size_t>(r.num_components), expected);
        }
      }
    });
  }
}

// The weight stream is a pure function of {seed, endpoint pair}: equal in
// every layout (the oracle equality above depends on it) and across
// regeneration — the property the serving layer's compaction-stable
// weighted snapshots rest on.
TEST_F(PropertySweep, WeightStreamIsLayoutInvariantAndSymmetric) {
  for (const auto& gg : graphs_) {
    SCOPED_TRACE(trace(gg));
    micg::graph::weight_params wp;
    wp.seed = seed_ + 41;
    const auto ref = micg::graph::generate_weights(gg.g, wp);
    for_each_layout(gg.g, [&](const auto& g, const char* layout) {
      SCOPED_TRACE(std::string("layout=") + layout);
      const auto w = micg::graph::generate_weights(g, wp);
      ASSERT_EQ(w, ref);
      ASSERT_NO_THROW(micg::graph::validate_weights(
          g, std::span<const micg::graph::weight_t>(w)));
    });
    // A different seed must actually move the stream.
    micg::graph::weight_params other = wp;
    other.seed = wp.seed + 1;
    if (gg.g.num_directed_edges() > 0) {
      EXPECT_NE(micg::graph::generate_weights(gg.g, other), ref);
    }
  }
}

// ------------------------------------------------ portable-RNG lock-in

// Raw stream pins: these values are the output of the repo's own
// splitmix64/xoshiro256**/Lemire implementations, which depend on no
// standard-library distribution. If any of these change, seeded graphs
// (and every golden file derived from them) silently change too.
TEST(RngLockIn, Splitmix64Stream) {
  micg::splitmix64 sm(42);
  EXPECT_EQ(sm.next(), 13679457532755275413ULL);
  EXPECT_EQ(sm.next(), 2949826092126892291ULL);
  EXPECT_EQ(sm.next(), 5139283748462763858ULL);
}

TEST(RngLockIn, Xoshiro256Stream) {
  micg::xoshiro256ss x(7);
  EXPECT_EQ(x.next(), 12923355070828475994ULL);
  EXPECT_EQ(x.next(), 5142052590334782674ULL);
  EXPECT_EQ(x.below(1000), 839u);
  EXPECT_EQ(x.below(1000), 981u);
  EXPECT_DOUBLE_EQ(x.uniform(), 0.99086027883306826);
}

std::uint64_t fnv1a(std::span<const std::int32_t> values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto v : values) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(RngLockIn, SeededGeneratorsAreStable) {
  const auto er = micg::graph::make_erdos_renyi(500, 5.0, 99);
  EXPECT_EQ(er.num_directed_edges(), 2474);
  EXPECT_EQ(fnv1a(er.adj()), 14348883548823013793ULL);
  const auto rm = micg::graph::make_rmat(9, 8, 0.57, 0.19, 0.19, 99);
  EXPECT_EQ(rm.num_vertices(), 512);
  EXPECT_EQ(rm.num_directed_edges(), 5506);
  EXPECT_EQ(fnv1a(rm.adj()), 3245604257454180762ULL);
}

// Weight-stream pins: edge weights are one splitmix64 step over the
// seeded endpoint-pair hash (graph/weighted.hpp). If any of these change,
// every weighted golden and BENCH_sssp.json figure silently changes too.
// Failures reproduce locally with MICG_PROPERTY_SEED=<seed> (the weighted
// sweep above); these raw pins are seed-independent.
TEST(RngLockIn, WeightStreamIsStable) {
  const micg::graph::weight_params wp;  // seed=1, range [1, 255]
  EXPECT_EQ(micg::graph::edge_weight(wp, 0, 1), 162);
  EXPECT_EQ(micg::graph::edge_weight(wp, 1, 0), 162);  // symmetric by def.
  EXPECT_EQ(micg::graph::edge_weight(wp, 0, 2), 206);
  EXPECT_EQ(micg::graph::edge_weight(wp, 123456789, 987654321), 71);
  micg::graph::weight_params other = wp;
  other.seed = 2;
  EXPECT_EQ(micg::graph::edge_weight(other, 0, 1), 209);

  const auto er = micg::graph::make_erdos_renyi(500, 5.0, 99);
  const auto w = micg::graph::generate_weights(er, wp);
  ASSERT_EQ(w.size(), 2474u);
  EXPECT_EQ(fnv1a(std::span<const std::int32_t>(w)),
            546347147370484235ULL);
}

TEST(RngLockIn, SameSeedSameGraphDifferentSeedDifferentGraph) {
  const auto a = micg::graph::make_erdos_renyi(400, 6.0, 5);
  const auto b = micg::graph::make_erdos_renyi(400, 6.0, 5);
  const auto c = micg::graph::make_erdos_renyi(400, 6.0, 6);
  EXPECT_EQ(fnv1a(a.adj()), fnv1a(b.adj()));
  EXPECT_NE(fnv1a(a.adj()), fnv1a(c.adj()));
}

}  // namespace
