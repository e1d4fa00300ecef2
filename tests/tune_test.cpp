// The auto-tuner: knob-picker decision table on synthetic profiles,
// micg.calib.v1 round-trip and schema validation, the machine_config
// projection, the one-sweep graph probe against naive recomputation, the
// epoch-keyed stats cache, and the central output-invariance property —
// `--tune auto` (and `calibrate`) must be bit-identical to `--tune fixed`
// for every tuned kernel, in every shipped layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "micg/api/api.hpp"
#include "micg/graph/any_csr.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/stats.hpp"
#include "micg/obs/obs.hpp"
#include "micg/support/assert.hpp"
#include "micg/tune/calib.hpp"
#include "micg/tune/tune.hpp"

namespace {

using micg::graph::any_csr;
using micg::graph::csr_layout;
using micg::graph::graph_stats;
using micg::tune::calibration_profile;
using micg::tune::gather_point;
using micg::tune::knob_plan;
using micg::tune::pick_knobs;
using micg::tune::tune_mode;

// ------------------------------------------------------ synthetic inputs

/// Out-of-order host: SIMD gathers win, software prefetch loses (the
/// machine class the shipped static defaults were tuned on).
calibration_profile ooo_profile() {
  calibration_profile p;
  p.host = "test-ooo";
  p.isa = "test";
  p.threads = 4;
  p.synthetic = true;
  p.alu_ns = 0.4;
  p.stream_gbps = 12.0;
  p.gather_latency_ns = 80.0;
  p.chunk_claim_ns = 40.0;
  p.spawn_ns = 120.0;
  p.gather.push_back({.working_set_bytes = 256 << 10,
                      .plain_gbps = 6.0,
                      .simd_gbps = 7.5,
                      .prefetch8_gbps = 5.8,
                      .prefetch32_gbps = 5.6});
  p.gather.push_back({.working_set_bytes = 64 << 20,
                      .plain_gbps = 1.2,
                      .simd_gbps = 1.5,
                      .prefetch8_gbps = 1.15,
                      .prefetch32_gbps = 1.1});
  return p;
}

/// In-order host (the paper's KNF shape): gathers stall on every miss, so
/// software prefetch multiplies throughput while the emulated vector
/// gather path runs slower than scalar.
calibration_profile inorder_profile() {
  calibration_profile p = ooo_profile();
  p.host = "test-inorder";
  p.gather.clear();
  p.gather.push_back({.working_set_bytes = 256 << 10,
                      .plain_gbps = 1.0,
                      .simd_gbps = 0.95,
                      .prefetch8_gbps = 2.0,
                      .prefetch32_gbps = 3.0});
  return p;
}

/// Mesh-shaped stats: regular degrees, no hubs, narrow frontiers.
graph_stats mesh_stats() {
  graph_stats st;
  st.num_vertices = 10000;
  st.num_directed_edges = 40000;
  st.min_degree = 4;
  st.max_degree = 4;
  st.avg_degree = 4.0;
  st.hub_edge_fraction = 0.01;
  return st;
}

/// RMAT-shaped stats: heavy skew, hubs own half the edges.
graph_stats rmat_stats() {
  graph_stats st;
  st.num_vertices = 4096;
  st.num_directed_edges = 4096 * 16;
  st.min_degree = 0;
  st.max_degree = 2000;
  st.avg_degree = 16.0;
  st.hub_edge_fraction = 0.5;
  return st;
}

// ------------------------------------------------- knob-picker decisions

TEST(PickKnobs, OooMeshKeepsShippedDefaults) {
  const knob_plan plan = pick_knobs(ooo_profile(), mesh_stats());
  EXPECT_TRUE(plan.mem.simd);
  EXPECT_EQ(plan.mem.prefetch_distance, 0);
  EXPECT_EQ(plan.mem.partition, micg::rt::partition_mode::vertex);
  EXPECT_EQ(plan.layout, csr_layout::v32e32);
  EXPECT_FALSE(plan.rationale.empty());
}

TEST(PickKnobs, OooRmatPicksEdgeBalance) {
  const knob_plan plan = pick_knobs(ooo_profile(), rmat_stats());
  EXPECT_TRUE(plan.mem.simd);
  EXPECT_EQ(plan.mem.prefetch_distance, 0);
  EXPECT_EQ(plan.mem.partition, micg::rt::partition_mode::edge);
}

TEST(PickKnobs, InOrderPicksPrefetch) {
  const knob_plan plan = pick_knobs(inorder_profile(), mesh_stats());
  // pf32 at 3.0 (scalar base ~1.0) beats the simd/pf0 default (1.05) by
  // far more than the hysteresis margin.
  EXPECT_EQ(plan.mem.prefetch_distance, 32);
  EXPECT_FALSE(plan.mem.simd);
}

TEST(PickKnobs, HysteresisKeepsDefaultOnMarginalWins) {
  calibration_profile p = ooo_profile();
  p.gather.clear();
  // pf8 "wins" by 2% over the simd default — within noise, keep default.
  p.gather.push_back({.working_set_bytes = 256 << 10,
                      .plain_gbps = 6.0,
                      .simd_gbps = 6.0,
                      .prefetch8_gbps = 6.12,
                      .prefetch32_gbps = 5.0});
  const knob_plan plan = pick_knobs(p, mesh_stats());
  EXPECT_TRUE(plan.mem.simd);
  EXPECT_EQ(plan.mem.prefetch_distance, 0);
}

TEST(PickKnobs, ChunkIsClampedPowerOfTwo) {
  calibration_profile p = ooo_profile();
  // Free chunk claims -> the floor (the shipped default of 64).
  p.chunk_claim_ns = 0.001;
  EXPECT_EQ(pick_knobs(p, mesh_stats()).chunk, 64);
  // Absurdly expensive claims -> the ceiling, still a power of two.
  p.chunk_claim_ns = 1e6;
  EXPECT_EQ(pick_knobs(p, mesh_stats()).chunk, 8192);
  // In between: a power of two in range.
  p.chunk_claim_ns = 40.0;
  const std::int64_t c = pick_knobs(p, mesh_stats()).chunk;
  EXPECT_GE(c, 64);
  EXPECT_LE(c, 8192);
  EXPECT_EQ(c & (c - 1), 0) << "chunk " << c << " is not a power of two";
}

TEST(PickKnobs, LayoutFollowsNarrowestFitRule) {
  graph_stats st = mesh_stats();
  st.num_directed_edges = (std::int64_t{1} << 31) + 10;
  EXPECT_EQ(pick_knobs(ooo_profile(), st).layout, csr_layout::v32e64);
  st.num_vertices = (std::int64_t{1} << 32);
  EXPECT_EQ(pick_knobs(ooo_profile(), st).layout, csr_layout::v64e64);
}

TEST(PickKnobs, BuiltinDefaultProfileReproducesShippedDefaults) {
  // The fallback profile must be shaped so auto-tuning without any
  // calibration file behaves exactly like the hand-tuned defaults.
  for (const graph_stats& st : {mesh_stats(), rmat_stats()}) {
    const knob_plan plan = pick_knobs(micg::tune::default_profile(), st);
    EXPECT_TRUE(plan.mem.simd);
    EXPECT_EQ(plan.mem.prefetch_distance, 0);
  }
}

TEST(PickKnobs, SummaryMentionsEveryKnob) {
  const std::string s =
      micg::tune::knobs_summary(pick_knobs(ooo_profile(), rmat_stats()));
  EXPECT_NE(s.find("edge"), std::string::npos);
  EXPECT_NE(s.find("simd"), std::string::npos);
  EXPECT_NE(s.find("chunk"), std::string::npos);
}

// ------------------------------------------------------- mode resolution

TEST(TuneMode, NamesRoundTrip) {
  for (tune_mode m :
       {tune_mode::fixed, tune_mode::auto_pick, tune_mode::calibrate}) {
    EXPECT_EQ(micg::tune::tune_mode_from_name(micg::tune::tune_mode_name(m)),
              m);
  }
  EXPECT_THROW(micg::tune::tune_mode_from_name("turbo"), micg::check_error);
}

TEST(TuneMode, ResolutionOrderFieldThenEnvThenFixed) {
  const char* saved = std::getenv("MICG_TUNE");
  const std::string saved_copy = saved != nullptr ? saved : "";
  ::unsetenv("MICG_TUNE");
  EXPECT_EQ(micg::tune::resolve_tune_mode(""), tune_mode::fixed);
  EXPECT_EQ(micg::tune::resolve_tune_mode("auto"), tune_mode::auto_pick);
  ::setenv("MICG_TUNE", "calibrate", 1);
  EXPECT_EQ(micg::tune::resolve_tune_mode(""), tune_mode::calibrate);
  // An explicit request field outranks the environment.
  EXPECT_EQ(micg::tune::resolve_tune_mode("fixed"), tune_mode::fixed);
  ::setenv("MICG_TUNE", "bogus", 1);
  EXPECT_THROW(micg::tune::resolve_tune_mode(""), micg::check_error);
  if (saved != nullptr) {
    ::setenv("MICG_TUNE", saved_copy.c_str(), 1);
  } else {
    ::unsetenv("MICG_TUNE");
  }
}

// -------------------------------------------------- micg.calib.v1 schema

TEST(CalibSchema, RoundTripPreservesEveryField) {
  const calibration_profile p = ooo_profile();
  const calibration_profile q =
      micg::tune::profile_from_json(micg::tune::to_json(p));
  EXPECT_EQ(q.host, p.host);
  EXPECT_EQ(q.isa, p.isa);
  EXPECT_EQ(q.threads, p.threads);
  EXPECT_EQ(q.synthetic, p.synthetic);
  EXPECT_DOUBLE_EQ(q.alu_ns, p.alu_ns);
  EXPECT_DOUBLE_EQ(q.stream_gbps, p.stream_gbps);
  EXPECT_DOUBLE_EQ(q.gather_latency_ns, p.gather_latency_ns);
  EXPECT_DOUBLE_EQ(q.chunk_claim_ns, p.chunk_claim_ns);
  EXPECT_DOUBLE_EQ(q.spawn_ns, p.spawn_ns);
  ASSERT_EQ(q.gather.size(), p.gather.size());
  for (std::size_t i = 0; i < p.gather.size(); ++i) {
    EXPECT_EQ(q.gather[i].working_set_bytes, p.gather[i].working_set_bytes);
    EXPECT_DOUBLE_EQ(q.gather[i].plain_gbps, p.gather[i].plain_gbps);
    EXPECT_DOUBLE_EQ(q.gather[i].simd_gbps, p.gather[i].simd_gbps);
    EXPECT_DOUBLE_EQ(q.gather[i].prefetch8_gbps, p.gather[i].prefetch8_gbps);
    EXPECT_DOUBLE_EQ(q.gather[i].prefetch32_gbps,
                     p.gather[i].prefetch32_gbps);
  }
}

TEST(CalibSchema, TextRoundTripThroughDump) {
  const calibration_profile p = ooo_profile();
  const std::string text = micg::tune::to_json(p).dump();
  const calibration_profile q =
      micg::tune::profile_from_json(micg::api::json::parse(text));
  EXPECT_EQ(micg::tune::to_json(q).dump(), text);
}

TEST(CalibSchema, RejectsMalformedProfiles) {
  const calibration_profile p = ooo_profile();
  {
    micg::api::json v = micg::tune::to_json(p);
    v.set("schema", micg::api::json("micg.calib.v999"));
    EXPECT_THROW(micg::tune::profile_from_json(v), micg::check_error);
  }
  {
    micg::api::json v = micg::tune::to_json(p);
    v.set("stream_gbps", micg::api::json(-1.0));
    EXPECT_THROW(micg::tune::profile_from_json(v), micg::check_error);
  }
  {
    calibration_profile bad = p;
    std::swap(bad.gather.front(), bad.gather.back());  // unsorted
    EXPECT_THROW(micg::tune::profile_from_json(micg::tune::to_json(bad)),
                 micg::check_error);
  }
  {
    calibration_profile bad = p;
    bad.gather.clear();
    EXPECT_THROW(micg::tune::profile_from_json(micg::tune::to_json(bad)),
                 micg::check_error);
  }
}

TEST(CalibSchema, GatherNearPicksLogScaleNearest) {
  const calibration_profile p = ooo_profile();  // points at 256 KiB, 64 MiB
  EXPECT_EQ(p.gather_near(1 << 20)->working_set_bytes, 256 << 10);
  EXPECT_EQ(p.gather_near(16 << 20)->working_set_bytes, 64 << 20);
  EXPECT_EQ(p.gather_near(1)->working_set_bytes, 256 << 10);
  EXPECT_EQ(p.gather_near(std::int64_t{1} << 40)->working_set_bytes,
            64 << 20);
}

TEST(CalibSchema, MachineConfigProjection) {
  const calibration_profile p = ooo_profile();
  const micg::model::machine_config mc = micg::tune::to_machine_config(p);
  // 1.0 model unit == one ALU op == alu_ns wall nanoseconds.
  EXPECT_NEAR(mc.mem_latency, p.gather_latency_ns / p.alu_ns, 1e-9);
  EXPECT_EQ(mc.cores, p.threads);
  EXPECT_EQ(mc.smt, 1);
  EXPECT_GT(mc.mlp, 0);
  EXPECT_GT(mc.chip_mem_ops_per_unit, 0.0);
}

// ------------------------------------------------------- the graph probe

TEST(GraphStats, MatchesNaiveRecomputationOnRmat) {
  const auto g = micg::graph::make_rmat(8, 8, 0.57, 0.19, 0.19, 7);
  const graph_stats st = micg::graph::compute_graph_stats(g);
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  ASSERT_EQ(st.num_vertices, n);
  EXPECT_EQ(st.num_directed_edges,
            static_cast<std::int64_t>(g.xadj().back()));

  std::int64_t mn = n, mx = 0, hist_total = 0;
  double sum = 0.0;
  for (std::int64_t v = 0; v < n; ++v) {
    const auto d = static_cast<std::int64_t>(
        g.degree(static_cast<micg::graph::vertex_t>(v)));
    mn = std::min(mn, d);
    mx = std::max(mx, d);
    sum += static_cast<double>(d);
  }
  EXPECT_EQ(st.min_degree, mn);
  EXPECT_EQ(st.max_degree, mx);
  EXPECT_DOUBLE_EQ(st.avg_degree, sum / static_cast<double>(n));
  for (const auto c : st.degree_log2_hist) hist_total += c;
  EXPECT_EQ(hist_total, n) << "histogram must count every vertex once";
  EXPECT_GE(st.degree_stddev, 0.0);
  EXPECT_GT(st.skew(), 1.0);
  EXPECT_GT(st.hub_edge_fraction, 0.0);
  EXPECT_LE(st.hub_edge_fraction, 1.0);
}

TEST(GraphStats, StarGraphShape) {
  const auto g = micg::graph::make_star(100);  // center 0, 99 leaves
  const graph_stats st = micg::graph::compute_graph_stats(g);
  EXPECT_EQ(st.max_degree, 99);
  EXPECT_EQ(st.min_degree, 1);
  ASSERT_FALSE(st.top_vertices.empty());
  EXPECT_EQ(st.top_vertices.front(), 0);  // the hub leads the top-k table
  // Top-64 = hub (99 edges) + 63 leaves (1 each) of 198 directed edges.
  EXPECT_NEAR(st.hub_edge_fraction, (99.0 + 63.0) / 198.0, 1e-12);
}

TEST(GraphStats, TopDegreeVerticesMatchesSortRule) {
  const auto g = micg::graph::make_rmat(7, 8, 0.57, 0.19, 0.19, 11);
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  const auto top = micg::graph::top_degree_vertices(g, 10);
  ASSERT_EQ(top.size(), 10u);
  std::vector<std::int64_t> all(static_cast<std::size_t>(n));
  for (std::int64_t v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
  std::sort(all.begin(), all.end(), [&](std::int64_t a, std::int64_t b) {
    const auto da = g.degree(static_cast<micg::graph::vertex_t>(a));
    const auto db = g.degree(static_cast<micg::graph::vertex_t>(b));
    return da != db ? da > db : a < b;
  });
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(static_cast<std::int64_t>(top[i]), all[i]) << "rank " << i;
  }
}

TEST(GraphStats, CacheIsEpochKeyed) {
  micg::graph::stats_cache cache;
  const any_csr g(micg::graph::make_star(50));
  const auto a = cache.get("g", 1, g);
  const auto b = cache.get("g", 1, g);
  EXPECT_EQ(a.get(), b.get()) << "same epoch must share the probe";
  const auto c = cache.get("g", 2, g);
  EXPECT_NE(a.get(), c.get()) << "a new epoch must re-probe";
  EXPECT_EQ(cache.size(), 1u) << "one entry per key, not per epoch";
  cache.get("h", 1, g);
  EXPECT_EQ(cache.size(), 2u);
}

// -------------------------------------- output invariance (the contract)
//
// Auto-tuning may only change *how* a kernel runs, never what it returns.
// Sweep the api layer — the exact code path the CLI and server execute —
// across tune modes, layouts and graph shapes, and require bit-identical
// responses.

class TuneInvariance : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Hermetic: the builtin default profile, no env-forced mode.
    ::unsetenv("MICG_TUNE");
    ::unsetenv("MICG_CALIB");
  }

  static std::vector<std::pair<std::string, micg::graph::csr_graph>>
  shapes() {
    std::vector<std::pair<std::string, micg::graph::csr_graph>> out;
    out.emplace_back("rmat", micg::graph::make_rmat(9, 8, 0.57, 0.19, 0.19,
                                                    42));
    out.emplace_back("grid", micg::graph::make_grid_2d(24, 24));
    out.emplace_back("star", micg::graph::make_star(512));
    return out;
  }

  static constexpr csr_layout kLayouts[] = {
      csr_layout::v32e32, csr_layout::v32e64, csr_layout::v64e64};
};

TEST_F(TuneInvariance, BfsLevelsIdenticalAcrossModesAndLayouts) {
  for (const auto& [name, cg] : shapes()) {
    for (const csr_layout l : kLayouts) {
      const any_csr g = micg::graph::to_layout(any_csr(cg), l);
      micg::api::bfs_request req;
      req.ex.threads = 2;
      req.targets = {0, 1, static_cast<std::int64_t>(cg.num_vertices()) - 1};
      req.ex.tune = "fixed";
      const auto fixed = micg::api::run(g, req);
      req.ex.tune = "auto";
      const auto tuned = micg::api::run(g, req);
      const std::string at = name + "/" + micg::graph::layout_name(l);
      EXPECT_EQ(tuned.variant, fixed.variant) << at;
      EXPECT_EQ(tuned.source, fixed.source) << at;
      EXPECT_EQ(tuned.num_levels, fixed.num_levels) << at;
      EXPECT_EQ(tuned.reached, fixed.reached) << at;
      EXPECT_EQ(tuned.num_vertices, fixed.num_vertices) << at;
      EXPECT_EQ(tuned.target_levels, fixed.target_levels) << at;
    }
  }
}

TEST_F(TuneInvariance, PagerankBitIdenticalAcrossModesAndLayouts) {
  for (const auto& [name, cg] : shapes()) {
    for (const csr_layout l : kLayouts) {
      const any_csr g = micg::graph::to_layout(any_csr(cg), l);
      micg::api::pagerank_request req;
      req.ex.threads = 2;
      req.max_iterations = 30;
      req.ex.tune = "fixed";
      const auto fixed = micg::api::run(g, req);
      req.ex.tune = "auto";
      const auto tuned = micg::api::run(g, req);
      const std::string at = name + "/" + micg::graph::layout_name(l);
      EXPECT_EQ(tuned.iterations, fixed.iterations) << at;
      EXPECT_EQ(tuned.converged, fixed.converged) << at;
      // Bit-identical, not approximately equal: the tuned fast paths are
      // exact reorderings-free implementations of the same arithmetic.
      EXPECT_EQ(tuned.final_delta, fixed.final_delta) << at;
      ASSERT_EQ(tuned.top.size(), fixed.top.size()) << at;
      for (std::size_t i = 0; i < fixed.top.size(); ++i) {
        EXPECT_EQ(tuned.top[i].vertex, fixed.top[i].vertex) << at;
        EXPECT_EQ(tuned.top[i].score, fixed.top[i].score) << at;
      }
    }
  }
}

TEST_F(TuneInvariance, CalibrateModeMatchesFixedToo) {
  // `calibrate` measures a quick in-process profile (once), then picks;
  // whatever it picks, the answers must not move.
  const any_csr g(micg::graph::make_rmat(8, 8, 0.57, 0.19, 0.19, 3));
  micg::api::bfs_request req;
  req.ex.threads = 2;
  req.ex.tune = "fixed";
  const auto fixed = micg::api::run(g, req);
  req.ex.tune = "calibrate";
  const auto tuned = micg::api::run(g, req);
  EXPECT_EQ(tuned.num_levels, fixed.num_levels);
  EXPECT_EQ(tuned.reached, fixed.reached);
}

// An auto request's metrics name the mode that picked its knobs.
TEST_F(TuneInvariance, AutoRunTagsItsMode) {
  const any_csr g(micg::graph::make_grid_2d(20, 20));
  const auto mode_of = [&](const char* kernel) {
    micg::obs::recorder rec;
    micg::api::run_context ctx;
    ctx.rec = &rec;
    if (std::string(kernel) == "bfs") {
      micg::api::bfs_request req;
      req.ex.threads = 2;
      req.ex.tune = "auto";
      micg::api::run(g, req, ctx);
    } else {
      micg::api::pagerank_request req;
      req.ex.threads = 2;
      req.ex.tune = "auto";
      req.max_iterations = 5;
      micg::api::run(g, req, ctx);
    }
    const auto snap = rec.take();
    std::string mode;
    for (const auto& [k, v] : snap.meta) {
      if (k == "tune.mode") mode = v;
    }
    return mode;
  };
  for (const char* kernel : {"bfs", "pagerank"}) {
    SCOPED_TRACE(kernel);
    EXPECT_EQ(mode_of(kernel), "auto");
  }
}

TEST_F(TuneInvariance, TunedChunkNeverChangesAnswers) {
  // Under `auto` the tuner's chunk replaces the request's (chunk is pure
  // scheduling grain); the answer must be identical to any explicit
  // chunk under `fixed`.
  const any_csr g(micg::graph::make_grid_2d(16, 16));
  micg::api::bfs_request req;
  req.ex.threads = 2;
  req.ex.chunk = 32;
  req.ex.tune = "fixed";
  const auto fixed = micg::api::run(g, req);
  req.ex.tune = "auto";
  const auto tuned = micg::api::run(g, req);
  EXPECT_EQ(tuned.num_levels, fixed.num_levels);
  EXPECT_EQ(tuned.reached, fixed.reached);
  EXPECT_EQ(tuned.target_levels, fixed.target_levels);
}

}  // namespace
