// micg::tune: the micg.calib.v1 round-trip and schema validation, the
// machine_config projection, and the one-sweep graph probe against naive
// recomputation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "micg/api/json.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/stats.hpp"
#include "micg/support/assert.hpp"
#include "micg/tune/calib.hpp"

namespace {

using micg::graph::graph_stats;
using micg::tune::calibration_profile;

// ------------------------------------------------------ synthetic inputs

/// Out-of-order host: SIMD gathers beat scalar ones.
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
  p.gather.push_back(
      {.working_set_bytes = 256 << 10, .plain_gbps = 6.0, .simd_gbps = 7.5});
  p.gather.push_back(
      {.working_set_bytes = 64 << 20, .plain_gbps = 1.2, .simd_gbps = 1.5});
  return p;
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
  }
  // Keys the reader does not know, such as fields since dropped from the
  // schema, are ignored: older profiles still read.
  micg::api::json v = micg::tune::to_json(p);
  v.set("retired_gbps", micg::api::json(1.0));
  micg::api::json_array pts = v.at("gather").as_array();
  for (auto& pt : pts) pt.set("retired_gbps", micg::api::json(1.0));
  v.set("gather", micg::api::json(std::move(pts)));
  EXPECT_EQ(micg::tune::to_json(micg::tune::profile_from_json(v)).dump(),
            micg::tune::to_json(p).dump());
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

}  // namespace
