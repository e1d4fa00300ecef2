// Weighted workloads: the derived weight stream, binary format v3, the
// delta-stepping SSSP kernel against hand-checked fixtures and the
// sequential Dijkstra oracle, tune::pick_sssp_delta's decision table,
// and the sssp/cc api request surface (the structs the CLI and server
// share). The cross-family differential sweep lives in property_test.cpp.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "micg/api/api.hpp"
#include "micg/bfs/sssp.hpp"
#include "micg/graph/builder.hpp"
#include "micg/graph/components.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/io_binary.hpp"
#include "micg/graph/stats.hpp"
#include "micg/graph/weighted.hpp"
#include "micg/obs/obs.hpp"
#include "micg/support/assert.hpp"
#include "micg/tune/tune.hpp"

namespace {

using micg::graph::any_csr;
using micg::graph::csr32;
using micg::graph::csr64;
using micg::graph::csr_graph;
using micg::graph::weight_params;
using micg::graph::weight_t;

std::span<const weight_t> wspan(const std::vector<weight_t>& w) {
  return {w.data(), w.size()};
}

/// Snapshot meta/values are emit-ordered pair vectors; linear scan is
/// fine at test scale.
template <class T>
const T* find_kv(const std::vector<std::pair<std::string, T>>& kvs,
                 std::string_view key) {
  for (const auto& [k, v] : kvs) {
    if (k == key) return &v;
  }
  return nullptr;
}

// ------------------------------------------------------ weight stream

TEST(Weights, GenerateIsAdjacencyParallelSymmetricAndPositive) {
  const auto g = micg::graph::make_erdos_renyi(200, 4.0, 11);
  weight_params wp;
  wp.seed = 3;
  const auto w = micg::graph::generate_weights(g, wp);
  ASSERT_EQ(w.size(), static_cast<std::size_t>(g.num_directed_edges()));
  ASSERT_NO_THROW(micg::graph::validate_weights(g, wspan(w)));
  for (const auto x : w) {
    EXPECT_GE(x, wp.min_weight);
    EXPECT_LE(x, wp.max_weight);
  }
}

TEST(Weights, StreamIsAFunctionOfSeedAndEndpointsOnly) {
  const auto g = micg::graph::make_grid_2d(8, 9);
  weight_params wp;
  wp.seed = 7;
  const auto a = micg::graph::generate_weights(g, wp);
  const auto b = micg::graph::generate_weights(g, wp);
  EXPECT_EQ(a, b);
  // Layout-independent: same stream through every CSR width.
  const auto w32 =
      micg::graph::generate_weights(micg::graph::convert_csr<csr32>(g), wp);
  const auto w64 =
      micg::graph::generate_weights(micg::graph::convert_csr<csr64>(g), wp);
  EXPECT_EQ(a, w32);
  EXPECT_EQ(a, w64);
  wp.seed = 8;
  EXPECT_NE(micg::graph::generate_weights(g, wp), a);
}

TEST(Weights, CustomRangeIsHonored) {
  const auto g = micg::graph::make_complete(12);
  weight_params wp;
  wp.min_weight = 10;
  wp.max_weight = 12;
  const auto w = micg::graph::generate_weights(g, wp);
  std::vector<bool> seen(3, false);
  for (const auto x : w) {
    ASSERT_GE(x, 10);
    ASSERT_LE(x, 12);
    seen[static_cast<std::size_t>(x - 10)] = true;
  }
  // 132 draws over 3 values: all of them show up.
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

TEST(Weights, InvalidParamsThrow) {
  const auto g = micg::graph::make_chain(4);
  weight_params zero;
  zero.min_weight = 0;  // zero weights would break bucket monotonicity
  EXPECT_THROW(micg::graph::generate_weights(g, zero), micg::check_error);
  weight_params flipped;
  flipped.min_weight = 9;
  flipped.max_weight = 3;
  EXPECT_THROW(micg::graph::generate_weights(g, flipped), micg::check_error);
}

TEST(Weights, ValidateRejectsAsymmetryAndNonPositive) {
  const auto g = micg::graph::make_chain(3);  // edges {0,1},{1,2}; 4 slots
  std::vector<weight_t> w = {5, 5, 7, 7};
  ASSERT_NO_THROW(micg::graph::validate_weights(g, wspan(w)));
  w[1] = 6;  // slot {1,0} no longer matches {0,1}
  EXPECT_THROW(micg::graph::validate_weights(g, wspan(w)),
               micg::check_error);
  w = {5, 5, 0, 0};
  EXPECT_THROW(micg::graph::validate_weights(g, wspan(w)),
               micg::check_error);
  w = {5, 5, 7};  // not adjacency-parallel
  EXPECT_THROW(micg::graph::validate_weights(g, wspan(w)),
               micg::check_error);
}

TEST(Weights, WeightedCsrViewSlicesPerVertex) {
  const auto g = micg::graph::make_star(5);  // hub 0, leaves 1..4
  const auto wg = micg::graph::make_weighted(g, weight_params{});
  ASSERT_NO_THROW(wg.validate());
  EXPECT_EQ(wg.weights_of(0).size(), 4u);
  EXPECT_EQ(wg.weights_of(1).size(), 1u);
  // Leaf 2's single slot is the back edge of hub slot 1.
  EXPECT_EQ(wg.weights_of(2)[0], wg.weights_of(0)[1]);
}

/// fill_weights at 4 threads over a zeroed buffer must write every slot
/// with exactly the serial stream, in `G`'s layout.
template <class G>
void expect_parallel_fill_matches(const csr_graph& base) {
  const auto g = micg::graph::convert_csr<G>(base);
  weight_params wp;
  wp.seed = 5;
  const auto ref = micg::graph::generate_weights(g, wp);
  micg::rt::exec ex;
  ex.threads = 4;
  std::vector<weight_t> w(ref.size(), 0);
  micg::graph::fill_weights(g, wp, std::span<weight_t>(w), ex);
  EXPECT_EQ(w, ref);
  EXPECT_EQ(std::count(w.begin(), w.end(), weight_t{0}), 0);
  std::vector<weight_t> short_buf(ref.size() - 1, 0);
  EXPECT_THROW(micg::graph::fill_weights(g, wp, std::span<weight_t>(short_buf),
                                         ex),
               micg::check_error);
}

TEST(Weights, ParallelFillEqualsSerialStreamInEveryLayout) {
  const auto rmat = micg::graph::make_rmat(12, 8, 0.57, 0.19, 0.19, 21);
  std::int64_t isolated = 0;
  for (std::int32_t v = 0; v < rmat.num_vertices(); ++v) {
    isolated += rmat.degree(v) == 0 ? 1 : 0;
  }
  ASSERT_GT(isolated, 0);  // empty rows between filled ones
  for (const auto& base : {rmat, micg::graph::make_grid_2d(40, 50)}) {
    expect_parallel_fill_matches<csr32>(base);
    expect_parallel_fill_matches<csr_graph>(base);
    expect_parallel_fill_matches<csr64>(base);
  }
}

// ------------------------------------------------- binary format v3

TEST(BinaryV3, RoundTripsGraphAndWeights) {
  const auto g = micg::graph::make_erdos_renyi(150, 5.0, 21);
  const auto w = micg::graph::generate_weights(g, weight_params{});
  std::stringstream ss;
  micg::graph::write_binary_weighted(ss, g, wspan(w));
  const auto rt = micg::graph::read_binary_weighted_any(ss);
  EXPECT_EQ(rt.g.num_vertices(), g.num_vertices());
  EXPECT_EQ(rt.g.num_directed_edges(), g.num_directed_edges());
  EXPECT_EQ(rt.weights, w);
  rt.g.visit([&](const auto& cg) {
    ASSERT_NO_THROW(micg::graph::validate_weights(cg, wspan(rt.weights)));
  });
}

TEST(BinaryV3, RoundTripsEveryLayoutWidth) {
  const auto g = micg::graph::make_grid_2d(6, 7);
  const auto w = micg::graph::generate_weights(g, weight_params{});
  const auto check = [&](const auto& cg) {
    std::stringstream ss;
    micg::graph::write_binary_weighted(ss, cg, wspan(w));
    const auto rt = micg::graph::read_binary_weighted_any(ss);
    EXPECT_EQ(rt.g.num_vertices(), g.num_vertices());
    EXPECT_EQ(rt.weights, w);
  };
  check(micg::graph::convert_csr<csr32>(g));
  check(g);
  check(micg::graph::convert_csr<csr64>(g));
}

TEST(BinaryV3, WeightedReaderRejectsUnweightedFiles) {
  const auto g = micg::graph::make_chain(10);
  std::stringstream ss;
  micg::graph::write_binary(ss, g);  // version 2: no weights payload
  EXPECT_THROW(micg::graph::read_binary_weighted_any(ss),
               micg::check_error);
}

TEST(BinaryV3, UnweightedReaderAcceptsWeightedFiles) {
  const auto g = micg::graph::make_erdos_renyi(80, 3.0, 5);
  const auto w = micg::graph::generate_weights(g, weight_params{});
  std::stringstream ss;
  micg::graph::write_binary_weighted(ss, g, wspan(w));
  const auto rt = micg::graph::read_binary_any(ss);
  EXPECT_EQ(rt.num_vertices(), g.num_vertices());
  EXPECT_EQ(rt.num_directed_edges(), g.num_directed_edges());
}

TEST(BinaryV3, ReaderRejectsCorruptWeights) {
  const auto g = micg::graph::make_chain(6);
  auto w = micg::graph::generate_weights(g, weight_params{});
  w[0] = w[1] + 1;  // break symmetry: the reader re-validates
  std::stringstream ss;
  micg::graph::write_binary(ss, g);
  std::string bytes = ss.str();
  // Writer refuses asymmetric weights, so splice a bogus payload by hand:
  // flip the version to 3 and append a wrong-sized weights array.
  bytes[8] = 3;
  bytes.push_back('\x01');
  std::stringstream bad(bytes);
  EXPECT_THROW(micg::graph::read_binary_weighted_any(bad),
               micg::check_error);
}

TEST(BinaryV3, WriterRejectsMismatchedWeights) {
  const auto g = micg::graph::make_chain(5);
  const std::vector<weight_t> wrong(3, 1);
  std::stringstream ss;
  EXPECT_THROW(micg::graph::write_binary_weighted(ss, g, wspan(wrong)),
               micg::check_error);
}

// ------------------------------------------------- kernel fixtures

/// Hand-checkable weighted path: 0 -5- 1 -2- 2 -9- 3.
csr_graph weighted_path_graph() {
  micg::graph::graph_builder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  return std::move(b).build();
}

TEST(SeqDijkstra, HandCheckedPath) {
  const auto g = weighted_path_graph();
  // Slots (sorted adjacency): 0:{1} 1:{0,2} 2:{1,3} 3:{2}.
  const std::vector<weight_t> w = {5, 5, 2, 2, 9, 9};
  ASSERT_NO_THROW(micg::graph::validate_weights(g, wspan(w)));
  const auto d = micg::bfs::seq_dijkstra(g, 0, wspan(w));
  EXPECT_EQ(d, (std::vector<std::int64_t>{0, 5, 7, 16}));
}

TEST(SeqDijkstra, PrefersLongerHopCountWhenCheaper) {
  // Triangle 0-1-2 plus chord: direct 0-2 costs 10, the detour 0-1-2
  // costs 3; Dijkstra (unlike BFS) must take the detour.
  micg::graph::graph_builder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  const auto g = std::move(b).build();
  // Sorted slots: 0:{1,2} 1:{0,2} 2:{0,1}.
  const std::vector<weight_t> w = {1, 10, 1, 2, 10, 2};
  ASSERT_NO_THROW(micg::graph::validate_weights(g, wspan(w)));
  const auto d = micg::bfs::seq_dijkstra(g, 0, wspan(w));
  EXPECT_EQ(d, (std::vector<std::int64_t>{0, 1, 3}));
}

TEST(SeqDijkstra, UnreachableIsMinusOne) {
  micg::graph::graph_builder b(4);
  b.add_edge(0, 1);  // {2, 3}: 3 isolated, 2-3 unreachable pair? no: edge
  b.add_edge(2, 3);  // two components
  const auto g = std::move(b).build();
  const std::vector<weight_t> w = {4, 4, 6, 6};
  const auto d = micg::bfs::seq_dijkstra(g, 0, wspan(w));
  EXPECT_EQ(d, (std::vector<std::int64_t>{0, 4, -1, -1}));
}

TEST(DeltaStepping, HandCheckedPathAcrossDeltas) {
  const auto g = weighted_path_graph();
  const std::vector<weight_t> w = {5, 5, 2, 2, 9, 9};
  for (const std::int64_t delta : {1, 2, 5, 100}) {
    SCOPED_TRACE("delta=" + std::to_string(delta));
    micg::bfs::sssp_options opt;
    opt.delta = delta;
    const auto r = micg::bfs::delta_stepping_sssp(g, 0, wspan(w), opt);
    EXPECT_EQ(r.dist, (std::vector<std::int64_t>{0, 5, 7, 16}));
    EXPECT_EQ(r.reached, 4);
    EXPECT_EQ(r.delta, delta);
    EXPECT_GE(r.relaxations, 3);
    EXPECT_GE(r.buckets, 1);
  }
}

TEST(DeltaStepping, MatchesDijkstraOnRmat) {
  const auto g = micg::graph::make_rmat(8, 8, 0.57, 0.19, 0.19, 13);
  const auto w = micg::graph::generate_weights(g, weight_params{});
  const auto source = static_cast<std::int32_t>(g.num_vertices() / 2);
  const auto ref = micg::bfs::seq_dijkstra(g, source, wspan(w));
  for (const std::int64_t delta : {1, 16, 4096}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("delta=" + std::to_string(delta) +
                   " threads=" + std::to_string(threads));
      micg::bfs::sssp_options opt;
      opt.delta = delta;
      opt.ex.threads = threads;
      const auto r = micg::bfs::delta_stepping_sssp(g, source, wspan(w), opt);
      ASSERT_EQ(r.dist, ref);
    }
  }
}

TEST(DeltaStepping, BucketExtremesAreDijkstraAndBellmanFord) {
  const auto g = micg::graph::make_erdos_renyi(300, 4.0, 17);
  const auto w = micg::graph::generate_weights(g, weight_params{});
  micg::bfs::sssp_options opt;
  opt.delta = 1;
  const auto fine = micg::bfs::delta_stepping_sssp(g, 0, wspan(w), opt);
  opt.delta = std::int64_t{1} << 40;
  const auto coarse = micg::bfs::delta_stepping_sssp(g, 0, wspan(w), opt);
  EXPECT_EQ(fine.dist, coarse.dist);
  // One bucket wide enough for every distance = Bellman-Ford.
  EXPECT_EQ(coarse.buckets, 1);
  // delta=1 buckets are singleton-distance: never fewer than max dist
  // milestones, and at least as many rounds as Bellman-Ford's.
  EXPECT_GE(fine.buckets, coarse.buckets);
  EXPECT_GE(fine.rounds, coarse.rounds);
  // Dijkstra-fine buckets never relax more than Bellman-Ford re-work.
  EXPECT_LE(fine.relaxations, coarse.relaxations);
}

TEST(DeltaStepping, InvalidOptionsThrow) {
  const auto g = micg::graph::make_chain(4);
  const auto w = micg::graph::generate_weights(g, weight_params{});
  micg::bfs::sssp_options opt;
  opt.delta = 0;  // the kernel takes a concrete width; 0=auto lives in api
  EXPECT_THROW(micg::bfs::delta_stepping_sssp(g, 0, wspan(w), opt),
               micg::check_error);
  opt.delta = 8;
  EXPECT_THROW(
      micg::bfs::delta_stepping_sssp(g, 99, wspan(w), opt),
      micg::check_error);
  const std::vector<weight_t> wrong(2, 1);
  EXPECT_THROW(
      micg::bfs::delta_stepping_sssp(g, 0, wspan(wrong), opt),
      micg::check_error);
}

TEST(DeltaStepping, PublishesObsCounters) {
  const auto g = micg::graph::make_grid_2d(10, 10);
  const auto w = micg::graph::generate_weights(g, weight_params{});
  micg::obs::recorder rec;
  micg::bfs::sssp_options opt;
  opt.delta = 16;
  opt.ex.rec = &rec;
  const auto r = micg::bfs::delta_stepping_sssp(g, 0, wspan(w), opt);
  const auto rep = rec.take();
  const auto* kernel = find_kv(rep.meta, "kernel");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(*kernel, "sssp");
  const auto* delta = find_kv(rep.values, "sssp.delta");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(*delta, 16.0);
  EXPECT_EQ(rec.get_counter("sssp.relaxations").total(),
            static_cast<std::uint64_t>(r.relaxations));
  EXPECT_EQ(rec.get_counter("sssp.buckets").total(),
            static_cast<std::uint64_t>(r.buckets));
  EXPECT_EQ(rec.get_counter("sssp.reached").total(),
            static_cast<std::uint64_t>(r.reached));
}

// ------------------------------------------------- pick_sssp_delta

TEST(PickSsspDelta, ScalesInverselyWithBranchingFactor) {
  micg::graph::graph_stats st;
  st.avg_degree = 4.0;
  EXPECT_EQ(micg::tune::pick_sssp_delta(st, 255), 63);
  st.avg_degree = 64.0;
  EXPECT_EQ(micg::tune::pick_sssp_delta(st, 255), 3);
  // Degenerate inputs clamp to the Dijkstra-like floor of 1.
  st.avg_degree = 1000.0;
  EXPECT_EQ(micg::tune::pick_sssp_delta(st, 255), 1);
  st.avg_degree = 0.0;
  EXPECT_EQ(micg::tune::pick_sssp_delta(st, 255), 255);
  EXPECT_EQ(micg::tune::pick_sssp_delta(st, 1), 1);
  EXPECT_THROW(micg::tune::pick_sssp_delta(st, 0), micg::check_error);
}

// ------------------------------------------------- api surface

TEST(ApiSssp, RunMatchesOracleAndReportsTargets) {
  // Over 8 fill chunks of 1024 vertices, so the 4-thread fill splits.
  const auto g = micg::graph::make_erdos_renyi(10000, 5.0, 31);
  const any_csr ag(g);
  const auto w = micg::graph::generate_weights(g, weight_params{});
  const auto ref = micg::bfs::seq_dijkstra(g, 7, wspan(w));
  std::int64_t reached = 0;
  for (const auto d : ref) reached += d >= 0 ? 1 : 0;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    micg::api::sssp_request req;
    req.source = 7;
    req.ex.threads = threads;
    for (std::int64_t v = 0; v < 10000; ++v) req.targets.push_back(v);
    const auto r = micg::api::run(ag, req);
    EXPECT_EQ(r.source, 7);
    EXPECT_EQ(r.num_vertices, 10000);
    EXPECT_GE(r.delta, 1);  // 0 in the request = auto-pick
    EXPECT_EQ(r.target_dists[7], 0);
    EXPECT_EQ(r.target_dists, ref);
    EXPECT_EQ(r.reached, reached);
  }
}

TEST(ApiSssp, WeightsSeedAndDeltaFlowThroughTheWire) {
  const auto g = micg::graph::make_grid_2d(9, 9);
  const any_csr ag(g);
  const auto params = micg::api::json::parse(
      R"({"source": 3, "delta": 5, "weights": 77, "max_weight": 9,)"
      R"( "targets": [80], "threads": 2})");
  const auto req = micg::api::from_json<micg::api::sssp_request>(params);
  EXPECT_EQ(req.source, 3);
  EXPECT_EQ(req.delta, 5);
  EXPECT_EQ(req.weights_seed, 77);
  EXPECT_EQ(req.max_weight, 9);
  const auto resp = micg::api::dispatch_query(ag, "sssp", params);
  weight_params wp;
  wp.seed = 77;
  wp.max_weight = 9;
  const auto w = micg::graph::generate_weights(g, wp);
  const auto ref = micg::bfs::seq_dijkstra(g, 3, wspan(w));
  const auto* dists = resp.find("target_dists");
  ASSERT_NE(dists, nullptr);
  EXPECT_EQ(dists->as_array()[0].as_int(), ref[80]);
  EXPECT_EQ(resp.find("delta")->as_int(), 5);
}

TEST(ApiSssp, InvalidRequestsThrow) {
  const any_csr ag(micg::graph::make_chain(5));
  micg::api::sssp_request req;
  req.source = 99;
  EXPECT_THROW(micg::api::run(ag, req), micg::check_error);
  req = {};
  req.targets = {-1};
  EXPECT_THROW(micg::api::run(ag, req), micg::check_error);
  req = {};
  req.delta = -2;
  EXPECT_THROW(micg::api::run(ag, req), micg::check_error);
  req = {};
  req.max_weight = 0;
  EXPECT_THROW(micg::api::run(ag, req), micg::check_error);
}

TEST(ApiSssp, RefusesABucketSpanOver2To20) {
  const any_csr ag(micg::graph::make_chain(5));
  micg::api::sssp_request req;
  req.source = 0;
  req.delta = 1;
  req.max_weight = 2147483647;
  // check_error is what the serve layer answers with bad_request.
  try {
    (void)micg::api::dispatch_query(
        ag, "sssp",
        micg::api::json::parse(R"({"delta": 1, "max_weight": 2147483647})"));
    ADD_FAILURE() << "request was not refused";
  } catch (const micg::check_error& e) {
    EXPECT_NE(std::string(e.what()).find("max_weight / delta"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(micg::api::run(ag, req), micg::check_error);
  req.max_weight = 1 << 20;  // exactly 2^20 buckets per weight: allowed
  EXPECT_EQ(micg::api::run(ag, req).reached, 5);
}

/// Peak resident set of this process so far, in bytes.
std::int64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

TEST(ApiSssp, DeepChainAtDeltaOneKeepsTheBucketWindowSmall) {
  // Distances reach ~2.5e7 at the default weights, so bins indexed by
  // absolute bucket number would hold ~2.5e7 vector headers per filing
  // worker; the cyclic window needs at most 256.
  constexpr std::int64_t n = 200000;
  const auto g = micg::graph::make_chain(n);
  const any_csr ag(g);
  const auto w = micg::graph::generate_weights(g, weight_params{});
  const auto ref = micg::bfs::seq_dijkstra(g, 0, wspan(w));
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    micg::api::sssp_request req;
    req.source = 0;
    req.delta = 1;
    req.ex.threads = threads;
    for (std::int64_t v = 0; v < n; v += 997) req.targets.push_back(v);
    req.targets.push_back(n - 1);
    const std::int64_t before = peak_rss_bytes();
    const auto r = micg::api::run(ag, req);
    EXPECT_LT(peak_rss_bytes() - before, std::int64_t{64} << 20);
    EXPECT_EQ(r.reached, n);
    ASSERT_EQ(r.target_dists.size(), req.targets.size());
    for (std::size_t i = 0; i < req.targets.size(); ++i) {
      EXPECT_EQ(r.target_dists[i],
                ref[static_cast<std::size_t>(req.targets[i])]);
    }
  }
}

TEST(ApiCc, MatchesParallelComponentsAndCountsLargest) {
  // Two components: a 40-grid and a 10-chain.
  micg::graph::graph_builder b(50);
  for (int v = 0; v < 39; ++v) b.add_edge(v, v + 1);
  for (int v = 40; v < 49; ++v) b.add_edge(v, v + 1);
  const any_csr ag(std::move(b).build());
  micg::api::cc_request req;
  const auto r = micg::api::run(ag, req);
  EXPECT_EQ(r.num_components, 2);
  EXPECT_EQ(r.largest, 40);
  EXPECT_EQ(r.num_vertices, 50);
  EXPECT_GE(r.rounds, 1);
  const auto resp = micg::api::dispatch_query(
      ag, "cc", micg::api::json::parse(R"({"threads": 2})"));
  EXPECT_EQ(resp.find("num_components")->as_int(), 2);
  EXPECT_EQ(resp.find("largest")->as_int(), 40);
}

TEST(ApiDispatch, SsspAndCcAreQueryOps) {
  EXPECT_TRUE(micg::api::is_query_op("sssp"));
  EXPECT_TRUE(micg::api::is_query_op("cc"));
  EXPECT_FALSE(micg::api::is_query_op("weights"));
}

}  // namespace
