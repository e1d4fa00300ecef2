// Unit tests for the micg::api layer: the JSON document type, the shared
// CLI parsing helpers, and the request/response structs every front end
// (CLI flags, wire JSON, direct struct use) funnels through.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "micg/api/api.hpp"
#include "micg/api/json.hpp"
#include "micg/api/parse.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/graph/any_csr.hpp"
#include "micg/graph/generators.hpp"
#include "micg/obs/obs.hpp"
#include "micg/support/assert.hpp"

namespace {

using micg::api::arg_parser;
using micg::api::from_args;
using micg::api::from_json;
using micg::api::json;
using micg::api::json_array;
using micg::api::json_object;
using micg::graph::vertex_t;

micg::graph::any_csr grid() {
  return micg::graph::to_narrowest(micg::graph::make_grid_2d(8, 8));
}

// ---------------------------------------------------------------------------
// json

TEST(ApiJson, ParseScalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_EQ(json::parse("true").as_bool(), true);
  EXPECT_EQ(json::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(json::parse("2.5").as_double(), 2.5);
  EXPECT_EQ(json::parse("\"hi\\n\"").as_string(), "hi\n");
}

TEST(ApiJson, Int64RoundTripExact) {
  const std::int64_t big = 9007199254740993;  // not representable in double
  EXPECT_EQ(json::parse(std::to_string(big)).as_int(), big);
  EXPECT_EQ(json(big).dump(), std::to_string(big));
}

TEST(ApiJson, ObjectPreservesInsertionOrder) {
  json v(json_object{{"b", json(1)}, {"a", json(2)}});
  EXPECT_EQ(v.dump(), "{\"b\":1,\"a\":2}");
  // parse/dump round trip is byte-stable
  EXPECT_EQ(json::parse(v.dump()).dump(), v.dump());
}

TEST(ApiJson, MalformedInputsThrow) {
  const char* bad[] = {
      "",      "{",        "[1,",      "tru",        "\"unterminated",
      "01",    "1e",       "{\"a\"}",  "{\"a\":1,}", "[1 2]",
      "nul",   "\"\\x\"",  "{1:2}",    "1 2",        "{\"a\":}",
  };
  for (const char* s : bad) {
    EXPECT_THROW((void)json::parse(s), micg::check_error) << s;
  }
}

TEST(ApiJson, RejectsTrailingGarbageAndDeepNesting) {
  EXPECT_THROW((void)json::parse("{} x"), micg::check_error);
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW((void)json::parse(deep), micg::check_error);
  EXPECT_NO_THROW((void)json::parse(deep, 128));
}

TEST(ApiJson, CheckedAccessorsThrowOnMismatch) {
  const json v = json::parse("{\"a\": [1, 2]}");
  EXPECT_THROW((void)v.as_int(), micg::check_error);
  EXPECT_THROW((void)v.at("missing"), micg::check_error);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
  EXPECT_THROW((void)v.at("a").as_object(), micg::check_error);
}

TEST(ApiJson, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(json(std::numeric_limits<double>::infinity()).dump(), "null");
}

// ---------------------------------------------------------------------------
// parse helpers

TEST(ApiParse, StrictInt) {
  EXPECT_EQ(micg::api::parse_int("123"), 123);
  EXPECT_EQ(micg::api::parse_int("-7"), -7);
  EXPECT_THROW((void)micg::api::parse_int("12abc"), micg::api::usage_error);
  EXPECT_THROW((void)micg::api::parse_int(""), micg::api::usage_error);
  EXPECT_THROW((void)micg::api::parse_int("1.5"), micg::api::usage_error);
  EXPECT_THROW((void)micg::api::parse_int_in("9", 1, 8, "x"),
               micg::api::usage_error);
}

TEST(ApiParse, StrictDouble) {
  EXPECT_DOUBLE_EQ(micg::api::parse_double("2.5"), 2.5);
  EXPECT_THROW((void)micg::api::parse_double("2.5x"),
               micg::api::usage_error);
  EXPECT_THROW((void)micg::api::parse_double("inf"), micg::api::usage_error);
}

TEST(ApiParse, ArgParserSplitsFlagsAndPositionals) {
  const arg_parser args(
      std::vector<std::string>{"file.mtx", "--threads", "4", "-o", "out.micg",
                               "--graph", "a", "--graph", "b"});
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "file.mtx");
  EXPECT_EQ(args.flag_int("threads", 1), 4);
  EXPECT_EQ(args.flag("out", ""), "out.micg");
  EXPECT_EQ(args.flag_all("graph"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(args.has_flag("missing"));
}

TEST(ApiParse, FlagNeedsValueIsAUsageError) {
  EXPECT_THROW(arg_parser(std::vector<std::string>{"--threads"}),
               micg::api::usage_error);
  EXPECT_THROW(arg_parser(std::vector<std::string>{"x", "-o"}),
               micg::api::usage_error);
}

TEST(ApiParse, LastFlagOccurrenceWins) {
  const arg_parser args(
      std::vector<std::string>{"--threads", "2", "--threads", "8"});
  EXPECT_EQ(args.flag_int("threads", 1), 8);
}

TEST(ApiParse, BadFlagNumberNamesTheFlag) {
  const arg_parser args(std::vector<std::string>{"--threads", "4x"});
  try {
    (void)args.flag_int("threads", 1);
    FAIL() << "expected usage_error";
  } catch (const micg::api::usage_error& e) {
    EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos);
  }
}

TEST(ApiParse, GraphFormatFromPath) {
  EXPECT_EQ(micg::api::graph_format_from_path("a/b.mtx"),
            micg::api::graph_format::matrix_market);
  EXPECT_EQ(micg::api::graph_format_from_path("g.micg"),
            micg::api::graph_format::binary);
  EXPECT_THROW((void)micg::api::graph_format_from_path("g.txt"),
               micg::api::usage_error);
}

// ---------------------------------------------------------------------------
// status envelope

TEST(ApiStatus, NamesRoundTrip) {
  using micg::api::status;
  for (status s : {status::ok, status::bad_request, status::not_found,
                   status::too_large, status::overloaded,
                   status::deadline_exceeded, status::shutting_down,
                   status::internal}) {
    EXPECT_EQ(micg::api::status_from_name(micg::api::status_name(s)), s);
  }
  EXPECT_THROW((void)micg::api::status_from_name("nope"), micg::check_error);
}

// ---------------------------------------------------------------------------
// requests: flags and wire JSON parse into identical structs

/// `v` as the CLI spells it: strings verbatim, bools as yes/no.
std::string flag_value(const json& v) {
  if (v.is_string()) return v.as_string();
  if (v.is_bool()) return v.as_bool() ? "yes" : "no";
  return v.dump();
}

/// Every field of Req that has a flag takes its value from `sample` (wire
/// names, non-default values); the flag and JSON paths must then build
/// the same request.
template <class Req>
void expect_flag_and_json_agree(const std::string& sample_text) {
  const json sample = json::parse(sample_text);
  const std::string defaults = micg::api::to_json(Req{}).dump();
  std::vector<std::string> argv{"g.mtx"};
  json wire(json_object{});
  for (const auto& [name, flag] : micg::api::field_names<Req>()) {
    if (flag.empty()) continue;
    const json* v = sample.find(name);
    ASSERT_NE(v, nullptr) << "no sample value for " << name;
    json one(json_object{});
    one.set(name, *v);
    EXPECT_NE(micg::api::to_json(from_json<Req>(one)).dump(), defaults)
        << "sample " << name << " is its default";
    argv.insert(argv.end(), {"--" + flag, flag_value(*v)});
    wire.set(name, *v);
  }
  EXPECT_EQ(micg::api::to_json(from_args<Req>(arg_parser(argv))).dump(),
            micg::api::to_json(from_json<Req>(wire)).dump());
}

// Hand-spelled flags, not read from the field list: pins the CLI spellings
// that scripts already use.
TEST(ApiRequest, BfsFlagAndJsonPathsAgree) {
  const arg_parser args(std::vector<std::string>{
      "g.mtx", "--source", "3", "--threads", "2", "--variant",
      "OpenMP-Queue", "--block", "16"});
  const auto flags = from_args<micg::api::bfs_request>(args);
  const auto wire = micg::api::bfs_request_from_json(json::parse(
      R"({"source":3,"threads":2,"variant":"OpenMP-Queue","block":16})"));
  EXPECT_EQ(flags.source, wire.source);
  EXPECT_EQ(flags.ex.threads, wire.ex.threads);
  EXPECT_EQ(flags.variant, wire.variant);
  EXPECT_EQ(flags.block, wire.block);
  EXPECT_EQ(flags.source, 3);
  EXPECT_EQ(flags.variant, "OpenMP-Queue");
}

TEST(ApiRequest, FlagAndJsonPathsAgreeForEveryOp) {
  using namespace micg::api;
  const std::string ex =
      R"("backend":"OpenMP-static","threads":2,"chunk":16,"shards":3,)"
      R"("tune":"fixed")";
  const std::map<std::string, std::function<void()>> per_op = {
      {"info", [] { expect_flag_and_json_agree<info_request>(
                        R"({"shards":2})"); }},
      {"bfs", [&] { expect_flag_and_json_agree<bfs_request>(
                        R"({"variant":"OpenMP-Queue","source":3,"block":16,)" +
                        ex + "}"); }},
      {"msbfs", [&] { expect_flag_and_json_agree<msbfs_request>(
                          R"({"sources":8,"lanes":4,)" + ex + "}"); }},
      {"bc", [&] { expect_flag_and_json_agree<bc_request>(
                       R"({"samples":6,"mode":"repeated","lanes":4,"top":3,)" +
                       ex + "}"); }},
      {"color", [&] { expect_flag_and_json_agree<color_request>(
                          R"({"distance2":true,)" + ex + "}"); }},
      {"pagerank", [&] { expect_flag_and_json_agree<pagerank_request>(
                             R"({"damping":0.9,"tolerance":1e-6,)"
                             R"("max_iterations":50,"top":3,)" + ex + "}"); }},
      {"sssp", [&] { expect_flag_and_json_agree<sssp_request>(
                         R"({"source":0,"delta":16,"weights":7,)"
                         R"("max_weight":100,)" + ex + "}"); }},
      {"cc", [&] { expect_flag_and_json_agree<cc_request>("{" + ex + "}"); }},
  };
  for (const query_op& op : query_ops()) {
    SCOPED_TRACE(op.name);
    const auto it = per_op.find(op.name);
    ASSERT_NE(it, per_op.end()) << "no flag/JSON sample for " << op.name;
    it->second();
  }
}

TEST(ApiRequest, DefaultsMatchHistoricalCli) {
  const arg_parser empty(std::vector<std::string>{});
  const auto bfs = from_args<micg::api::bfs_request>(empty);
  EXPECT_EQ(bfs.ex.threads, 4);
  EXPECT_EQ(bfs.variant, "Direction-optimizing");
  EXPECT_EQ(bfs.block, 32);
  EXPECT_EQ(bfs.source, -1);  // resolves to |V|/2 at run()
  const auto color = from_args<micg::api::color_request>(empty);
  EXPECT_EQ(color.ex.chunk, 100);
  EXPECT_EQ(color.ex.backend, "OpenMP-dynamic");
  EXPECT_EQ(from_json<micg::api::color_request>(json()).ex.chunk, 100);
  const auto msbfs = from_args<micg::api::msbfs_request>(empty);
  EXPECT_EQ(msbfs.sources, 64);
  EXPECT_EQ(msbfs.lanes, 64);
  const auto bc = from_args<micg::api::bc_request>(empty);
  EXPECT_TRUE(bc.batched);
  EXPECT_EQ(bc.top, 5);
}

TEST(ApiRequest, ThreadsAndShardsAreRangeCheckedBeforeNarrowing) {
  // 2^32 + 1 must not wrap to 1 thread on the way into `int`.
  for (const char* name : {"threads", "shards"}) {
    SCOPED_TRACE(name);
    EXPECT_THROW((void)from_args<micg::api::bfs_request>(arg_parser(
                     std::vector<std::string>{std::string("--") + name,
                                              "4294967297"})),
                 micg::check_error);
    EXPECT_THROW((void)from_json<micg::api::bfs_request>(json::parse(
                     std::string(R"({")") + name + R"(":4294967297})")),
                 micg::check_error);
  }
  EXPECT_EQ(from_json<micg::api::bfs_request>(
                json::parse(R"({"threads":2147483647})"))
                .ex.threads,
            2147483647);  // in range for int; resolve_exec rejects it later
}

// Sharded execution was removed, but `shards` is still read so that a
// client asking for it is refused rather than silently run unsharded.
TEST(ApiRequest, ShardsOtherThanOneAreRefused) {
  const auto g = grid();
  for (const char* op : {"bfs", "pagerank", "info"}) {
    SCOPED_TRACE(op);
    for (const char* params : {R"({"shards":2})", R"({"shards":0})"}) {
      try {
        (void)micg::api::dispatch_query(g, op, json::parse(params));
        ADD_FAILURE() << params << " was accepted";
      } catch (const micg::check_error& e) {
        EXPECT_NE(std::string(e.what()).find("shards must be 1"),
                  std::string::npos)
            << e.what();
      }
    }
    EXPECT_NO_THROW((void)micg::api::dispatch_query(
        g, op, json::parse(R"({"shards":1,"threads":1})")));
  }
}

TEST(ApiRequest, BcModeAcceptsOnlyBatchedOrRepeated) {
  using micg::api::bc_request;
  EXPECT_FALSE(from_json<bc_request>(json::parse(R"({"mode":"repeated"})"))
                   .batched);
  EXPECT_TRUE(from_json<bc_request>(json::parse(R"({"mode":"batched"})"))
                  .batched);
  EXPECT_THROW((void)from_json<bc_request>(json::parse(R"({"mode":"batchd"})")),
               micg::check_error);
  EXPECT_THROW((void)from_args<bc_request>(arg_parser(
                   std::vector<std::string>{"--mode", "batchd"})),
               micg::check_error);
  bc_request repeated;
  repeated.batched = false;
  EXPECT_EQ(micg::api::to_json(repeated).at("mode"), json("repeated"));
}

TEST(ApiRequest, UnknownJsonFieldsAreIgnored) {
  EXPECT_NO_THROW((void)from_json<micg::api::bfs_request>(
      json::parse(R"({"source":1,"future_field":true})")));
}

TEST(ApiRequest, DistRequestParsesAndDefaults) {
  const auto full = from_json<micg::api::dist_request>(
      json::parse(R"({"source":3,"target":9,"exact":true})"));
  EXPECT_EQ(full.source, 3);
  EXPECT_EQ(full.target, 9);
  EXPECT_TRUE(full.exact);
  const auto defaults = from_json<micg::api::dist_request>(json::parse("{}"));
  EXPECT_EQ(defaults.source, -1);  // resolves to |V|/2 serving-side
  EXPECT_EQ(defaults.target, 0);
  EXPECT_FALSE(defaults.exact);
  EXPECT_THROW((void)from_json<micg::api::dist_request>(
                   json::parse(R"({"target":"nine"})")),
               micg::check_error);
}

TEST(ApiRequest, DistResponseSerializesBoundsOnlyWhenApproximate) {
  micg::api::dist_response exact;
  exact.source = 0;
  exact.target = 5;
  exact.distance = 5;
  const json je = micg::api::to_json(exact);
  EXPECT_EQ(je.at("distance").as_int(), 5);
  EXPECT_FALSE(je.at("approximate").as_bool());
  EXPECT_EQ(je.find("lower"), nullptr);
  EXPECT_EQ(je.find("upper"), nullptr);

  micg::api::dist_response approx = exact;
  approx.approximate = true;
  approx.lower = 3;
  approx.upper = 5;
  approx.landmarks = 16;
  const json ja = micg::api::to_json(approx);
  EXPECT_TRUE(ja.at("approximate").as_bool());
  EXPECT_EQ(ja.at("lower").as_int(), 3);
  EXPECT_EQ(ja.at("upper").as_int(), 5);
  EXPECT_EQ(ja.at("landmarks").as_int(), 16);
}

TEST(ApiRequest, WrongTypedJsonFieldThrows) {
  EXPECT_THROW((void)from_json<micg::api::bfs_request>(
                   json::parse(R"({"source":"zero"})")),
               micg::check_error);
  EXPECT_THROW((void)from_json<micg::api::bfs_request>(json::parse("[1]")),
               micg::check_error);
}

// ---------------------------------------------------------------------------
// run(): validation and correctness on a known graph

TEST(ApiRun, InfoMatchesGraph) {
  const auto g = grid();
  const auto r = micg::api::run(g, micg::api::info_request{});
  EXPECT_EQ(r.num_vertices, 64);
  EXPECT_EQ(r.num_edges, 112);
  EXPECT_EQ(r.components, 1);
  EXPECT_EQ(r.min_degree, 2);
  EXPECT_EQ(r.max_degree, 4);
  EXPECT_EQ(r.layout, "csr32");
  // Unversioned: "epoch" only appears on the wire for a snapshot.
  EXPECT_EQ(r.epoch, -1);
  EXPECT_EQ(micg::api::to_json(r).find("epoch"), nullptr);
}

TEST(ApiRun, BfsDefaultsAndTargets) {
  const auto g = grid();
  micg::api::bfs_request req;
  req.ex.threads = 1;
  req.targets = {0, 63};
  const auto r = micg::api::run(g, req);
  EXPECT_EQ(r.source, 32);  // |V|/2 default
  EXPECT_EQ(r.reached, 64);
  ASSERT_EQ(r.target_levels.size(), 2u);
  EXPECT_GE(r.target_levels[0], 0);
}

// The default variant is direction-optimizing BFS. Its answers must equal
// seq_bfs on a mesh, where it never leaves top-down, and on RMAT, where
// the frontier's edge count sends it bottom-up.
TEST(ApiRun, DefaultBfsMatchesSequentialOnEveryLayout) {
  struct Case {
    const char* name;
    micg::graph::csr_graph g;
    bool goes_bottom_up;
  };
  const Case cases[] = {
      {"grid", micg::graph::make_grid_2d(40, 40), false},
      {"rmat", micg::graph::make_rmat(12, 16, 0.57, 0.19, 0.19, 3), true},
  };
  for (const auto& c : cases) {
    const std::int64_t n = c.g.num_vertices();
    const auto seq = micg::bfs::seq_bfs(c.g, static_cast<vertex_t>(n / 2));
    std::vector<std::int64_t> seq_levels(seq.level.begin(), seq.level.end());
    for (const auto layout :
         {micg::graph::csr_layout::v32e32, micg::graph::csr_layout::v32e64,
          micg::graph::csr_layout::v64e64}) {
      const auto g =
          micg::graph::to_layout(micg::graph::any_csr(c.g), layout);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(c.name) + "/" +
                     micg::graph::layout_name(layout) +
                     " threads=" + std::to_string(threads));
        micg::obs::recorder rec;
        micg::api::run_context ctx;
        ctx.rec = &rec;
        micg::api::bfs_request req;
        req.ex.threads = threads;
        for (std::int64_t v = 0; v < n; ++v) req.targets.push_back(v);
        const auto r = micg::api::run(g, req, ctx);
        EXPECT_EQ(r.variant, "Direction-optimizing");
        EXPECT_EQ(r.num_levels, seq.num_levels);
        EXPECT_EQ(r.reached, static_cast<std::int64_t>(seq.reached));
        EXPECT_EQ(r.target_levels, seq_levels);
        std::uint64_t bottom_up_steps = 0;
        for (const auto& [name, value] : rec.take().counters) {
          if (name == "bfs.bottom_up_steps") bottom_up_steps = value;
        }
        EXPECT_EQ(bottom_up_steps > 0, c.goes_bottom_up);
      }
    }
  }
}

TEST(ApiRun, BfsValidatesInput) {
  const auto g = grid();
  micg::api::bfs_request req;
  req.source = 64;
  EXPECT_THROW((void)micg::api::run(g, req), micg::check_error);
  req.source = 0;
  req.targets = {-1};
  EXPECT_THROW((void)micg::api::run(g, req), micg::check_error);
  req.targets.clear();
  req.ex.threads = 0;
  EXPECT_THROW((void)micg::api::run(g, req), micg::check_error);
  req.ex.threads = 1;
  req.variant = "not-a-variant";
  EXPECT_THROW((void)micg::api::run(g, req), micg::check_error);
}

TEST(ApiRun, MsbfsExplicitSourceListOverridesCount) {
  const auto g = grid();
  micg::api::msbfs_request req;
  req.ex.threads = 1;
  req.lanes = 4;
  req.sources = 64;
  req.source_list = {0, 1, 2};
  const auto r = micg::api::run(g, req);
  EXPECT_EQ(r.sources, 3);
  EXPECT_EQ(r.batches, 1);
  EXPECT_EQ(r.reached_total, 3 * 64);
}

TEST(ApiRun, PagerankValidatesAndRanks) {
  const auto g = micg::graph::to_narrowest(micg::graph::make_star(16));
  micg::api::pagerank_request req;
  req.ex.threads = 1;
  req.top = 1;
  const auto r = micg::api::run(g, req);
  ASSERT_EQ(r.top.size(), 1u);
  EXPECT_EQ(r.top[0].vertex, 0);  // the hub dominates a star
  req.damping = 1.5;
  EXPECT_THROW((void)micg::api::run(g, req), micg::check_error);
}

// ---------------------------------------------------------------------------
// dispatch_query: the server's single entry point equals the direct path

TEST(ApiDispatch, MatchesDirectRun) {
  const auto g = grid();
  const json params = json::parse(R"({"threads":1,"source":0})");
  const json via_dispatch = micg::api::dispatch_query(g, "bfs", params);
  micg::api::bfs_request req = from_json<micg::api::bfs_request>(params);
  const json direct = micg::api::to_json(micg::api::run(g, req));
  EXPECT_EQ(via_dispatch.dump(), direct.dump());
}

TEST(ApiDocs, ServingCatalogListsEveryOpAndField) {
  std::ifstream in(MICG_SERVING_DOC);
  ASSERT_TRUE(in.good()) << MICG_SERVING_DOC;
  std::stringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();
  // A table row: "| `wire` | `--flag` |", or "| `wire` | — |" when the
  // field is wire-only.
  const auto row = [](const std::pair<std::string, std::string>& f) {
    return "| `" + f.first + "` | " +
           (f.second.empty() ? "—" : "`--" + f.second + "`") + " |";
  };
  const auto exec = micg::api::field_names<micg::api::exec_params>();
  for (const auto& f : exec) {
    EXPECT_NE(doc.find("\n" + row(f)), std::string::npos) << f.first;
  }
  const auto check_op =
      [&](const std::string& op,
          const std::vector<std::pair<std::string, std::string>>& fields) {
        EXPECT_NE(doc.find("\n| `" + op + "` | query |"), std::string::npos)
            << op << " is missing from the op catalog";
        for (const auto& f : fields) {
          if (std::ranges::find(exec, f) != exec.end()) continue;
          EXPECT_NE(doc.find("\n| `" + op + "` " + row(f)), std::string::npos)
              << op << " field " << f.first;
        }
      };
  for (const auto& op : micg::api::query_ops()) {
    check_op(op.name, op.request_fields());
  }
  check_op("approx_dist", micg::api::field_names<micg::api::dist_request>());
}

TEST(ApiDispatch, UnknownOpThrows) {
  EXPECT_FALSE(micg::api::is_query_op("frobnicate"));
  EXPECT_THROW(
      (void)micg::api::dispatch_query(grid(), "frobnicate", json()),
      micg::check_error);
}

}  // namespace
