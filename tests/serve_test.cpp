// micg::serve unit + end-to-end tests: NDJSON framing against faulty
// streams (truncation, I/O errors, oversized frames — structured errors,
// never crashes), snapshot/epoch semantics of the store, admission
// control (shedding, deadlines, control-op bypass), and a full
// unix-socket session with concurrent clients and a mutating writer.
#include <gtest/gtest.h>

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "micg/api/json.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/graph/builder.hpp"
#include "micg/graph/generators.hpp"
#include "micg/obs/obs.hpp"
#include "micg/qa/faulty_stream.hpp"
#include "micg/serve/client.hpp"
#include "micg/serve/protocol.hpp"
#include "micg/serve/server.hpp"
#include "micg/serve/service.hpp"
#include "micg/serve/store.hpp"
#include "micg/support/assert.hpp"

namespace {

using micg::api::json;
using micg::api::json_object;
using micg::qa::fault_mode;
using micg::qa::faulty_stream;
using micg::serve::frame_status;
using micg::serve::graph_store;
using micg::serve::read_frame;
using micg::serve::service;
using micg::serve::service_options;
using micg::serve::versioned_graph;

micg::graph::any_csr grid() {
  return micg::graph::to_narrowest(micg::graph::make_grid_2d(8, 8));
}

json parse(const std::string& line) { return json::parse(line); }

std::string status_of(const std::string& response_line) {
  return parse(response_line).at("status").as_string();
}

// ---------------------------------------------------------------------------
// Framing

TEST(Framing, SplitsLinesAndStripsCr) {
  faulty_stream in("{\"a\":1}\r\n\n{\"b\":2}");
  std::string line;
  EXPECT_EQ(read_frame(in, line, 1024), frame_status::ok);
  EXPECT_EQ(line, "{\"a\":1}");  // \r stripped
  EXPECT_EQ(read_frame(in, line, 1024), frame_status::ok);
  EXPECT_EQ(line, "");  // blank line is a frame; caller skips it
  EXPECT_EQ(read_frame(in, line, 1024), frame_status::ok);
  EXPECT_EQ(line, "{\"b\":2}");  // unterminated final line still a frame
  EXPECT_EQ(read_frame(in, line, 1024), frame_status::eof);
}

TEST(Framing, OversizedFrameReportsTooLarge) {
  faulty_stream in(std::string(200, 'x') + "\n");
  std::string line;
  EXPECT_EQ(read_frame(in, line, 64), frame_status::too_large);
}

TEST(Framing, IoErrorMidLineReportsIoError) {
  faulty_stream in("{\"op\":\"ping\"}\n", fault_mode::error_at, 5);
  std::string line;
  EXPECT_EQ(read_frame(in, line, 1024), frame_status::io_error);
}

TEST(Framing, TruncationIsAFrameThenEof) {
  faulty_stream in("{\"op\":\"pi", fault_mode::eof_at, 9);
  std::string line;
  EXPECT_EQ(read_frame(in, line, 1024), frame_status::ok);
  EXPECT_EQ(line, "{\"op\":\"pi");  // caller's JSON parse rejects it
  EXPECT_EQ(read_frame(in, line, 1024), frame_status::eof);
}

// ---------------------------------------------------------------------------
// Request envelope

TEST(Envelope, ParsesAllFields) {
  const auto req = micg::serve::parse_request(
      R"({"id":"q1","op":"bfs","graph":"g","deadline_ms":250,"params":{"source":3}})");
  EXPECT_EQ(req.id, "q1");
  EXPECT_EQ(req.op, "bfs");
  EXPECT_EQ(req.graph, "g");
  EXPECT_EQ(req.deadline_ms, 250);
  EXPECT_EQ(req.params.at("source").as_int(), 3);
}

TEST(Envelope, RejectsMalformedEnvelopes) {
  const char* bad[] = {
      "[]",                          // not an object
      "{}",                          // no op
      R"({"op":""})",                // empty op
      R"({"op":"bfs","id":""})",     // empty id
      R"({"op":"bfs","id":7})",      // id not a string
      R"({"op":"bfs","deadline_ms":-1})",
      R"({"op":"bfs","params":[1]})",  // params not an object
      "not json at all",
  };
  for (const char* line : bad) {
    EXPECT_THROW((void)micg::serve::parse_request(line), micg::check_error)
        << line;
  }
}

TEST(Envelope, ErrorResponsesStripServerSourcePaths) {
  const std::string resp = micg::serve::error_response(
      "q", micg::api::status::bad_request,
      "MICG_CHECK failed: (false) at /src/x.cpp:1 -- source out of range");
  const json doc = parse(resp);
  EXPECT_EQ(doc.at("error").as_string(), "source out of range");
  EXPECT_EQ(doc.at("id").as_string(), "q");
  EXPECT_EQ(doc.at("status").as_string(), "bad_request");
}

// ---------------------------------------------------------------------------
// Store: snapshot isolation and epochs

TEST(Store, PinsSurviveCompaction) {
  versioned_graph vg(grid());
  const versioned_graph::pin old_pin = vg.snapshot();
  EXPECT_EQ(old_pin.epoch, 0);
  const std::int64_t old_edges = old_pin.graph->num_edges();

  vg.insert(0, 63);
  EXPECT_EQ(vg.pending_ops(), 1u);
  // Buffered but not yet visible:
  EXPECT_EQ(vg.snapshot().graph->num_edges(), old_edges);

  EXPECT_EQ(vg.compact(), 1);
  EXPECT_EQ(vg.pending_ops(), 0u);
  EXPECT_EQ(vg.snapshot().epoch, 1);
  EXPECT_EQ(vg.snapshot().graph->num_edges(), old_edges + 1);
  // The old pin still reads the pre-compaction world:
  EXPECT_EQ(old_pin.graph->num_edges(), old_edges);
}

TEST(Store, EmptyCompactionDoesNotBumpEpoch) {
  versioned_graph vg(grid());
  EXPECT_EQ(vg.compact(), 0);
  EXPECT_EQ(vg.epoch(), 0);
  vg.insert(0, 1);  // edge already present: still a buffered op
  EXPECT_EQ(vg.compact(), 1);
}

TEST(Store, NamesAreUniqueAndLookupIsStable) {
  graph_store store;
  store.add("g", grid());
  EXPECT_THROW(store.add("g", grid()), micg::check_error);
  EXPECT_THROW(store.add("", grid()), micg::check_error);
  EXPECT_EQ(store.find("nope"), nullptr);
  ASSERT_NE(store.find("g"), nullptr);
  EXPECT_EQ(store.names(), std::vector<std::string>{"g"});
}

// ---------------------------------------------------------------------------
// Service dispatch (no socket)

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() { store_.add("g", grid()); }

  service_options opts_ = {.max_inflight = 2,
                           .max_waiting = 2,
                           .threads_per_query = 1};
  graph_store store_;
};

TEST_F(ServiceTest, MalformedLinesNeverThrow) {
  service svc(store_, opts_);
  const char* bad[] = {
      "garbage",
      "{\"op\":\"bfs\"}",                       // no graph
      R"({"op":"bfs","graph":"g","params":{"source":1000}})",  // out of range
      R"({"op":"bfs","graph":"g","params":{"threads":"x"}})",
      R"({"op":"insert","graph":"g","params":{"edges":[[0]]}})",
      R"({"op":"sleep","params":{"ms":-5}})",
  };
  for (const char* line : bad) {
    EXPECT_EQ(status_of(svc.handle_line(line)), "bad_request") << line;
  }
}

TEST_F(ServiceTest, UnknownNamesAreNotFound) {
  service svc(store_, opts_);
  EXPECT_EQ(status_of(svc.handle_line(
                R"({"op":"bfs","graph":"missing"})")),
            "not_found");
  EXPECT_EQ(status_of(svc.handle_line(
                R"({"op":"frobnicate","graph":"g"})")),
            "not_found");
}

TEST_F(ServiceTest, QueryCarriesEpochAndEchoesId) {
  service svc(store_, opts_);
  const json resp = parse(svc.handle_line(
      R"({"id":"q7","op":"bfs","graph":"g","params":{"source":0,"threads":1}})"));
  EXPECT_EQ(resp.at("id").as_string(), "q7");
  EXPECT_EQ(resp.at("status").as_string(), "ok");
  EXPECT_EQ(resp.at("epoch").as_int(), 0);
  EXPECT_EQ(resp.at("result").at("reached").as_int(), 64);
}

TEST_F(ServiceTest, MutationCompactionQueryFlow) {
  service svc(store_, opts_);
  // 0 and 63 are opposite grid corners: 14 hops apart at epoch 0.
  const json before = parse(svc.handle_line(
      R"({"op":"bfs","graph":"g","params":{"source":0,"threads":1,"targets":[63]}})"));
  EXPECT_EQ(before.at("result").at("target_levels").as_array()[0].as_int(),
            14);

  const json ins = parse(svc.handle_line(
      R"({"op":"insert","graph":"g","params":{"edges":[[0,63]]}})"));
  EXPECT_EQ(ins.at("status").as_string(), "ok");
  EXPECT_EQ(ins.at("epoch").as_int(), 0);  // buffered, not yet visible
  EXPECT_EQ(ins.at("result").at("pending").as_int(), 1);
  EXPECT_FALSE(ins.at("result").at("compacted").as_bool());

  const json comp = parse(svc.handle_line(
      R"({"op":"compact","graph":"g"})"));
  EXPECT_EQ(comp.at("epoch").as_int(), 1);
  EXPECT_EQ(comp.at("result").at("num_edges").as_int(), 113);

  const json after = parse(svc.handle_line(
      R"({"op":"bfs","graph":"g","params":{"source":0,"threads":1,"targets":[63]}})"));
  EXPECT_EQ(after.at("epoch").as_int(), 1);
  EXPECT_EQ(after.at("result").at("target_levels").as_array()[0].as_int(), 1);
}

TEST_F(ServiceTest, AutoCompactionTriggersAtThreshold) {
  opts_.compact_every = 2;
  service svc(store_, opts_);
  const json one = parse(svc.handle_line(
      R"({"op":"erase","graph":"g","params":{"edges":[[0,1]]}})"));
  EXPECT_FALSE(one.at("result").at("compacted").as_bool());
  const json two = parse(svc.handle_line(
      R"({"op":"insert","graph":"g","params":{"edges":[[0,63]]}})"));
  EXPECT_TRUE(two.at("result").at("compacted").as_bool());
  EXPECT_EQ(two.at("epoch").as_int(), 1);
  EXPECT_EQ(two.at("result").at("pending").as_int(), 0);
}

TEST_F(ServiceTest, ListReportsEveryGraph) {
  store_.add("h", grid());
  service svc(store_, opts_);
  const json resp = parse(svc.handle_line(R"({"op":"list"})"));
  const auto& graphs = resp.at("result").at("graphs").as_array();
  ASSERT_EQ(graphs.size(), 2u);
  EXPECT_EQ(graphs[0].at("name").as_string(), "g");
  EXPECT_EQ(graphs[1].at("name").as_string(), "h");
  EXPECT_EQ(graphs[0].at("epoch").as_int(), 0);
  EXPECT_EQ(graphs[0].at("num_vertices").as_int(), 64);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(Admission, ShedsWhenQueueIsFull) {
  graph_store store;
  service svc(store, {.max_inflight = 1, .max_waiting = 0,
                      .threads_per_query = 1});
  std::thread holder([&] {
    EXPECT_EQ(status_of(svc.handle_line(
                  R"({"op":"sleep","params":{"ms":600}})")),
              "ok");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Slot busy, queue capacity 0: immediate graceful shed.
  EXPECT_EQ(status_of(svc.handle_line(R"({"op":"sleep","params":{"ms":0}})")),
            "overloaded");
  // Control ops bypass the gate and answer while the server is full.
  EXPECT_EQ(status_of(svc.handle_line(R"({"op":"ping"})")), "ok");
  holder.join();
}

TEST(Admission, DeadlineBoundsQueueWait) {
  graph_store store;
  service svc(store, {.max_inflight = 1, .max_waiting = 2,
                      .threads_per_query = 1});
  std::thread holder([&] {
    (void)svc.handle_line(R"({"op":"sleep","params":{"ms":700}})");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(status_of(svc.handle_line(
                R"({"op":"sleep","deadline_ms":100,"params":{"ms":0}})")),
            "deadline_exceeded");
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::milliseconds(500));  // gave up at ~100ms
  holder.join();
}

TEST(Admission, QueuedRequestRunsWhenASlotFrees) {
  graph_store store;
  service svc(store, {.max_inflight = 1, .max_waiting = 2,
                      .threads_per_query = 1});
  std::thread holder([&] {
    (void)svc.handle_line(R"({"op":"sleep","params":{"ms":300}})");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // No deadline: waits out the holder, then runs.
  EXPECT_EQ(status_of(svc.handle_line(R"({"op":"sleep","params":{"ms":0}})")),
            "ok");
  holder.join();
}

TEST(Admission, ShutdownRejectsNewWorkButAnswersControlOps) {
  graph_store store;
  store.add("g", grid());
  service svc(store, {.max_inflight = 1, .max_waiting = 1,
                      .threads_per_query = 1});
  svc.begin_shutdown();
  EXPECT_EQ(status_of(svc.handle_line(
                R"({"op":"bfs","graph":"g","params":{"threads":1}})")),
            "shutting_down");
  EXPECT_EQ(status_of(svc.handle_line(R"({"op":"ping"})")), "ok");
  EXPECT_FALSE(svc.shutdown_requested());
  EXPECT_EQ(status_of(svc.handle_line(R"({"op":"shutdown"})")), "ok");
  EXPECT_TRUE(svc.shutdown_requested());
}

TEST(Admission, InvalidOptionsAreRejectedAtConstruction) {
  graph_store store;
  // A negative default deadline used to be silently treated as "use the
  // default" deeper in the stack; now every knob is validated up front.
  EXPECT_THROW(service(store, {.default_deadline_ms = -1}),
               micg::check_error);
  EXPECT_THROW(service(store, {.compact_every = -1}), micg::check_error);
  EXPECT_THROW(service(store, {.coalesce_window_ms = -1}),
               micg::check_error);
  EXPECT_THROW(service(store, {.coalesce_lanes = 0}), micg::check_error);
  EXPECT_THROW(service(store, {.coalesce_lanes = 65}), micg::check_error);
  EXPECT_THROW(service(store, {.landmark_count = 0}), micg::check_error);
  EXPECT_THROW(service(store, {.landmark_count = 65}), micg::check_error);
}

TEST(Admission, ClientRefusesToSendANegativeDeadline) {
  // The client used to drop deadline_ms <= 0 from the wire envelope, so a
  // typo like `--deadline-ms -5` silently meant "wait forever".
  EXPECT_THROW((void)micg::serve::make_request("ping", "", micg::api::json(),
                                               -5, ""),
               micg::check_error);
}

TEST_F(ServiceTest, NegativeWireDeadlineIsABadRequest) {
  service svc(store_, opts_);
  EXPECT_EQ(
      status_of(svc.handle_line(
          R"({"op":"bfs","graph":"g","deadline_ms":-1,"params":{"source":0}})")),
      "bad_request");
}

// ---------------------------------------------------------------------------
// Coalescing: concurrent bfs requests share one MSBFS traversal

TEST(Coalesce, WindowBatchesConcurrentRequestsAndDemuxesExactly) {
  graph_store store;
  store.add("g", grid());
  micg::obs::recorder rec;
  service svc(store,
              {.max_inflight = 2, .max_waiting = 2, .threads_per_query = 1,
               .coalesce_window_ms = 400},
              &rec);

  // The first request opens the batch and leads; the second lands well
  // inside the 400 ms window and joins. One MSBFS answers both.
  std::string ra, rb;
  std::thread a([&] {
    ra = svc.handle_line(
        R"({"id":"a","op":"bfs","graph":"g","params":{"source":0,"targets":[63]}})");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  std::thread b([&] {
    rb = svc.handle_line(
        R"({"id":"b","op":"bfs","graph":"g","params":{"source":63,"targets":[0]}})");
  });
  a.join();
  b.join();

  const json ja = parse(ra);
  const json jb = parse(rb);
  ASSERT_EQ(ja.at("status").as_string(), "ok") << ra;
  ASSERT_EQ(jb.at("status").as_string(), "ok") << rb;
  EXPECT_EQ(ja.at("id").as_string(), "a");
  EXPECT_EQ(jb.at("id").as_string(), "b");
  EXPECT_EQ(ja.at("result").at("variant").as_string(), "MSBFS-coalesced");
  EXPECT_EQ(ja.at("result").at("target_levels").as_array()[0].as_int(), 14);
  EXPECT_EQ(jb.at("result").at("target_levels").as_array()[0].as_int(), 14);
  EXPECT_EQ(ja.at("result").at("reached").as_int(), 64);
  // One batch, two member requests, and the uniform request counter saw
  // both members.
  EXPECT_EQ(rec.get_counter("serve.coalesce.batches").total(), 1u);
  EXPECT_EQ(rec.get_counter("serve.coalesce.requests").total(), 2u);
  EXPECT_EQ(rec.get_counter("serve.requests").total(), 2u);
}

TEST(Coalesce, BadMemberFailsAloneWithoutPoisoningItsBatch) {
  graph_store store;
  store.add("g", grid());
  service svc(store, {.max_inflight = 2, .max_waiting = 2,
                      .threads_per_query = 1, .coalesce_window_ms = 400});

  std::string ra, rb;
  std::thread a([&] {
    ra = svc.handle_line(
        R"({"id":"a","op":"bfs","graph":"g","params":{"source":1000}})");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  std::thread b([&] {
    rb = svc.handle_line(
        R"({"id":"b","op":"bfs","graph":"g","params":{"source":0,"targets":[63]}})");
  });
  a.join();
  b.join();

  EXPECT_EQ(status_of(ra), "bad_request") << ra;
  const json jb = parse(rb);
  ASSERT_EQ(jb.at("status").as_string(), "ok") << rb;
  EXPECT_EQ(jb.at("result").at("target_levels").as_array()[0].as_int(), 14);
}

TEST(Coalesce, ShutdownShedsCoalescedRequests) {
  graph_store store;
  store.add("g", grid());
  service svc(store, {.max_inflight = 1, .max_waiting = 1,
                      .threads_per_query = 1, .coalesce_window_ms = 50});
  svc.begin_shutdown();
  // The leader's admission failure is every member's failure.
  EXPECT_EQ(status_of(svc.handle_line(
                R"({"op":"bfs","graph":"g","params":{"source":0}})")),
            "shutting_down");
}

// The coalesced path must answer exactly what per-request seq_bfs would,
// for every generator family and storage layout, regardless of how
// arrivals happen to group into batches.
TEST(Coalesce, DifferentialOracleAcrossFamiliesAndLayouts) {
  using micg::graph::csr_graph;
  using micg::graph::csr_layout;
  struct family {
    const char* name;
    csr_graph g;
  };
  std::vector<family> families;
  families.push_back({"grid", micg::graph::make_grid_2d(9, 7)});
  families.push_back({"er", micg::graph::make_erdos_renyi(96, 4.0, 7)});
  families.push_back(
      {"rmat", micg::graph::make_rmat(6, 6, 0.57, 0.19, 0.19, 11)});
  constexpr csr_layout kLayouts[] = {csr_layout::v32e32, csr_layout::v32e64,
                                     csr_layout::v64e64};

  graph_store store;
  std::vector<std::string> names;
  for (const auto& fam : families) {
    const micg::graph::any_csr base = micg::graph::to_narrowest(fam.g);
    for (const csr_layout lay : kLayouts) {
      std::string name =
          std::string(fam.name) + "/" + micg::graph::layout_name(lay);
      store.add(name, micg::graph::to_layout(base, lay));
      names.push_back(std::move(name));
    }
  }
  service svc(store, {.max_inflight = 4, .max_waiting = 64,
                      .threads_per_query = 1, .coalesce_window_ms = 25,
                      .coalesce_lanes = 8});

  for (std::size_t fi = 0; fi < families.size(); ++fi) {
    const csr_graph& g = families[fi].g;
    const std::int64_t n = g.num_vertices();
    const std::int64_t targets[3] = {0, n / 2, n - 1};
    for (std::size_t li = 0; li < 3; ++li) {
      const std::string& name = names[fi * 3 + li];
      // Four concurrent requests with distinct sources; batching is
      // timing-dependent, correctness must not be.
      constexpr int kQueries = 4;
      std::string responses[kQueries];
      std::vector<std::thread> threads;
      for (int q = 0; q < kQueries; ++q) {
        threads.emplace_back([&, q] {
          const std::int64_t source = q * n / kQueries;
          json_object params{
              {"source", json(source)},
              {"targets", json(micg::api::json_array{
                              json(targets[0]), json(targets[1]),
                              json(targets[2])})}};
          responses[q] = svc.handle_line(micg::serve::make_request(
                                             "bfs", name,
                                             json(std::move(params)))
                                             .dump());
        });
      }
      for (auto& t : threads) t.join();

      for (int q = 0; q < kQueries; ++q) {
        const std::int64_t source = q * n / kQueries;
        const micg::bfs::bfs_result oracle =
            micg::bfs::seq_bfs(g, static_cast<std::int32_t>(source));
        const json resp = parse(responses[q]);
        ASSERT_EQ(resp.at("status").as_string(), "ok")
            << name << " source " << source << ": " << responses[q];
        const json& r = resp.at("result");
        EXPECT_EQ(r.at("variant").as_string(), "MSBFS-coalesced");
        EXPECT_EQ(r.at("num_levels").as_int(), oracle.num_levels)
            << name << " source " << source;
        EXPECT_EQ(r.at("reached").as_int(),
                  static_cast<std::int64_t>(oracle.reached))
            << name << " source " << source;
        const auto& levels = r.at("target_levels").as_array();
        ASSERT_EQ(levels.size(), 3u);
        for (int t = 0; t < 3; ++t) {
          EXPECT_EQ(levels[t].as_int(), oracle.level[targets[t]])
              << name << " source " << source << " target " << targets[t];
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// approx_dist: landmark estimates, exact fallback, epoch invalidation

namespace approx {

// Two disjoint 32-vertex chains: 0-1-...-31 and 32-33-...-63. All the
// top-degree pivots (degree 2, ties to the lower id) live in the first
// chain, so the second chain is invisible to the landmark index.
micg::graph::any_csr two_chains() {
  micg::graph::graph_builder64 b(64);
  for (std::int64_t i = 0; i + 1 < 32; ++i) b.add_edge(i, i + 1);
  for (std::int64_t i = 32; i + 1 < 64; ++i) b.add_edge(i, i + 1);
  return micg::graph::build_auto(std::move(b));
}

}  // namespace approx

TEST(ApproxDist, ChainBoundsBracketTheExactDistance) {
  graph_store store;
  store.add("c", micg::graph::to_narrowest(micg::graph::make_chain(32)));
  micg::obs::recorder rec;
  service svc(store,
              {.max_inflight = 2, .max_waiting = 2, .threads_per_query = 1},
              &rec);

  // Same vertex: trivially exact, never approximate.
  const json same = parse(svc.handle_line(
      R"({"op":"approx_dist","graph":"c","params":{"source":5,"target":5}})"));
  ASSERT_EQ(same.at("status").as_string(), "ok");
  EXPECT_EQ(same.at("result").at("distance").as_int(), 0);
  EXPECT_FALSE(same.at("result").at("approximate").as_bool());
  EXPECT_EQ(same.at("result").at("landmarks").as_int(), 16);

  // End to end on the chain (true distance 31): every pivot sits on the
  // one path, so the triangle upper bound is tight (31) while the best
  // lower bound |d(L,0)-d(L,31)| = 29 comes from pivot 1. Bounds do not
  // meet -> flagged approximate, and the answer upper-bounds the truth.
  const json est = parse(svc.handle_line(
      R"({"op":"approx_dist","graph":"c","params":{"source":0,"target":31}})"));
  ASSERT_EQ(est.at("status").as_string(), "ok");
  EXPECT_TRUE(est.at("result").at("approximate").as_bool());
  EXPECT_EQ(est.at("result").at("distance").as_int(), 31);
  EXPECT_EQ(est.at("result").at("upper").as_int(), 31);
  EXPECT_EQ(est.at("result").at("lower").as_int(), 29);

  // exact=true demands a real traversal: same number, no approximate
  // flag, and the fallback counter moves.
  const json exact = parse(svc.handle_line(
      R"({"op":"approx_dist","graph":"c","params":{"source":0,"target":31,"exact":true}})"));
  ASSERT_EQ(exact.at("status").as_string(), "ok");
  EXPECT_EQ(exact.at("result").at("distance").as_int(), 31);
  EXPECT_FALSE(exact.at("result").at("approximate").as_bool());
  EXPECT_EQ(rec.get_counter("serve.landmark.fallbacks").total(), 1u);
  EXPECT_EQ(rec.get_counter("serve.landmark.hits").total(), 2u);
  // One graph, one epoch: the index was built exactly once.
  EXPECT_EQ(rec.get_counter("serve.landmark.builds").total(), 1u);
}

TEST(ApproxDist, PivotBlindPairsFallBackToAnExactTraversal) {
  graph_store store;
  store.add("cc", approx::two_chains());
  micg::obs::recorder rec;
  service svc(store,
              {.max_inflight = 2, .max_waiting = 2, .threads_per_query = 1},
              &rec);

  // Both endpoints live in the chain no pivot can reach: the index knows
  // nothing, so the service silently runs the real traversal.
  const json resp = parse(svc.handle_line(
      R"({"op":"approx_dist","graph":"cc","params":{"source":40,"target":50}})"));
  ASSERT_EQ(resp.at("status").as_string(), "ok");
  EXPECT_EQ(resp.at("result").at("distance").as_int(), 10);
  EXPECT_FALSE(resp.at("result").at("approximate").as_bool());
  EXPECT_EQ(rec.get_counter("serve.landmark.fallbacks").total(), 1u);
  EXPECT_EQ(rec.get_counter("serve.landmark.hits").total(), 0u);
}

TEST(ApproxDist, CompactionInvalidatesTheLandmarkCache) {
  graph_store store;
  store.add("cc", approx::two_chains());
  micg::obs::recorder rec;
  service svc(store,
              {.max_inflight = 2, .max_waiting = 2, .threads_per_query = 1},
              &rec);

  // Epoch 0: a pivot reaches 0 but not 63, which proves the endpoints
  // sit in different components — definitive, not approximate.
  const json before = parse(svc.handle_line(
      R"({"op":"approx_dist","graph":"cc","params":{"source":0,"target":63}})"));
  ASSERT_EQ(before.at("status").as_string(), "ok");
  EXPECT_EQ(before.at("epoch").as_int(), 0);
  EXPECT_EQ(before.at("result").at("distance").as_int(), -1);
  EXPECT_FALSE(before.at("result").at("approximate").as_bool());

  // Bridge the chains and compact: epoch bumps, and the compaction
  // refreshes the cached index. A stale cache would still insist the
  // pair is unreachable.
  EXPECT_EQ(status_of(svc.handle_line(
                R"({"op":"insert","graph":"cc","params":{"edges":[[31,32]]}})")),
            "ok");
  const json comp =
      parse(svc.handle_line(R"({"op":"compact","graph":"cc"})"));
  ASSERT_EQ(comp.at("status").as_string(), "ok");
  EXPECT_EQ(comp.at("epoch").as_int(), 1);

  const json after = parse(svc.handle_line(
      R"({"op":"approx_dist","graph":"cc","params":{"source":0,"target":63}})"));
  ASSERT_EQ(after.at("status").as_string(), "ok");
  EXPECT_EQ(after.at("epoch").as_int(), 1);
  // The 64-chain end-to-end distance; every pivot's sum bound is tight.
  EXPECT_EQ(after.at("result").at("distance").as_int(), 63);
  EXPECT_TRUE(after.at("result").at("approximate").as_bool());
  EXPECT_EQ(after.at("result").at("upper").as_int(), 63);

  // Built once lazily at epoch 0, rebuilt eagerly by the compaction; the
  // post-compaction query hit the refreshed cache instead of building.
  EXPECT_EQ(rec.get_counter("serve.landmark.builds").total(), 2u);
}

// ---------------------------------------------------------------------------
// Sessions over faulty transports

TEST(Session, MalformedFramesGetErrorsAndTheSessionContinues) {
  graph_store store;
  store.add("g", grid());
  service svc(store, {.max_inflight = 1, .max_waiting = 1,
                      .threads_per_query = 1});
  faulty_stream in(
      "garbage\n"
      "\n"                                    // blank: ignored, no response
      "{\"op\":\"ping\",\"id\":\"p\"}\n");
  std::ostringstream out;
  svc.serve_session(in, out);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(status_of(line), "bad_request");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(status_of(line), "ok");
  EXPECT_EQ(parse(line).at("id").as_string(), "p");
  EXPECT_FALSE(std::getline(lines, line));  // exactly two responses
}

TEST(Session, OversizedFrameAnswersOnceAndCloses) {
  graph_store store;
  service svc(store, {.max_inflight = 1, .max_waiting = 1,
                      .threads_per_query = 1, .max_frame_bytes = 64});
  faulty_stream in(std::string(200, 'x') + "\n{\"op\":\"ping\"}\n");
  std::ostringstream out;
  svc.serve_session(in, out);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(status_of(line), "too_large");
  EXPECT_FALSE(std::getline(lines, line));  // framing lost: closed
}

TEST(Session, IoErrorMidFrameClosesSilently) {
  graph_store store;
  service svc(store, {.max_inflight = 1, .max_waiting = 1,
                      .threads_per_query = 1});
  faulty_stream in("{\"op\":\"ping\"}\n{\"op\":\"pi", fault_mode::error_at,
                   18);
  std::ostringstream out;
  svc.serve_session(in, out);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(status_of(line), "ok");  // the complete frame was served
  EXPECT_FALSE(std::getline(lines, line));  // the poisoned one was not
}

TEST(Session, TruncatedFinalFrameIsABadRequest) {
  graph_store store;
  service svc(store, {.max_inflight = 1, .max_waiting = 1,
                      .threads_per_query = 1});
  faulty_stream in(R"({"op":"ping)", fault_mode::eof_at, 12);
  std::ostringstream out;
  svc.serve_session(in, out);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(status_of(line), "bad_request");
}

// Sharded execution was removed: a session asking for shards gets
// bad_request with the reason, and shards=1 still runs.
TEST(Session, ShardsOtherThanOneAreBadRequests) {
  graph_store store;
  store.add("g", grid());
  // Uncoalesced, and with bfs requests joining a coalescing window: a
  // removed exec field is refused on both bfs paths.
  for (const std::int64_t window : {0, 1}) {
    SCOPED_TRACE(window);
    service svc(store, {.max_inflight = 1, .max_waiting = 1,
                        .threads_per_query = 1,
                        .coalesce_window_ms = window});
    const std::string shards_removed =
        "shards must be 1: sharded execution was removed";
    const std::string tune_removed =
        "tune must be fixed: the auto-tuner was removed";
    std::vector<std::pair<std::string, std::string>> refused = {
        {R"({"id":"b","op":"bfs","graph":"g","params":{"shards":2}})",
         shards_removed},
        {R"({"id":"p","op":"pagerank","graph":"g","params":{"shards":2}})",
         shards_removed},
        {R"({"id":"i","op":"info","graph":"g","params":{"shards":2}})",
         shards_removed}};
    for (const char* op : {"bfs", "pagerank", "sssp"}) {
      for (const char* mode : {"auto", "calibrate", "sometimes"}) {
        refused.emplace_back(std::string(R"({"id":"t","op":")") + op +
                                 R"(","graph":"g","params":{"tune":")" +
                                 mode + R"("}})",
                             tune_removed);
      }
    }
    std::string script;
    for (const auto& [line, why] : refused) script += line + "\n";
    for (const char* op : {"bfs", "pagerank", "sssp"}) {
      for (const char* params : {R"({"shards":1})", R"({"tune":"fixed"})"}) {
        script += std::string(R"({"id":"ok","op":")") + op +
                  R"(","graph":"g","params":)" + params + "}\n";
      }
    }
    std::istringstream in(script);
    std::ostringstream out;
    svc.serve_session(in, out);
    std::istringstream lines(out.str());
    std::string line;
    for (const auto& [request, why] : refused) {
      ASSERT_TRUE(std::getline(lines, line));
      const json r = parse(line);
      EXPECT_EQ(r.at("id").as_string(),
                parse(request).at("id").as_string());
      EXPECT_EQ(r.at("status").as_string(), "bad_request") << request;
      EXPECT_EQ(r.at("error").as_string(), why) << request;
    }
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(std::getline(lines, line));
      EXPECT_EQ(parse(line).at("id").as_string(), "ok");
      EXPECT_EQ(status_of(line), "ok") << line;
    }
  }
}

// ---------------------------------------------------------------------------
// End to end: unix socket, concurrent clients, a mutating writer

class EndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/micg_serve_test_" + std::to_string(::getpid()) + ".sock";
    store_.add("g", grid());
  }

  std::string path_;
  graph_store store_;
};

TEST_F(EndToEnd, ThirtyTwoConcurrentInFlightRequests) {
  micg::serve::server_options opt;
  opt.listen = "unix:" + path_;
  opt.svc = {.max_inflight = 32, .max_waiting = 0, .threads_per_query = 1};
  micg::serve::server srv(store_, opt);
  srv.bind_and_listen();
  std::thread server_thread([&] { srv.run(); });

  // 32 clients connect, rendezvous, then hold a slot each for 400 ms.
  // max_waiting = 0 means any request that does NOT find a free slot is
  // shed with `overloaded` — so 32 ok responses prove 32 requests were
  // genuinely in flight at once.
  constexpr int kClients = 32;
  std::atomic<int> ready{0};
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      micg::serve::client c(opt.listen);
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      const json resp = c.call(
          "sleep", "", json(json_object{{"ms", json(400)}}));
      if (resp.at("status").as_string() == "ok" &&
          resp.at("result").at("slept_ms").as_int() == 400) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients);

  micg::serve::client c(opt.listen);
  EXPECT_EQ(c.call("shutdown", "").at("status").as_string(), "ok");
  server_thread.join();
  ::unlink(path_.c_str());
}

TEST_F(EndToEnd, ConcurrentQueriesWhileAWriterMutatesAndCompacts) {
  micg::serve::server_options opt;
  opt.listen = "unix:" + path_;
  opt.svc = {.max_inflight = 8, .max_waiting = 64, .threads_per_query = 1,
             .compact_every = 4};
  micg::serve::server srv(store_, opt);
  srv.bind_and_listen();
  std::thread server_thread([&] { srv.run(); });

  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(8);
  for (int i = 0; i < 8; ++i) {
    readers.emplace_back([&, i] {
      micg::serve::client c(opt.listen);
      for (int k = 0; k < 12; ++k) {
        const char* op = (i + k) % 2 == 0 ? "bfs" : "color";
        const json resp =
            c.call(op, "g", json(json_object{{"threads", json(1)}}));
        if (resp.at("status").as_string() != "ok" ||
            resp.at("epoch").as_int() < 0) {
          failed.store(true);
        }
      }
    });
  }
  std::thread writer([&] {
    micg::serve::client c(opt.listen);
    for (int k = 0; k < 24; ++k) {
      // Toggle an edge between corners; every 4th op auto-compacts.
      const char* op = k % 2 == 0 ? "insert" : "erase";
      json edges(micg::api::json_array{
          json(micg::api::json_array{json(0), json(63)})});
      const json resp = c.call(
          op, "g", json(json_object{{"edges", std::move(edges)}}));
      if (resp.at("status").as_string() != "ok") failed.store(true);
    }
  });
  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_FALSE(failed.load());

  // The store is consistent after the dust settles: compact and query.
  micg::serve::client c(opt.listen);
  const json comp = c.call("compact", "g");
  EXPECT_EQ(comp.at("status").as_string(), "ok");
  const json info = c.call("info", "g");
  EXPECT_EQ(info.at("status").as_string(), "ok");
  EXPECT_EQ(info.at("result").at("num_vertices").as_int(), 64);

  EXPECT_EQ(c.call("shutdown", "").at("status").as_string(), "ok");
  server_thread.join();
  ::unlink(path_.c_str());
}

// Session threads are pinned one per allowed CPU; the helpers of a slot
// pool that a pinned session creates keep the process's whole CPU set.
TEST_F(EndToEnd, SessionsArePinnedOnePerCpuButPoolHelpersAreNot) {
  cpu_set_t process;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(process), &process), 0);
  const int cpus = CPU_COUNT(&process);
  const int sessions = std::min(cpus, 4);
  micg::serve::server_options opt;
  opt.listen = "unix:" + path_;
  opt.svc = {.max_inflight = 4, .max_waiting = 0, .threads_per_query = 2};
  micg::serve::server srv(store_, opt);
  srv.bind_and_listen();
  std::thread server_thread([&] { srv.run(); });

  // Every session answers one two-thread query, so each has pinned
  // itself, and the first one has created a slot pool with a helper.
  std::vector<std::unique_ptr<micg::serve::client>> clients;
  for (int i = 0; i < sessions; ++i) {
    clients.push_back(std::make_unique<micg::serve::client>(opt.listen));
    const json resp =
        clients.back()->call("bfs", "g", json(json_object{{"threads", json(2)}}));
    EXPECT_EQ(resp.at("status").as_string(), "ok");
  }

  std::vector<int> pinned_to;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = std::stoi(task.path().filename().string());
    cpu_set_t mask;
    if (::sched_getaffinity(tid, sizeof(mask), &mask) != 0) continue;
    if (CPU_EQUAL(&mask, &process)) continue;
    EXPECT_EQ(CPU_COUNT(&mask), 1) << "thread " << tid;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) pinned_to.push_back(c);
    }
  }
  // One CPU allowed: a pin to it is the whole set, so nothing differs.
  EXPECT_EQ(static_cast<int>(pinned_to.size()), cpus > 1 ? sessions : 0);
  EXPECT_EQ(std::set<int>(pinned_to.begin(), pinned_to.end()).size(),
            pinned_to.size());

  clients.clear();
  micg::serve::client c(opt.listen);
  EXPECT_EQ(c.call("shutdown", "").at("status").as_string(), "ok");
  server_thread.join();
  ::unlink(path_.c_str());
}

TEST_F(EndToEnd, DialFailsCleanlyOnDeadEndpoint) {
  EXPECT_THROW(micg::serve::client("unix:" + path_ + ".nope"),
               micg::check_error);
}

}  // namespace
