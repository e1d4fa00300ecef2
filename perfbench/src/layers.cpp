// Layer microprobes of the traced run: each times one module's public
// function in isolation so its share of an end-to-end metric is visible.
#include <cstdio>
#include <functional>

#include "bench.hpp"
#include "micg/api/api.hpp"
#include "micg/bfs/landmark.hpp"
#include "micg/bfs/layered.hpp"
#include "micg/bfs/sssp.hpp"
#include "micg/color/iterative.hpp"
#include "micg/graph/components.hpp"
#include "micg/graph/stats.hpp"
#include "micg/graph/weighted.hpp"
#include "micg/irregular/pagerank.hpp"
#include "micg/rt/barrier.hpp"
#include "micg/rt/thread_pool.hpp"
#include "micg/serve/client.hpp"
#include "micg/support/timer.hpp"
#include "micg/tune/tune.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using micg::api::json;
using micg::api::json_array;
using micg::api::json_object;
using micg::graph::any_csr;

/// Median over `batches` of the mean per-call time of `reps` calls, µs.
double per_call_us(int batches, int reps, const std::function<void()>& fn) {
  std::vector<double> v;
  for (int b = 0; b < batches; ++b) {
    micg::stopwatch sw;
    for (int i = 0; i < reps; ++i) fn();
    v.push_back(sw.seconds() * 1e6 / reps);
  }
  return median(v);
}

/// median(a) - median(b) over `pairs` interleaved calls, µs.
double interleaved_gap_us(int pairs, const std::function<void()>& a,
                          const std::function<void()>& b) {
  std::vector<double> ta;
  std::vector<double> tb;
  for (int i = 0; i < pairs; ++i) {
    micg::stopwatch sa;
    a();
    ta.push_back(sa.seconds() * 1e6);
    micg::stopwatch sb;
    b();
    tb.push_back(sb.seconds() * 1e6);
  }
  return median(ta) - median(tb);
}

micg::rt::exec plain_exec(int threads, std::int64_t chunk) {
  micg::rt::exec e;
  e.kind = micg::rt::backend::omp_dynamic;
  e.threads = threads;
  e.chunk = chunk;
  return e;
}

void runtime_probes(const options& opt, report& rep) {
  trace::scope span("probe.rt");
  auto& pool = micg::rt::thread_pool::global();
  const std::function<void(int)> noop = [](int) {};
  const double fj = per_call_us(10, 200, [&] { pool.run(opt.threads, noop); });
  rep.set("rt.forkjoin_us", fj, "us");
  constexpr int rounds = 1000;
  const double bar = per_call_us(5, 1, [&] {
    micg::rt::sense_barrier b(opt.threads);
    pool.run(opt.threads, [&](int) {
      for (int i = 0; i < rounds; ++i) b.arrive_and_wait();
    });
  }) / rounds;
  rep.set("rt.barrier_us", bar, "us");
  // The fork-join signature: the share of bfs_ms that empty regions
  // alone would cost.
  rep.set("rt.forkjoin_frac.bfs",
          fj * rep.notes["rt.regions.bfs"] / (rep.notes["bfs_ms"] * 1e3),
          "fraction");
}

void api_probes(const options& opt, const any_csr& g, std::int64_t source,
                report& rep) {
  trace::scope span("probe.api");
  const int T = opt.threads;
  g.visit([&](const auto& cg) {
    using VId = typename std::decay_t<decltype(cg)>::vertex_type;
    const auto src = static_cast<VId>(source);
    {
      micg::api::bfs_request req;
      req.ex.threads = T;
      req.source = source;
      micg::bfs::parallel_bfs_options o;
      o.ex = plain_exec(T, 64);
      micg::stopwatch sw;
      const auto res = micg::bfs::parallel_bfs(cg, src, o);
      const double s = sw.seconds();
      double scanned = 0.0;
      for (VId v = 0; v < cg.num_vertices(); ++v) {
        if (res.level[static_cast<std::size_t>(v)] >= 0) {
          scanned += static_cast<double>(cg.degree(v));
        }
      }
      rep.set("bfs.mteps", scanned / 2.0 / s / 1e6, "MTEPS");
      rep.set("api.overhead_us.bfs",
              interleaved_gap_us(
                  3, [&] { (void)micg::api::run(g, req); },
                  [&] { (void)micg::bfs::parallel_bfs(cg, src, o); }),
              "us");
    }
    {
      micg::api::sssp_request req;
      req.ex.threads = T;
      req.source = source;
      micg::bfs::sssp_options o;
      o.ex = plain_exec(T, 64);
      o.delta = micg::tune::pick_sssp_delta(micg::graph::compute_graph_stats(g),
                                            req.max_weight);
      rep.set("api.overhead_us.sssp",
              interleaved_gap_us(
                  3, [&] { (void)micg::api::run(g, req); },
                  [&] {
                    const auto w = micg::graph::generate_weights(
                        cg, micg::graph::weight_params{});
                    (void)micg::bfs::delta_stepping_sssp(
                        cg, src, std::span<const micg::graph::weight_t>(w), o);
                  }),
              "us");
    }
    {
      micg::api::cc_request req;
      req.ex.threads = T;
      const auto ex = plain_exec(T, 64);
      rep.set("api.overhead_us.cc",
              interleaved_gap_us(
                  3, [&] { (void)micg::api::run(g, req); },
                  [&] { (void)micg::graph::parallel_components(cg, ex); }),
              "us");
    }
    {
      micg::api::color_request req;
      req.ex.threads = T;
      micg::color::iterative_options o;
      o.ex = plain_exec(T, 100);
      rep.set("api.overhead_us.color",
              interleaved_gap_us(
                  3, [&] { (void)micg::api::run(g, req); },
                  [&] { (void)micg::color::iterative_color(cg, o); }),
              "us");
    }
    {
      micg::api::pagerank_request req;
      req.ex.threads = T;
      micg::irregular::pagerank_options o;
      o.ex = plain_exec(T, 64);
      rep.set("api.overhead_us.pagerank",
              interleaved_gap_us(
                  3, [&] { (void)micg::api::run(g, req); },
                  [&] { (void)micg::irregular::pagerank(cg, o); }),
              "us");
    }
  });

  const std::string line =
      micg::serve::make_request(
          "bfs", "g",
          json(json_object{{"source", json(source)},
                           {"targets", json(json_array{json(0)})}}))
          .dump();
  rep.set("api.decode_us", per_call_us(10, 200, [&] {
            const json doc = json::parse(line);
            (void)micg::api::bfs_request_from_json(doc.at("params"));
          }),
          "us");
  micg::api::bfs_response resp;
  resp.variant = "OpenMP-Block-relaxed";
  resp.num_levels = 268;
  resp.reached = g.num_vertices();
  resp.num_vertices = g.num_vertices();
  resp.target_levels = {17};
  rep.set("api.encode_us", per_call_us(10, 200, [&] {
            (void)micg::api::to_json(resp).dump();
          }),
          "us");
}

void serve_probes(const options& opt, setup& s, report& rep) {
  trace::scope span("probe.serve");
  micg::serve::service& svc = s.srv->svc();
  const auto pin = s.store->find("g")->snapshot();
  micg::rt::thread_pool pool(opt.threads);
  micg::api::run_context ctx;
  ctx.pool = &pool;
  ctx.max_threads = svc.options().threads_per_query;
  ctx.snapshot_epoch = pin.epoch;
  const std::int64_t source = pin.graph->num_vertices() / 2;
  for (const char* op : {"bfs", "sssp"}) {
    const json params(json_object{{"source", json(source)},
                                  {"targets", json(json_array{json(0)})}});
    const std::string line = micg::serve::make_request(op, "g", params).dump();
    rep.set(std::string("serve.handle_us.") + op,
            interleaved_gap_us(
                25, [&] { (void)svc.handle_line(line); },
                [&] {
                  (void)micg::api::dispatch_query(*pin.graph, op, params, ctx);
                }),
            "us");
  }
  micg::serve::client cli(s.address);
  const std::string ping = micg::serve::make_request("ping", "").dump();
  rep.set("serve.net_us", per_call_us(10, 50, [&] { (void)cli.call_line(ping); }),
          "us");

  micg::bfs::landmark_options lo;
  lo.count = svc.options().landmark_count;
  lo.ex.threads = opt.threads;
  lo.ex.pool = &pool;
  rep.set("landmark.build_ms",
          per_call_us(3, 1, [&] {
            (void)micg::bfs::build_landmarks(*pin.graph, lo);
          }) / 1e3,
          "ms");
}

}  // namespace

void layer_probes(const options& opt, setup& s, report& rep) {
  runtime_probes(opt, rep);
  api_probes(opt, s.kernel_g, static_cast<std::int64_t>(rep.notes["source0"]),
             rep);
  serve_probes(opt, s, rep);
}

}  // namespace perfbench
