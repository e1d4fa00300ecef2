// Kernel phase: the five ops through api::run, oracle-checked.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "bench.hpp"
#include "micg/api/api.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/bfs/sssp.hpp"
#include "micg/graph/components.hpp"
#include "micg/graph/weighted.hpp"
#include "micg/obs/obs.hpp"
#include "micg/support/timer.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using micg::graph::any_csr;

constexpr const char* kOps[] = {"bfs", "sssp", "cc", "color", "pagerank"};
constexpr int kSources = 3;
constexpr int kTargets = 8;

struct source_oracle {
  std::int64_t source = 0;
  std::vector<int> level;
  std::int64_t num_levels = 0;
  std::int64_t reached = 0;
  std::vector<std::int64_t> dist;
  std::int64_t sssp_reached = 0;
};

struct kernel_oracle {
  std::vector<source_oracle> sources;
  std::vector<std::int64_t> targets;
  std::int64_t components = 0;
  std::int64_t largest = 0;
  std::int64_t max_degree = 0;
  micg::api::pagerank_response pagerank_t1;
};

/// Sequential references, computed before any timed call.
kernel_oracle compute_oracle(const workload& w, const options& opt,
                             const any_csr& g) {
  kernel_oracle o;
  rng r(opt.seed * 7919 + 17);
  const std::int64_t n = g.num_vertices();
  for (int i = 0; i < kTargets; ++i) o.targets.push_back(r.below(n));
  const micg::graph::weight_params wp;  // the sssp request's defaults
  for (const std::int64_t s : w.sources(g, kSources, r)) {
    source_oracle so;
    so.source = s;
    g.visit([&](const auto& cg) {
      using VId = typename std::decay_t<decltype(cg)>::vertex_type;
      const auto b = micg::bfs::seq_bfs(cg, static_cast<VId>(s));
      so.level = b.level;
      so.num_levels = b.num_levels;
      so.reached = static_cast<std::int64_t>(b.reached);
      const auto wts = micg::graph::generate_weights(cg, wp);
      so.dist = micg::bfs::seq_dijkstra(
          cg, static_cast<VId>(s),
          std::span<const micg::graph::weight_t>(wts));
    });
    so.sssp_reached = std::count_if(so.dist.begin(), so.dist.end(),
                                    [](std::int64_t d) { return d >= 0; });
    o.sources.push_back(std::move(so));
  }
  micg::rt::exec seq;
  seq.threads = 1;
  g.visit([&](const auto& cg) {
    const auto cc = micg::graph::parallel_components(cg, seq);
    o.components = static_cast<std::int64_t>(cc.num_components);
    std::map<std::int64_t, std::int64_t> size;
    for (const auto l : cc.label) {
      o.largest = std::max(o.largest, ++size[static_cast<std::int64_t>(l)]);
    }
  });
  o.max_degree = g.max_degree();
  micg::api::pagerank_request pr;
  pr.ex.threads = 1;
  o.pagerank_t1 = micg::api::run(g, pr);
  if (opt.corrupt_oracle) o.sources.front().reached += 1;
  return o;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// One timed api::run of `op`; the oracle check runs after the clock
/// stops. Returns the wall time in ms.
double timed_call(const std::string& op, const any_csr& g, int threads,
                  std::int64_t call, const kernel_oracle& o,
                  const micg::api::run_context& ctx, report& rep) {
  const source_oracle& so =
      o.sources[static_cast<std::size_t>(call) % o.sources.size()];
  std::string bad;
  double ms = 0.0;
  trace::scope span("api::run/" + op, call);
  if (op == "bfs") {
    micg::api::bfs_request req;
    req.ex.threads = threads;
    req.source = so.source;
    req.targets = o.targets;
    micg::stopwatch sw;
    const auto res = micg::api::run(g, req, ctx);
    ms = sw.millis();
    if (res.reached != so.reached || res.num_levels != so.num_levels) {
      bad = "bfs reached/levels";
    }
    for (std::size_t i = 0; i < o.targets.size() && bad.empty(); ++i) {
      if (res.target_levels[i] !=
          so.level[static_cast<std::size_t>(o.targets[i])]) {
        bad = "bfs target level";
      }
    }
  } else if (op == "sssp") {
    micg::api::sssp_request req;
    req.ex.threads = threads;
    req.source = so.source;
    req.targets = o.targets;
    micg::stopwatch sw;
    const auto res = micg::api::run(g, req, ctx);
    ms = sw.millis();
    if (res.reached != so.sssp_reached) bad = "sssp reached";
    for (std::size_t i = 0; i < o.targets.size() && bad.empty(); ++i) {
      if (res.target_dists[i] !=
          so.dist[static_cast<std::size_t>(o.targets[i])]) {
        bad = "sssp target distance";
      }
    }
  } else if (op == "cc") {
    micg::api::cc_request req;
    req.ex.threads = threads;
    micg::stopwatch sw;
    const auto res = micg::api::run(g, req, ctx);
    ms = sw.millis();
    if (res.num_components != o.components || res.largest != o.largest) {
      bad = "cc components";
    }
  } else if (op == "color") {
    micg::api::color_request req;
    req.ex.threads = threads;
    micg::stopwatch sw;
    const auto res = micg::api::run(g, req, ctx);
    ms = sw.millis();
    if (!res.valid || res.num_colors > o.max_degree + 1) bad = "color validity";
  } else {
    micg::api::pagerank_request req;
    req.ex.threads = threads;
    micg::stopwatch sw;
    const auto res = micg::api::run(g, req, ctx);
    ms = sw.millis();
    const auto& want = o.pagerank_t1;
    bool same = res.iterations == want.iterations &&
                same_bits(res.final_delta, want.final_delta) &&
                res.top.size() == want.top.size();
    for (std::size_t i = 0; same && i < res.top.size(); ++i) {
      same = res.top[i].vertex == want.top[i].vertex &&
             same_bits(res.top[i].score, want.top[i].score);
    }
    if (!same) bad = "pagerank differs from the T=1 run";
  }
  if (bad.empty()) {
    rep.ops.add(true);
  } else {
    rep.mismatch(op + " call " + std::to_string(call) + " at T=" +
                 std::to_string(threads) + ": " + bad);
  }
  return ms;
}

/// Counter, timer or gauge `name` of a recorder snapshot (0 if absent).
double snap_value(const micg::obs::snapshot& s, const std::string& name) {
  for (const auto& [k, v] : s.counters) {
    if (k == name) return static_cast<double>(v);
  }
  for (const auto& [k, v] : s.timers) {
    if (k == name) return v;
  }
  for (const auto& [k, v] : s.values) {
    if (k == name) return v;
  }
  return 0.0;
}

void print_timing(const std::string& name, const std::vector<double>& v) {
  std::printf("  %-22s %s ms\n", name.c_str(), summarize(v).describe().c_str());
}

}  // namespace

void kernel_phase(const workload& w, const options& opt, const setup& s,
                  double budget_s, report& rep) {
  const any_csr& g = s.kernel_g;
  const kernel_oracle o = compute_oracle(w, opt, g);
  rep.notes["source0"] = static_cast<double>(o.sources.front().source);
  std::map<std::string, std::vector<double>> ms_par;     // untraced, T
  std::map<std::string, std::vector<double>> ms_traced;  // recorder on, T
  std::map<std::string, std::vector<double>> layer;      // per-call counters
  std::vector<double> suite_t1;
  // Traced runs interleave recorder-on and recorder-off rounds to price
  // the recorder (obs.overhead_frac) and skip the T=1 suite.
  const int min_rounds = opt.trace ? 6 : 4;
  const std::size_t min_t1 = opt.trace ? 0 : 3;
  std::int64_t call = 0;
  trace::scope phase("phase.kernels");
  micg::stopwatch clock;
  for (int round = 0;; ++round) {
    const bool observed = opt.trace && round % 2 == 1;
    for (const std::string op : kOps) {
      if (!observed) {
        ms_par[op].push_back(
            timed_call(op, g, opt.threads, call++, o, {}, rep));
        continue;
      }
      micg::obs::recorder rec;
      micg::api::run_context ctx;
      ctx.rec = &rec;
      double ms = 0.0;
      {
        const micg::obs::scoped_global as_global(rec);
        ms = timed_call(op, g, opt.threads, call++, o, ctx, rep);
      }
      ms_traced[op].push_back(ms);
      const micg::obs::snapshot snap = rec.take();
      for (const char* key :
           {"rt.regions", "rt.worker_busy", "rt.region_wall", "bfs.levels",
            "bfs.reached", "bfs.queue_slots", "sssp.relaxations",
            "sssp.buckets", "sssp.reached", "color.rounds", "color.conflicts",
            "color.num_colors", "color.tentative_colorings",
            "pagerank.iterations"}) {
        layer[op + "/" + key].push_back(snap_value(snap, key));
      }
    }
    if (!opt.trace && round % 2 == 1) {  // one T=1 suite per two rounds
      double sum = 0.0;
      for (const std::string op : kOps) {
        sum += timed_call(op, g, 1, call++, o, {}, rep);
      }
      suite_t1.push_back(sum);
    }
    if (round + 1 >= min_rounds && suite_t1.size() >= min_t1 &&
        clock.seconds() >= budget_s) {
      break;
    }
  }

  std::printf("kernels on %s (|V| %lld, |E| %lld, T=%d)\n", w.name.c_str(),
              static_cast<long long>(g.num_vertices()),
              static_cast<long long>(g.num_edges()), opt.threads);
  for (const std::string op : kOps) {
    print_timing(op + "_ms", ms_par[op]);
    rep.notes[op + "_ms"] = median(ms_par[op]);
  }
  if (!opt.trace) {
    for (const std::string op : kOps) {
      rep.set(op + "_ms", median(ms_par[op]), "ms");
    }
    print_timing("suite_t1_ms", suite_t1);
    rep.set("suite_t1_ms", median(suite_t1), "ms");
    return;
  }

  const auto med = [&](const std::string& op, const char* key) {
    return median(layer[op + "/" + key]);
  };
  double traced_sum = 0.0;
  double plain_sum = 0.0;
  for (const std::string op : kOps) {
    print_timing(op + "_ms (recorder on)", ms_traced[op]);
    traced_sum += median(ms_traced[op]);
    plain_sum += median(ms_par[op]);
    rep.set("rt.regions." + op, med(op, "rt.regions"), "count");
    const double wall = med(op, "rt.region_wall");
    rep.set("rt.busy_frac." + op,
            wall > 0 ? med(op, "rt.worker_busy") / (opt.threads * wall) : 0.0,
            "fraction");
  }
  rep.notes["rt.regions.bfs"] = med("bfs", "rt.regions");
  rep.set("bfs.levels", med("bfs", "bfs.levels"), "count");
  rep.set("bfs.slot_use",
          med("bfs", "bfs.reached") / std::max(1.0, med("bfs", "bfs.queue_slots")),
          "fraction");
  rep.set("sssp.relaxations", med("sssp", "sssp.relaxations"), "count");
  rep.set("sssp.buckets", med("sssp", "sssp.buckets"), "count");
  rep.set("sssp.useful_frac",
          med("sssp", "sssp.reached") /
              std::max(1.0, med("sssp", "sssp.relaxations")),
          "fraction");
  rep.set("color.rounds", med("color", "color.rounds"), "count");
  rep.set("color.conflicts", med("color", "color.conflicts"), "count");
  rep.set("color.num_colors", med("color", "color.num_colors"), "count");
  rep.set("color.useful_frac",
          static_cast<double>(g.num_vertices()) /
              std::max(1.0, med("color", "color.tentative_colorings")),
          "fraction");
  const double iters = med("pagerank", "pagerank.iterations");
  rep.set("pagerank.iterations", iters, "count");
  // Bytes one pagerank iteration must move at least: both CSR index
  // arrays, one 8-byte gathered contribution per adjacency entry, and
  // three 8-byte per-vertex streams (rank in, rank out, contribution).
  const double bytes_per_iter =
      static_cast<double>(g.index_bytes()) +
      8.0 * static_cast<double>(g.num_directed_edges()) +
      24.0 * static_cast<double>(g.num_vertices());
  rep.set("pagerank.gbps",
          iters * bytes_per_iter / (median(ms_par["pagerank"]) * 1e-3) / 1e9,
          "GB/s");
  rep.set("obs.overhead_frac", traced_sum / plain_sum - 1.0, "fraction");
}

}  // namespace perfbench
