#include "micg/api/api.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <span>

#include "micg/bfs/centrality.hpp"
#include "micg/bfs/layered.hpp"
#include "micg/bfs/msbfs.hpp"
#include "micg/bfs/seq.hpp"
#include "micg/bfs/sssp.hpp"
#include "micg/graph/components.hpp"
#include "micg/graph/weighted.hpp"
#include "micg/color/distance2.hpp"
#include "micg/color/iterative.hpp"
#include "micg/color/ordering.hpp"
#include "micg/color/verify.hpp"
#include "micg/bfs/direction.hpp"
#include "micg/graph/stats.hpp"
#include "micg/irregular/pagerank.hpp"
#include "micg/tune/tune.hpp"

namespace micg::api {

namespace {

/// Sharded execution was removed. The field stays on the wire so a
/// request that still asks for shards is refused instead of silently
/// running unsharded (from_json ignores unknown fields).
constexpr const char* kShardsRemoved =
    "shards must be 1: sharded execution was removed";

/// Top-k selection by descending score, ties broken exactly like the
/// historical CLI code (std::partial_sort over the index array with a
/// score-only comparator) so the committed goldens are reproduced
/// bit-for-bit.
std::vector<bc_entry> top_entries(const std::vector<double>& score,
                                  std::int64_t top) {
  const auto k = static_cast<std::size_t>(std::max<std::int64_t>(top, 0));
  std::vector<std::size_t> idx(score.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::partial_sort(
      idx.begin(),
      idx.begin() + static_cast<std::ptrdiff_t>(std::min(k, idx.size())),
      idx.end(),
      [&](std::size_t a, std::size_t b) { return score[a] > score[b]; });
  std::vector<bc_entry> out;
  out.reserve(std::min(k, idx.size()));
  for (std::size_t i = 0; i < std::min(k, idx.size()); ++i) {
    out.push_back({static_cast<std::int64_t>(idx[i]), score[idx[i]]});
  }
  return out;
}

/// Per-request view of the auto-tuner: resolves the mode once, reuses
/// the serve layer's cached plan when the context carries one, probes
/// the graph and picks inline otherwise. get() is nullptr under "fixed"
/// — the historical code path, untouched.
class tuned_plan {
 public:
  tuned_plan(const graph::any_csr& g, const exec_params& ex,
             const run_context& ctx, obs::recorder* rec)
      : mode_(tune::resolve_tune_mode(ex.tune)) {
    if (mode_ == tune::tune_mode::fixed) return;
    if (ctx.plan != nullptr) {
      shared_ = ctx.plan;
    } else {
      local_ = tune::pick_knobs(tune::profile_for_mode(mode_),
                                graph::compute_graph_stats(g));
    }
    tune::tag_plan(rec, mode_, *get());
  }
  tuned_plan(const tuned_plan&) = delete;
  tuned_plan& operator=(const tuned_plan&) = delete;

  [[nodiscard]] const tune::knob_plan* get() const {
    if (mode_ == tune::tune_mode::fixed) return nullptr;
    return shared_ != nullptr ? shared_ : &local_;
  }

 private:
  tune::tune_mode mode_;
  const tune::knob_plan* shared_ = nullptr;
  tune::knob_plan local_;
};

}  // namespace

// ---------------------------------------------------------------------------
// status

const char* status_name(status s) {
  switch (s) {
    case status::ok: return "ok";
    case status::bad_request: return "bad_request";
    case status::not_found: return "not_found";
    case status::too_large: return "too_large";
    case status::overloaded: return "overloaded";
    case status::deadline_exceeded: return "deadline_exceeded";
    case status::shutting_down: return "shutting_down";
    case status::internal: return "internal";
  }
  return "internal";
}

status status_from_name(const std::string& name) {
  for (status s : {status::ok, status::bad_request, status::not_found,
                   status::too_large, status::overloaded,
                   status::deadline_exceeded, status::shutting_down,
                   status::internal}) {
    if (name == status_name(s)) return s;
  }
  MICG_CHECK(false, "unknown status name: " + name);
  return status::internal;  // unreachable
}

// ---------------------------------------------------------------------------
// exec_params

rt::exec resolve_exec(const exec_params& p, const run_context& ctx) {
  MICG_CHECK(p.threads >= 1 && p.threads <= 4096,
             "threads must be in [1, 4096]");
  MICG_CHECK(p.chunk >= 1, "chunk must be >= 1");
  MICG_CHECK(p.shards == 1, kShardsRemoved);
  rt::exec e;
  e.kind = rt::backend_from_name(p.backend);
  e.threads = p.threads;
  if (ctx.max_threads > 0 && e.threads > ctx.max_threads) {
    e.threads = ctx.max_threads;
  }
  e.chunk = p.chunk;
  e.pool = ctx.pool;
  e.rec = ctx.rec;
  return e;
}

// ---------------------------------------------------------------------------
// info

info_response run(const graph::any_csr& g, const info_request& req,
                  const run_context& ctx) {
  MICG_CHECK(req.shards == 1, kShardsRemoved);
  info_response r;
  r.layout = graph::layout_name(g.layout());
  // Degree columns via the memoizable one-sweep probe (graph/stats.hpp).
  const auto stats = graph::compute_graph_stats(g);
  g.visit([&](const auto& cg) {
    r.num_vertices = static_cast<std::int64_t>(cg.num_vertices());
    r.num_edges = static_cast<std::int64_t>(cg.num_edges());
    r.min_degree = stats.min_degree;
    r.max_degree = stats.max_degree;
    r.avg_degree = stats.avg_degree;
    r.components =
        static_cast<std::int64_t>(graph::count_components(cg));
    r.degeneracy = static_cast<std::int64_t>(color::degeneracy(cg));
    r.bfs_levels_from_mid = bfs::seq_bfs(cg, cg.num_vertices() / 2).num_levels;
  });
  r.epoch = ctx.snapshot_epoch;
  return r;
}

// ---------------------------------------------------------------------------
// bfs

bfs_response run(const graph::any_csr& g, const bfs_request& req,
                 const run_context& ctx) {
  bfs_response r;
  micg::bfs::parallel_bfs_options opt;
  opt.ex = resolve_exec(req.ex, ctx);
  MICG_CHECK(req.block >= 1 && req.block <= (1 << 20),
             "block must be in [1, 2^20]");
  opt.block = static_cast<int>(req.block);
  const bool direction = req.variant == micg::bfs::direction_bfs_name;
  if (!direction) opt.variant = micg::bfs::bfs_variant_from_name(req.variant);
  const std::int64_t n = g.num_vertices();
  const std::int64_t source = req.source < 0 ? n / 2 : req.source;
  MICG_CHECK(n > 0, "bfs on an empty graph");
  MICG_CHECK(source < n, "source vertex out of range");
  for (const auto t : req.targets) {
    MICG_CHECK(t >= 0 && t < n, "target vertex out of range");
  }
  r.variant = req.variant;
  r.source = source;
  r.num_vertices = n;
  const auto record = [&](const auto& res) {
    r.num_levels = res.num_levels;
    r.reached = static_cast<std::int64_t>(res.reached);
    for (const auto t : req.targets) {
      r.target_levels.push_back(res.level[static_cast<std::size_t>(t)]);
    }
    return r;
  };
  const tuned_plan tp(g, req.ex, ctx, opt.ex.sink());
  if (const tune::knob_plan* plan = tp.get(); plan != nullptr) {
    if (plan->chunk > 0) opt.ex.chunk = plan->chunk;
  }
  if (direction) {
    micg::bfs::direction_options dopt;
    dopt.ex = opt.ex;
    dopt.block = opt.block;
    return g.visit([&](const auto& cg) {
      using VId = typename std::decay_t<decltype(cg)>::vertex_type;
      return record(micg::bfs::direction_optimizing_bfs(
          cg, static_cast<VId>(source), dopt));
    });
  }
  return g.visit([&](const auto& cg) {
    using VId = typename std::decay_t<decltype(cg)>::vertex_type;
    return record(
        micg::bfs::parallel_bfs(cg, static_cast<VId>(source), opt));
  });
}

// ---------------------------------------------------------------------------
// msbfs

msbfs_response run(const graph::any_csr& g, const msbfs_request& req,
                   const run_context& ctx) {
  msbfs_response r;
  micg::bfs::msbfs_pool::options opt;
  opt.ex = resolve_exec(req.ex, ctx);
  MICG_CHECK(req.lanes >= 1 && req.lanes <= micg::bfs::msbfs_max_lanes,
             "lanes must be in [1, 64]");
  opt.lanes = static_cast<int>(req.lanes);
  const std::int64_t n = g.num_vertices();
  MICG_CHECK(n > 0, "msbfs on an empty graph");
  g.visit([&](const auto& cg) {
    using VId = typename std::decay_t<decltype(cg)>::vertex_type;
    std::vector<VId> sources;
    if (!req.source_list.empty()) {
      sources.reserve(req.source_list.size());
      for (const auto s : req.source_list) {
        MICG_CHECK(s >= 0 && s < n, "source vertex out of range");
        sources.push_back(static_cast<VId>(s));
      }
    } else {
      // Evenly spaced sources — the spacing rule the CLI has always used.
      const std::int64_t k = std::min(std::max<std::int64_t>(req.sources, 0),
                                      n);
      sources.resize(static_cast<std::size_t>(k));
      for (std::int64_t i = 0; i < k; ++i) {
        sources[static_cast<std::size_t>(i)] =
            static_cast<VId>(i * n / std::max<std::int64_t>(k, 1));
      }
    }
    const micg::bfs::msbfs_pool pool(opt);
    std::atomic<long long> batches{0};
    std::atomic<long long> reached{0};
    std::atomic<long long> levels{0};
    pool.for_each_batch(
        cg, std::span<const VId>(sources),
        [&](const micg::bfs::msbfs_batch& batch,
            const micg::bfs::msbfs_result& res) {
          batches.fetch_add(1, std::memory_order_relaxed);
          long long rr = 0, ll = 0;
          for (int lane = 0; lane < batch.lanes; ++lane) {
            rr += static_cast<long long>(
                res.reached[static_cast<std::size_t>(lane)]);
            ll += res.num_levels[static_cast<std::size_t>(lane)];
          }
          reached.fetch_add(rr, std::memory_order_relaxed);
          levels.fetch_add(ll, std::memory_order_relaxed);
        });
    r.sources = static_cast<std::int64_t>(sources.size());
    r.batches = batches.load();
    r.reached_total = reached.load();
    r.levels_total = levels.load();
  });
  r.lanes = opt.lanes;
  r.num_vertices = n;
  return r;
}

// ---------------------------------------------------------------------------
// bc

bc_response run(const graph::any_csr& g, const bc_request& req,
                const run_context& ctx) {
  bc_response r;
  micg::bfs::centrality_options opt;
  opt.ex = resolve_exec(req.ex, ctx);
  opt.sample_sources = req.samples;
  opt.batched = req.batched;
  MICG_CHECK(req.lanes >= 1 && req.lanes <= micg::bfs::msbfs_max_lanes,
             "lanes must be in [1, 64]");
  opt.batch_lanes = static_cast<int>(req.lanes);
  std::vector<double> bc;
  g.visit([&](const auto& cg) {
    bc = micg::bfs::betweenness_centrality(cg, opt);
  });
  r.top = top_entries(bc, req.top);
  r.num_vertices = g.num_vertices();
  return r;
}

// ---------------------------------------------------------------------------
// color

color_response run(const graph::any_csr& g, const color_request& req,
                   const run_context& ctx) {
  color_response r;
  micg::color::iterative_options opt;
  opt.ex = resolve_exec(req.ex, ctx);
  g.visit([&](const auto& cg) {
    if (req.distance2) {
      const auto res = micg::color::iterative_color_distance2(cg, opt);
      r.num_colors = res.num_colors;
      r.rounds = res.rounds;
      r.valid = micg::color::is_valid_distance2_coloring(cg, res.color,
                                                          opt.ex);
    } else {
      const auto res = micg::color::iterative_color(cg, opt);
      r.num_colors = res.num_colors;
      r.rounds = res.rounds;
      r.valid = micg::color::is_valid_coloring(cg, res.color, opt.ex);
    }
  });
  r.distance2 = req.distance2;
  return r;
}

// ---------------------------------------------------------------------------
// pagerank

pagerank_response run(const graph::any_csr& g, const pagerank_request& req,
                      const run_context& ctx) {
  pagerank_response r;
  micg::irregular::pagerank_options opt;
  opt.ex = resolve_exec(req.ex, ctx);
  MICG_CHECK(req.damping > 0.0 && req.damping < 1.0,
             "damping must be in (0, 1)");
  MICG_CHECK(req.tolerance > 0.0, "tolerance must be > 0");
  MICG_CHECK(req.max_iterations >= 1 && req.max_iterations <= 1000000,
             "max_iterations must be in [1, 10^6]");
  opt.damping = req.damping;
  opt.tolerance = req.tolerance;
  opt.max_iterations = static_cast<int>(req.max_iterations);
  const tuned_plan tp(g, req.ex, ctx, opt.ex.sink());
  if (const tune::knob_plan* plan = tp.get(); plan != nullptr) {
    // Memory fast-path knobs are bit-identical by construction (the
    // parity tests pin it) and the reductions use deterministic fixed
    // blocks (rt/reduce.hpp), so the tuner is free to flip knobs and
    // chunk per host.
    opt.mem = plan->mem;
    if (plan->chunk > 0) opt.ex.chunk = plan->chunk;
  }
  const auto res = g.visit(
      [&](const auto& cg) { return micg::irregular::pagerank(cg, opt); });
  r.iterations = res.iterations;
  r.converged = res.converged;
  r.final_delta = res.final_delta;
  r.top = top_entries(res.rank, req.top);
  return r;
}

// ---------------------------------------------------------------------------
// sssp

sssp_response run(const graph::any_csr& g, const sssp_request& req,
                  const run_context& ctx) {
  sssp_response r;
  micg::bfs::sssp_options opt;
  opt.ex = resolve_exec(req.ex, ctx);
  const std::int64_t n = g.num_vertices();
  MICG_CHECK(n > 0, "sssp on an empty graph");
  const std::int64_t source = req.source < 0 ? n / 2 : req.source;
  MICG_CHECK(source < n, "source vertex out of range");
  for (const auto t : req.targets) {
    MICG_CHECK(t >= 0 && t < n, "target vertex out of range");
  }
  MICG_CHECK(req.delta >= 0, "delta must be >= 0 (0 = auto-pick)");
  MICG_CHECK(req.max_weight >= 1 &&
                 req.max_weight <=
                     std::numeric_limits<graph::weight_t>::max(),
             "max_weight must be in [1, 2^31)");
  if (req.delta > 0) {
    opt.delta = req.delta;
  } else {
    // The picker reads only the mean degree, the value a full stats pass
    // would compute as 2|E| / |V|.
    graph::graph_stats st;
    st.avg_degree = static_cast<double>(g.num_directed_edges()) /
                    static_cast<double>(n);
    opt.delta = tune::pick_sssp_delta(st, req.max_weight);
  }
  // Each worker's bucket window spans up to max_weight / delta + 1 bins;
  // a wider one is a request for memory, not for a different answer.
  MICG_CHECK(req.max_weight / opt.delta <= (std::int64_t{1} << 20),
             "max_weight / delta must be <= 2^20 (raise delta)");
  // The knob picker may move the scheduling chunk; like every tuned knob
  // the answer is invariant (any delta, any chunk -> same distances).
  const tuned_plan tp(g, req.ex, ctx, opt.ex.sink());
  if (const tune::knob_plan* plan = tp.get();
      plan != nullptr && plan->chunk > 0) {
    opt.ex.chunk = plan->chunk;
  }
  graph::weight_params wp;
  wp.seed = static_cast<std::uint64_t>(req.weights_seed);
  wp.max_weight = static_cast<graph::weight_t>(req.max_weight);
  g.visit([&](const auto& cg) {
    using VId = typename std::decay_t<decltype(cg)>::vertex_type;
    // Weights are re-derived per request from {seed, endpoints} — O(|E|),
    // and by construction identical across layouts, epochs and
    // compactions, which is what lets weighted queries run against any
    // pinned snapshot without the store materializing them. The fill
    // writes every slot, so the array skips zeroing, and it runs on the
    // request's own workers, which then hold its pages first-touched.
    const auto m = static_cast<std::size_t>(cg.num_directed_edges());
    const auto w = std::make_unique_for_overwrite<graph::weight_t[]>(m);
    const std::span<graph::weight_t> ws(w.get(), m);
    graph::fill_weights(cg, wp, ws, opt.ex);
    const auto res =
        micg::bfs::delta_stepping_sssp(cg, static_cast<VId>(source), ws, opt);
    r.reached = res.reached;
    r.relaxations = res.relaxations;
    r.buckets = res.buckets;
    for (const auto t : req.targets) {
      r.target_dists.push_back(res.dist[static_cast<std::size_t>(t)]);
    }
  });
  r.source = source;
  r.delta = opt.delta;
  r.num_vertices = n;
  return r;
}

// ---------------------------------------------------------------------------
// cc

cc_response run(const graph::any_csr& g, const cc_request& req,
                const run_context& ctx) {
  cc_response r;
  const rt::exec ex = resolve_exec(req.ex, ctx);
  const std::int64_t n = g.num_vertices();
  MICG_CHECK(n > 0, "cc on an empty graph");
  g.visit([&](const auto& cg) {
    const auto res = graph::parallel_components(cg, ex);
    r.num_components = static_cast<std::int64_t>(res.num_components);
    r.rounds = res.rounds;
    // Labels are smallest-member ids, so each is a vertex id below n:
    // count sizes in a dense array indexed by label.
    std::vector<std::int64_t> size(static_cast<std::size_t>(n), 0);
    for (const auto l : res.label) {
      r.largest = std::max(r.largest, ++size[static_cast<std::size_t>(l)]);
    }
  });
  r.num_vertices = n;
  return r;
}

// ---------------------------------------------------------------------------
// dispatch

namespace {

template <class Req>
json run_query(const graph::any_csr& g, const json& params,
               const run_context& ctx) {
  return to_json(run(g, from_json<Req>(params), ctx));
}

template <class Req>
constexpr query_op make_op(const char* name) {
  return {name, run_query<Req>, field_names<Req>};
}

constexpr query_op ops[] = {
    make_op<info_request>("info"),   make_op<bfs_request>("bfs"),
    make_op<msbfs_request>("msbfs"), make_op<bc_request>("bc"),
    make_op<color_request>("color"), make_op<pagerank_request>("pagerank"),
    make_op<sssp_request>("sssp"),   make_op<cc_request>("cc"),
};

}  // namespace

std::span<const query_op> query_ops() { return ops; }

bool is_query_op(const std::string& op) {
  return std::ranges::any_of(ops,
                             [&](const query_op& q) { return op == q.name; });
}

json dispatch_query(const graph::any_csr& g, const std::string& op,
                    const json& params, const run_context& ctx) {
  for (const query_op& q : ops) {
    if (op == q.name) return q.run(g, params, ctx);
  }
  MICG_CHECK(false, "unknown query op: " + op);
  return json();  // unreachable
}

}  // namespace micg::api
