// micg::api — the stable programmatic surface of the library's kernels.
//
// Every operation is a plain request struct (kernel options + an embedded
// execution configuration) paired with a plain response struct. Three
// front ends drive the same structs through the same run() overloads:
//
//   * tools/micg_cli.cpp parses flags into a request (from_args<T>) and
//     formats the response for stdout;
//   * micg::serve deserializes the identical request from a wire JSON
//     object (from_json<T>) and serializes the response back (to_json);
//   * library users fill the struct directly.
//
// Each struct has one field list (its static `fields()`, see
// micg/api/fields.hpp) naming every member's wire field and CLI flag; the
// three codecs are generic over it, so adding a field takes one entry.
//
// One code path: a CLI `micg bfs` and a served {"op":"bfs"} execute the
// same run(graph, bfs_request) — the CLI goldens pin that the refactor
// changed no output.
//
// Error envelope: run() overloads throw micg::check_error on invalid
// parameters; the serve layer maps exceptions to the uniform status codes
// below, and every wire response carries {"status": <name>, ...}.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "micg/api/fields.hpp"
#include "micg/api/json.hpp"
#include "micg/api/parse.hpp"
#include "micg/bfs/direction.hpp"
#include "micg/graph/any_csr.hpp"
#include "micg/rt/exec.hpp"

namespace micg::api {

// ---------------------------------------------------------------------------
// Status envelope

/// Uniform result status shared by every response (wire and in-process).
enum class status {
  ok,
  bad_request,        ///< malformed frame/JSON/parameters
  not_found,          ///< unknown graph or operation
  too_large,          ///< request frame exceeds the size limit
  overloaded,         ///< admission queue full — graceful shedding
  deadline_exceeded,  ///< request waited past its deadline
  shutting_down,      ///< server is draining; no new work admitted
  internal,           ///< unexpected server-side failure
};

/// Wire name ("ok", "bad_request", ...).
const char* status_name(status s);

/// Inverse of status_name; throws micg::check_error on unknown names.
status status_from_name(const std::string& name);

// ---------------------------------------------------------------------------
// Field lists

struct exec_params;
struct bc_entry;

/// Field-list entry of the api structs (micg/api/fields.hpp).
template <class T>
using field = basic_field<T, bool, int, std::int64_t, double, std::string,
                          std::vector<std::int64_t>, std::vector<bc_entry>,
                          exec_params>;

/// A ranked vertex (bc and pagerank report their top entries).
struct bc_entry {
  std::int64_t vertex = 0;
  double score = 0.0;
  bool operator==(const bc_entry&) const = default;

  static constexpr auto fields() {
    using T = bc_entry;
    return std::to_array<field<T>>(
        {{"vertex", &T::vertex}, {"score", &T::score}});
  }
};

// ---------------------------------------------------------------------------
// Execution parameters

/// The rt::exec subset that crosses API boundaries (backend by wire name;
/// pool/scheduler/recorder stay process-local and are bound by run()).
struct exec_params {
  std::string backend = "OpenMP-dynamic";
  int threads = 4;
  std::int64_t chunk = 64;
  /// Input only: resolve_exec refuses anything but 1 (sharded execution
  /// was removed), so an old client asking for shards fails loudly.
  int shards = 1;
  /// Input only: resolve_exec refuses anything but "" or "fixed" (the
  /// auto-tuner was removed), so an old client asking for it fails
  /// loudly instead of running untuned.
  std::string tune;

  static constexpr auto fields() {
    using T = exec_params;
    return std::to_array<field<T>>(
        {{"backend", &T::backend}, {"threads", &T::threads},
         {"chunk", &T::chunk},
         {.wire = "shards", .member = &T::shards, .omit_unset = true},
         {.wire = "tune", .member = &T::tune, .omit_unset = true}});
  }
};

/// Process-local execution bindings a front end applies on top of a
/// request's exec_params. The CLI uses the defaults (global pool, global
/// recorder fallback); the server pins each in-flight request to its own
/// pool (the global pool rejects concurrent multi-thread regions) and
/// caps per-query parallelism.
struct run_context {
  rt::thread_pool* pool = nullptr;  ///< nullptr = thread_pool::global()
  int max_threads = 0;              ///< clamp request threads; 0 = no cap
  obs::recorder* rec = nullptr;     ///< explicit metrics sink
  /// Snapshot epoch of the graph being queried; the serve layer sets it
  /// from the pinned snapshot so responses (info) can report which
  /// version answered. Negative = unversioned (CLI, direct library use).
  std::int64_t snapshot_epoch = -1;
};

/// exec_params + run_context -> the rt::exec the kernels receive
/// (validates the backend name and ranges).
rt::exec resolve_exec(const exec_params& p, const run_context& ctx);

// ---------------------------------------------------------------------------
// info

struct info_request {
  /// Input only: run() refuses anything but 1, like exec_params::shards.
  std::int64_t shards = 1;

  static constexpr auto fields() {
    using T = info_request;
    return std::to_array<field<T>>(
        {{.wire = "shards", .member = &T::shards, .omit_unset = true}});
  }
};

struct info_response {
  std::string layout;
  std::int64_t num_vertices = 0;
  std::int64_t num_edges = 0;
  std::int64_t min_degree = 0;
  std::int64_t max_degree = 0;
  double avg_degree = 0.0;
  std::int64_t components = 0;
  std::int64_t degeneracy = 0;
  /// BFS levels of a traversal from vertex |V|/2 (Table I convention).
  std::int64_t bfs_levels_from_mid = 0;
  /// Snapshot epoch of the graph answered from (run_context); -1 when the
  /// graph is not versioned (CLI, direct library use).
  std::int64_t epoch = -1;

  static constexpr auto fields() {
    using T = info_response;
    return std::to_array<field<T>>(
        {{"layout", &T::layout}, {"num_vertices", &T::num_vertices},
         {"num_edges", &T::num_edges}, {"min_degree", &T::min_degree},
         {"max_degree", &T::max_degree}, {"avg_degree", &T::avg_degree},
         {"components", &T::components}, {"degeneracy", &T::degeneracy},
         {"bfs_levels_from_mid", &T::bfs_levels_from_mid},
         {.wire = "epoch", .member = &T::epoch, .omit_unset = true}});
  }
};

info_response run(const graph::any_csr& g, const info_request& req,
                  const run_context& ctx = {});

// ---------------------------------------------------------------------------
// bfs

struct bfs_request {
  exec_params ex;
  /// Direction-optimizing BFS by default; the six paper names
  /// ("OpenMP-Block-relaxed", ...) select layered BFS (Fig 4).
  std::string variant = micg::bfs::direction_bfs_name;
  /// Source vertex; negative selects the |V|/2 default the CLI has always
  /// used.
  std::int64_t source = -1;
  /// Block size of the block-accessed queue.
  std::int64_t block = 32;
  /// Vertices whose BFS level the response reports (distance queries);
  /// empty reports none. Out-of-range ids are a bad request.
  std::vector<std::int64_t> targets;

  static constexpr auto fields() {
    using T = bfs_request;
    return std::to_array<field<T>>(
        {{"ex", &T::ex}, {"variant", &T::variant}, {"source", &T::source},
         {"block", &T::block}, {"targets", &T::targets, ""}});
  }
};

struct bfs_response {
  std::string variant;
  std::int64_t source = 0;
  std::int64_t num_levels = 0;
  std::int64_t reached = 0;
  std::int64_t num_vertices = 0;
  /// Level per requested target (-1 = unreachable), aligned with
  /// bfs_request::targets.
  std::vector<std::int64_t> target_levels;

  static constexpr auto fields() {
    using T = bfs_response;
    return std::to_array<field<T>>(
        {{"variant", &T::variant}, {"source", &T::source},
         {"num_levels", &T::num_levels}, {"reached", &T::reached},
         {"num_vertices", &T::num_vertices},
         {.wire = "target_levels",
          .member = &T::target_levels,
          .omit_unset = true}});
  }
};

bfs_response run(const graph::any_csr& g, const bfs_request& req,
                 const run_context& ctx = {});

// ---------------------------------------------------------------------------
// approx_dist
//
// Point-to-point distance answered from a serving-side landmark index
// (bfs/landmark.hpp) in O(k), with an exact-traversal fallback. There is
// no run(graph, dist_request) overload: the answer depends on the
// epoch-keyed cache the serve layer owns, so micg::serve::service
// implements the op and only the field lists live here.

struct dist_request {
  /// Negative selects the |V|/2 default, like bfs.
  std::int64_t source = -1;
  std::int64_t target = 0;
  /// Force the exact traversal even when the landmark bounds would do.
  bool exact = false;

  static constexpr auto fields() {
    using T = dist_request;
    return std::to_array<field<T>>(
        {{"source", &T::source, ""}, {"target", &T::target, ""},
         {"exact", &T::exact, ""}});
  }
};

struct dist_response {
  std::int64_t source = 0;
  std::int64_t target = 0;
  /// The exact distance — or, when `approximate`, the landmark upper
  /// bound (the best O(k) estimate). -1 = provably unreachable.
  std::int64_t distance = -1;
  /// True when answered from landmark bounds without a traversal; the
  /// exact distance then lies in [lower, upper] and distance == upper.
  bool approximate = false;
  /// The landmark bounds; -1 (and left off the wire) unless approximate.
  std::int64_t lower = -1;
  std::int64_t upper = -1;
  /// Pivots consulted; 0 when the answer came from an exact traversal
  /// on a graph with no landmark index yet.
  std::int64_t landmarks = 0;

  static constexpr auto fields() {
    using T = dist_response;
    return std::to_array<field<T>>(
        {{"source", &T::source}, {"target", &T::target},
         {"distance", &T::distance}, {"approximate", &T::approximate},
         {"landmarks", &T::landmarks},
         {.wire = "lower", .member = &T::lower, .omit_unset = true},
         {.wire = "upper", .member = &T::upper, .omit_unset = true}});
  }
};

// ---------------------------------------------------------------------------
// msbfs

struct msbfs_request {
  exec_params ex;
  /// Number of evenly spaced sources when `source_list` is empty.
  std::int64_t sources = 64;
  std::int64_t lanes = 64;
  /// Explicit sources (wire clients batching real queries); overrides
  /// `sources` when non-empty.
  std::vector<std::int64_t> source_list;

  static constexpr auto fields() {
    using T = msbfs_request;
    return std::to_array<field<T>>(
        {{"ex", &T::ex}, {"sources", &T::sources}, {"lanes", &T::lanes},
         {"source_list", &T::source_list, ""}});
  }
};

struct msbfs_response {
  std::int64_t sources = 0;
  std::int64_t batches = 0;
  std::int64_t lanes = 0;
  std::int64_t reached_total = 0;
  std::int64_t levels_total = 0;
  std::int64_t num_vertices = 0;

  static constexpr auto fields() {
    using T = msbfs_response;
    return std::to_array<field<T>>(
        {{"sources", &T::sources}, {"batches", &T::batches},
         {"lanes", &T::lanes}, {"reached_total", &T::reached_total},
         {"levels_total", &T::levels_total},
         {"num_vertices", &T::num_vertices}});
  }
};

msbfs_response run(const graph::any_csr& g, const msbfs_request& req,
                   const run_context& ctx = {});

// ---------------------------------------------------------------------------
// bc (betweenness centrality)

struct bc_request {
  exec_params ex;
  std::int64_t samples = 0;  ///< 0 = exact (all sources)
  bool batched = true;
  std::int64_t lanes = 64;
  std::int64_t top = 5;  ///< entries reported in the response

  static constexpr auto fields() {
    using T = bc_request;
    return std::to_array<field<T>>(
        {{"ex", &T::ex}, {"samples", &T::samples},
         {.wire = "mode",
          .member = &T::batched,
          .words = {"repeated", "batched"}},
         {"lanes", &T::lanes}, {"top", &T::top}});
  }
};

struct bc_response {
  std::vector<bc_entry> top;
  std::int64_t num_vertices = 0;

  static constexpr auto fields() {
    using T = bc_response;
    return std::to_array<field<T>>(
        {{"top", &T::top}, {"num_vertices", &T::num_vertices}});
  }
};

bc_response run(const graph::any_csr& g, const bc_request& req,
                const run_context& ctx = {});

// ---------------------------------------------------------------------------
// color

struct color_request {
  exec_params ex{.backend = "OpenMP-dynamic",
                 .threads = 4,
                 .chunk = 100,
                 .tune = {}};
  bool distance2 = false;

  /// Historical flag shape: `--d2 yes` (any value but "no" enables).
  static constexpr auto fields() {
    using T = color_request;
    return std::to_array<field<T>>(
        {{"ex", &T::ex}, {"distance2", &T::distance2, "d2"}});
  }
};

struct color_response {
  std::int64_t num_colors = 0;
  std::int64_t rounds = 0;
  bool valid = false;
  bool distance2 = false;

  static constexpr auto fields() {
    using T = color_response;
    return std::to_array<field<T>>(
        {{"num_colors", &T::num_colors}, {"rounds", &T::rounds},
         {"valid", &T::valid}, {"distance2", &T::distance2}});
  }
};

color_response run(const graph::any_csr& g, const color_request& req,
                   const run_context& ctx = {});

// ---------------------------------------------------------------------------
// pagerank

struct pagerank_request {
  exec_params ex;
  double damping = 0.85;
  double tolerance = 1e-8;
  std::int64_t max_iterations = 200;
  std::int64_t top = 5;

  static constexpr auto fields() {
    using T = pagerank_request;
    return std::to_array<field<T>>(
        {{"ex", &T::ex}, {"damping", &T::damping},
         {"tolerance", &T::tolerance},
         {"max_iterations", &T::max_iterations, "iterations"},
         {"top", &T::top}});
  }
};

struct pagerank_response {
  std::int64_t iterations = 0;
  bool converged = false;
  double final_delta = 0.0;
  std::vector<bc_entry> top;  ///< highest-ranked vertices

  static constexpr auto fields() {
    using T = pagerank_response;
    return std::to_array<field<T>>(
        {{"iterations", &T::iterations}, {"converged", &T::converged},
         {"final_delta", &T::final_delta}, {"top", &T::top}});
  }
};

pagerank_response run(const graph::any_csr& g, const pagerank_request& req,
                      const run_context& ctx = {});

// ---------------------------------------------------------------------------
// sssp (weighted single-source shortest paths)

struct sssp_request {
  exec_params ex;
  /// Negative selects the |V|/2 default, like bfs.
  std::int64_t source = -1;
  /// Delta-stepping bucket width; 0 picks one from the graph's stats
  /// (tune::pick_sssp_delta). Every value >= 1 yields identical
  /// distances — the knob only moves the speed.
  std::int64_t delta = 0;
  /// Weight-stream seed (graph/weighted.hpp): weights are derived from
  /// {seed, endpoint pair}, so equal seeds mean bit-identical weights in
  /// every layout and snapshot epoch.
  std::int64_t weights_seed = 1;
  /// Inclusive weight range upper bound (lower bound is pinned at 1).
  std::int64_t max_weight = 255;
  /// Vertices whose distance the response reports; empty reports none.
  std::vector<std::int64_t> targets;

  static constexpr auto fields() {
    using T = sssp_request;
    return std::to_array<field<T>>(
        {{"ex", &T::ex}, {"source", &T::source}, {"delta", &T::delta},
         {"weights", &T::weights_seed},
         {"max_weight", &T::max_weight, "max-weight"},
         {"targets", &T::targets, ""}});
  }
};

struct sssp_response {
  std::int64_t source = 0;
  std::int64_t delta = 0;  ///< the width actually used (after auto-pick)
  std::int64_t num_vertices = 0;
  std::int64_t reached = 0;
  std::int64_t relaxations = 0;
  std::int64_t buckets = 0;
  /// Distance per requested target (-1 = unreachable), aligned with
  /// sssp_request::targets.
  std::vector<std::int64_t> target_dists;

  static constexpr auto fields() {
    using T = sssp_response;
    return std::to_array<field<T>>(
        {{"source", &T::source}, {"delta", &T::delta},
         {"num_vertices", &T::num_vertices}, {"reached", &T::reached},
         {"relaxations", &T::relaxations}, {"buckets", &T::buckets},
         {.wire = "target_dists",
          .member = &T::target_dists,
          .omit_unset = true}});
  }
};

sssp_response run(const graph::any_csr& g, const sssp_request& req,
                  const run_context& ctx = {});

// ---------------------------------------------------------------------------
// cc (connected components)

struct cc_request {
  exec_params ex;

  static constexpr auto fields() {
    using T = cc_request;
    return std::to_array<field<T>>({{"ex", &T::ex}});
  }
};

struct cc_response {
  std::int64_t num_components = 0;
  std::int64_t largest = 0;  ///< vertices in the largest component
  std::int64_t rounds = 0;   ///< link passes (Afforest: always 3)
  std::int64_t num_vertices = 0;

  static constexpr auto fields() {
    using T = cc_response;
    return std::to_array<field<T>>(
        {{"num_components", &T::num_components}, {"largest", &T::largest},
         {"rounds", &T::rounds}, {"num_vertices", &T::num_vertices}});
  }
};

cc_response run(const graph::any_csr& g, const cc_request& req,
                const run_context& ctx = {});

/// Kept for callers that predate from_json<T>.
inline bfs_request bfs_request_from_json(const json& v) {
  return from_json<bfs_request>(v);
}

// ---------------------------------------------------------------------------
// Generic dispatch (the server's single entry point)

/// One query op dispatchable by name over a loaded graph.
struct query_op {
  const char* name;
  /// to_json(run(g, from_json<request>(params), ctx)).
  json (*run)(const graph::any_csr& g, const json& params,
              const run_context& ctx);
  /// field_names<request>.
  std::vector<std::pair<std::string, std::string>> (*request_fields)();
};

/// Every query op; is_query_op and dispatch_query read this table.
std::span<const query_op> query_ops();

bool is_query_op(const std::string& op);

/// Parse `params` as `op`'s request type, run it against `g`, and return
/// the response as JSON. Throws micg::check_error for bad parameters and
/// unknown ops (the serve layer maps those to bad_request / not_found).
/// This is the exact code path the CLI subcommands use — the structs in
/// between are identical.
json dispatch_query(const graph::any_csr& g, const std::string& op,
                    const json& params, const run_context& ctx = {});

}  // namespace micg::api
