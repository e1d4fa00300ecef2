// The knob picker — calibration x graph stats -> concrete configuration.
//
// pick_knobs() joins the two halves of the auto-tuner: a machine profile
// (tune/calib.hpp — what does a gather cost here, in each fast-path
// flavor?) and a graph probe (graph/stats.hpp — how skewed is the degree
// distribution, how wide do frontiers get?). It runs a small roofline
// cost model over the configurations the kernels can actually execute
// and emits a knob_plan: the rt::mem_opts for the irregular kernels, the
// loop partitioning, the storage layout, and a chunk size. BFS takes only
// the chunk: direction-optimizing BFS decides its direction itself.
//
// Every knob it sets is *output-invariant by construction*: SIMD /
// prefetch / partitioning are bit-identical fast paths (tested since
// their PRs), and chunk only moves scheduling boundaries. `--tune auto`
// can therefore never change an answer, only its speed — the property
// tests in tests/tune_test.cpp pin this across layouts and kernels.
//
// Modes (CLI --tune, wire field "tune", env MICG_TUNE):
//   fixed     — knobs come from the request / compiled defaults (the
//               historical behavior; the default).
//   auto      — pick from host_profile() ($MICG_CALIB or the builtin
//               default) + the graph's cached stats.
//   calibrate — measure a quick profile first (once per process), then
//               pick. For hosts that never ran `micg calibrate`.
#pragma once

#include <cstdint>
#include <string>

#include "micg/graph/any_csr.hpp"
#include "micg/graph/stats.hpp"
#include "micg/obs/obs.hpp"
#include "micg/rt/edge_partition.hpp"
#include "micg/tune/calib.hpp"

namespace micg::tune {

enum class tune_mode {
  fixed,
  auto_pick,
  calibrate,
};

/// Wire/flag name: "fixed", "auto", "calibrate".
const char* tune_mode_name(tune_mode m);
/// Inverse of tune_mode_name; throws micg::check_error on unknown names.
tune_mode tune_mode_from_name(const std::string& name);

/// Resolve a request's tune field: a non-empty field wins; an empty one
/// defers to $MICG_TUNE (so CI can force a mode process-wide); unset
/// everywhere means fixed.
tune_mode resolve_tune_mode(const std::string& request_field);

/// The configuration the picker chose. Fields the caller should leave
/// alone are encoded as "keep" values (chunk == 0).
struct knob_plan {
  /// Memory fast-path knobs for the irregular kernels.
  rt::mem_opts mem{};
  /// Scheduling grain for dynamic backends; 0 = keep the request's chunk.
  std::int64_t chunk = 0;

  /// Narrowest storage layout that fits the graph (select_layout rule).
  /// Advisory: run() cannot re-lay-out a loaded graph, but the serve
  /// compaction path and the obs tags report mismatches.
  graph::csr_layout layout = graph::csr_layout::v32e32;

  /// One-line human-readable account of the decisions ("skew=41.2 ->
  /// edge; simd x1.25 -> on; ..."), for obs tags and `micg calibrate -v`.
  std::string rationale;
};

/// Run the cost model. Pure function of its inputs — the decision-table
/// unit tests feed synthetic profiles/stats and assert exact knobs.
knob_plan pick_knobs(const calibration_profile& prof,
                     const graph::graph_stats& st);

/// Compact knob summary for metrics tags ("edge/pf0/simd/chunk128").
std::string knobs_summary(const knob_plan& plan);

/// Default delta-stepping bucket width for a graph: max_weight divided by
/// the branching factor (clamped to >= 1). Rationale: a settled vertex's
/// out-relaxations spread over ~avg_degree targets within max_weight of
/// it, so this width keeps a bucket's expected population near one
/// frontier "generation" — fewer rounds on meshes (low degree -> wide
/// buckets), less re-relaxation on hubs (high degree -> narrow buckets).
/// Output-invariant like every other knob: distances are exact for ANY
/// delta >= 1 (bfs/sssp.hpp), the pick only moves the speed.
std::int64_t pick_sssp_delta(const graph::graph_stats& st,
                             std::int64_t max_weight);

/// Publish tune.mode / tune.knobs / tune.why meta tags on `rec` (no-op
/// when rec is nullptr).
void tag_plan(obs::recorder* rec, tune_mode mode, const knob_plan& plan);

/// The profile a non-fixed mode consults: auto_pick -> host_profile();
/// calibrate -> a quick measured profile, cached for the process.
const calibration_profile& profile_for_mode(tune_mode m);

}  // namespace micg::tune
