#include "micg/tune/tune.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "micg/support/assert.hpp"

namespace micg::tune {

namespace {

// Decision thresholds. Centralized so the unit-test decision table and
// the rationale strings reference one set of constants.

/// A non-default gather flavor must beat the shipped default (SIMD on,
/// prefetch off) by this factor before the picker deviates — hysteresis
/// against calibration noise flapping the knobs run to run.
constexpr double kFlavorHysteresis = 1.03;
/// Degree skew (max/avg) past which vertex-count chunks serialize on hub
/// rows and edge balancing pays.
constexpr double kEdgeBalanceSkew = 4.0;
/// Hub mass (top-64 edge fraction) that forces edge balancing even at
/// modest skew.
constexpr double kEdgeBalanceHubMass = 0.10;
/// Scheduling overhead target: one chunk claim per >= 100x its cost of
/// useful work (<= 1% overhead).
constexpr double kClaimAmortization = 100.0;

/// Predicted gather throughput of (simd, prefetch) at one measured
/// point. Prefetch was measured on the scalar path only; the two effects
/// are assumed independent (multiplicative), which is what the committed
/// ablations show on both flavors.
double flavor_gbps(const gather_point& pt, bool simd, int prefetch) {
  const double base = simd ? pt.simd_gbps : pt.plain_gbps;
  const double pf = prefetch == 32  ? pt.prefetch32_gbps
                    : prefetch == 8 ? pt.prefetch8_gbps
                                    : pt.plain_gbps;
  return base * (pf / pt.plain_gbps);
}

}  // namespace

const char* tune_mode_name(tune_mode m) {
  switch (m) {
    case tune_mode::fixed: return "fixed";
    case tune_mode::auto_pick: return "auto";
    case tune_mode::calibrate: return "calibrate";
  }
  return "fixed";
}

tune_mode tune_mode_from_name(const std::string& name) {
  for (tune_mode m :
       {tune_mode::fixed, tune_mode::auto_pick, tune_mode::calibrate}) {
    if (name == tune_mode_name(m)) return m;
  }
  MICG_CHECK(false, "unknown tune mode: " + name +
                        " (expected fixed, auto or calibrate)");
  return tune_mode::fixed;  // unreachable
}

tune_mode resolve_tune_mode(const std::string& request_field) {
  if (!request_field.empty()) return tune_mode_from_name(request_field);
  const char* env = std::getenv("MICG_TUNE");
  if (env != nullptr && *env != '\0') return tune_mode_from_name(env);
  return tune_mode::fixed;
}

knob_plan pick_knobs(const calibration_profile& prof,
                     const graph::graph_stats& st) {
  knob_plan plan;
  std::ostringstream why;

  // The gathered object is the x/rank/level vector: 8 bytes per vertex.
  const std::int64_t payload =
      std::max<std::int64_t>(st.num_vertices * 8, 512);
  const gather_point* pt = prof.gather_near(payload);
  MICG_CHECK(pt != nullptr, "calibration profile has no gather points");

  // --- gather flavor: argmax over the grid the kernels can execute, with
  // hysteresis in favor of the shipped default (simd on, prefetch off).
  const double dflt = flavor_gbps(*pt, true, 0);
  bool best_simd = true;
  int best_pf = 0;
  double best = dflt;
  for (const bool simd : {false, true}) {
    for (const int pf : {0, 8, 32}) {
      if (simd && pf == 0) continue;  // the default itself
      const double est = flavor_gbps(*pt, simd, pf);
      if (est > dflt * kFlavorHysteresis && est > best) {
        best_simd = simd;
        best_pf = pf;
        best = est;
      }
    }
  }
  why << "ws=" << pt->working_set_bytes << "B "
      << (best_simd ? "simd" : "scalar") << " pf" << best_pf << " ("
      << best / dflt << "x default)";

  // --- loop partitioning: edge balancing once hub rows can dominate a
  // vertex-count chunk.
  const bool edge_balance = st.skew() >= kEdgeBalanceSkew ||
                            st.hub_edge_fraction >= kEdgeBalanceHubMass;
  plan.mem = rt::mem_opts{
      .partition = edge_balance ? rt::partition_mode::edge
                                : rt::partition_mode::vertex,
      .prefetch_distance = best_pf,
      .simd = best_simd,
  };
  why << "; skew=" << st.skew() << " hubs=" << st.hub_edge_fraction << " -> "
      << rt::partition_mode_name(plan.mem.partition);

  // --- layout: the narrowest-fit rule, restated from the stats so the
  // serving layer can flag snapshots stored wider than needed.
  plan.layout = graph::select_layout(st.num_vertices, st.num_directed_edges);

  // --- chunk: amortize one dynamic-schedule claim over >= 100x its cost
  // of per-chunk gather work, never below the shipped default of 64.
  const double edge_ns = 8.0 / best;  // ns per gathered edge at `best` GB/s
  const double vertex_ns = std::max(st.avg_degree, 1.0) * edge_ns;
  const double raw = kClaimAmortization * prof.chunk_claim_ns / vertex_ns;
  plan.chunk = static_cast<std::int64_t>(std::bit_ceil(
      static_cast<std::uint64_t>(std::clamp(raw, 64.0, 8192.0))));
  why << "; chunk=" << plan.chunk;

  plan.rationale = why.str();
  return plan;
}

std::string knobs_summary(const knob_plan& plan) {
  std::ostringstream out;
  out << rt::partition_mode_name(plan.mem.partition) << "/pf"
      << plan.mem.prefetch_distance << "/"
      << (plan.mem.simd ? "simd" : "scalar") << "/chunk"
      << plan.chunk;
  return out.str();
}

std::int64_t pick_sssp_delta(const graph::graph_stats& st,
                             std::int64_t max_weight) {
  MICG_CHECK(max_weight >= 1, "max_weight must be >= 1");
  const auto branching =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(st.avg_degree));
  return std::max<std::int64_t>(1, max_weight / branching);
}

void tag_plan(obs::recorder* rec, tune_mode mode, const knob_plan& plan) {
  if (rec == nullptr) return;
  rec->set_meta("tune.mode", tune_mode_name(mode));
  rec->set_meta("tune.knobs", knobs_summary(plan));
  rec->set_meta("tune.why", plan.rationale);
}

const calibration_profile& profile_for_mode(tune_mode m) {
  if (m == tune_mode::calibrate) {
    // One quick in-process measurement, shared by every later pick.
    static std::once_flag once;
    static calibration_profile measured;
    std::call_once(once, [] {
      calibrate_options opt;
      opt.quick = true;
      opt.repeats = 2;
      measured = calibrate(opt);
    });
    return measured;
  }
  return host_profile();
}

}  // namespace micg::tune
