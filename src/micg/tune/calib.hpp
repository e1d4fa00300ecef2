// Host calibration: microbenchmarks of the machine parameters the
// performance model and a roofline need.
//
// The paper's central lesson is that the *same* kernels want different
// memory-hierarchy configurations on different machines (§V, §VI). The
// kernels here run one fixed configuration each; this header measures
// the host they run on, so a measured time can be set against the
// host's bounds and the what-if model can be fitted to it.
//
// `calibrate()` microbenchmarks:
//
//   * alu_ns            — latency of one dependent ALU op (the model's
//                         abstract "time unit", measured);
//   * stream_gbps       — sequential triad bandwidth (roofline ceiling);
//   * gather points     — effective random-gather bandwidth at several
//                         working-set sizes, scalar and SIMD — the
//                         gather_sum() inner loop of the irregular
//                         kernels, measured directly;
//   * gather_latency_ns — dependent-chain (pointer-chase) miss latency;
//   * chunk_claim_ns /
//     spawn_ns          — per-chunk dynamic-scheduling and per-task
//                         overheads of the rt backends.
//
// The result round-trips through the `micg.calib.v1` JSON schema so one
// `micg calibrate` run can be committed and stamped into benchmark
// records, and projects onto model::machine_config so the what-if
// simulator can answer questions about the calibrated host, not just the
// paper's presets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "micg/api/json.hpp"
#include "micg/model/machine.hpp"

namespace micg::tune {

/// Wire/schema identifier of the persisted profile.
inline constexpr const char* calib_schema = "micg.calib.v1";

/// Random-gather throughput at one working-set size, scalar and SIMD.
/// Bandwidths are *payload* GB/s (8 bytes per gathered double, line
/// fills not counted).
struct gather_point {
  std::int64_t working_set_bytes = 0;
  double plain_gbps = 0.0;  ///< scalar striped-8
  double simd_gbps = 0.0;   ///< vector gather path (== plain when the
                            ///< build has no SIMD)
};

struct calibration_profile {
  std::string host;  ///< free-form machine label ("" is fine)
  std::string isa;   ///< simd::isa_name() at calibration time
  int threads = 1;   ///< threads the bandwidth benches ran with
  /// True for hand-written profiles (tests); false only for profiles
  /// measured by calibrate().
  bool synthetic = true;

  double alu_ns = 0.0;             ///< one dependent shift-add iteration
  double stream_gbps = 0.0;        ///< sequential triad bandwidth
  double gather_latency_ns = 0.0;  ///< pointer-chase ns per hop
  double chunk_claim_ns = 0.0;     ///< dynamic-schedule per-chunk claim
  double spawn_ns = 0.0;           ///< per-task create/retire overhead
  /// Gather throughput by working set, ascending working_set_bytes.
  std::vector<gather_point> gather;

  /// The measured point whose working set is nearest (log-scale) to
  /// `bytes`; never nullptr on a valid profile (gather is non-empty).
  [[nodiscard]] const gather_point* gather_near(std::int64_t bytes) const;
};

struct calibrate_options {
  int threads = 1;
  /// Timing repetitions per microbenchmark (minimum is kept).
  int repeats = 3;
  /// Shrink working sets and iteration counts ~8x. For smoke tests and
  /// the bench harness; ratios stay usable, absolute numbers get noisy.
  bool quick = false;
  /// Working-set sizes for the gather sweep; empty selects the default
  /// ladder (256 KiB / 4 MiB / 64 MiB, capped at 4 MiB under `quick`).
  std::vector<std::int64_t> working_sets;
};

/// Run the microbenchmarks. Wall-clock ~seconds (full) / well under a
/// second (quick). The result has synthetic == false.
calibration_profile calibrate(const calibrate_options& opt = {});

// --- micg.calib.v1 (de)serialization --------------------------------------

api::json to_json(const calibration_profile& p);
/// Inverse of to_json. Validates the schema tag, that every rate is
/// finite and positive, and that gather is non-empty and sorted by
/// working set; throws micg::check_error otherwise. Unknown keys are
/// ignored, so profiles that carry fields since dropped still read.
calibration_profile profile_from_json(const api::json& v);

/// Read + parse a profile file; throws check_error on I/O or schema
/// errors.
calibration_profile load_profile(const std::string& path);
/// Serialize `p` to `path` (compact JSON + trailing newline).
void save_profile(const std::string& path, const calibration_profile& p);

// --- model projection ------------------------------------------------------

/// Project the measured quantities onto the performance model's abstract
/// units (1.0 == one ALU op == alu_ns wall nanoseconds): mem_latency,
/// chip bandwidth, scheduling overheads. Topology is taken from the
/// calibration run (cores = threads, smt = 1 — the benches do not probe
/// SMT); unmeasured parameters keep machine_config defaults.
model::machine_config to_machine_config(const calibration_profile& p);

}  // namespace micg::tune
