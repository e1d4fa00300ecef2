#include "micg/tune/calib.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "micg/rt/exec.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/rng.hpp"
#include "micg/support/simd.hpp"
#include "micg/support/timer.hpp"

namespace micg::tune {

namespace {

/// Compiler sink: forces every benchmark's accumulator to be observed so
/// the measured loop cannot be dead-code-eliminated.
volatile double g_sink_d = 0.0;
volatile std::uint64_t g_sink_u = 0;

/// Minimum of `repeats` timed runs of `body()` (seconds). Min — not mean —
/// because scheduling noise only ever adds time (the ablate_memlat
/// convention).
template <class Body>
double min_seconds(int repeats, const Body& body) {
  double best = 1e300;
  for (int r = 0; r < std::max(repeats, 1); ++r) {
    stopwatch sw;
    body();
    best = std::min(best, sw.seconds());
  }
  return best;
}

/// Dependent shift-add chain: the model's abstract "one ALU op". The
/// carried dependence (acc feeds the next iteration through a shift)
/// stops the compiler from reassociating the loop into a closed form.
double bench_alu_ns(std::int64_t iters, int repeats) {
  const double secs = min_seconds(repeats, [&] {
    std::uint64_t acc = 0x9e3779b97f4a7c15ULL;
    for (std::int64_t i = 0; i < iters; ++i) {
      acc = (acc >> 1) + static_cast<std::uint64_t>(i);
    }
    g_sink_u = acc;
  });
  return secs * 1e9 / static_cast<double>(iters);
}

/// Sequential triad a[i] = b[i] + s*c[i]; 24 bytes of traffic per
/// element. Split across `threads` with the static schedule (pure
/// streaming, no claim overhead to speak of).
double bench_stream_gbps(std::int64_t elems, int threads, int repeats) {
  std::vector<double> a(static_cast<std::size_t>(elems), 0.0);
  std::vector<double> b(static_cast<std::size_t>(elems), 1.0);
  std::vector<double> c(static_cast<std::size_t>(elems), 2.0);
  rt::exec e;
  e.kind = rt::backend::omp_static;
  e.threads = threads;
  e.chunk = std::max<std::int64_t>(elems / (threads * 8), 1);
  const double secs = min_seconds(repeats, [&] {
    rt::for_range(e, elems, [&](std::int64_t lo, std::int64_t hi, int) {
      for (std::int64_t i = lo; i < hi; ++i) {
        a[static_cast<std::size_t>(i)] =
            b[static_cast<std::size_t>(i)] +
            1.5 * c[static_cast<std::size_t>(i)];
      }
    });
  });
  g_sink_d = a[0];
  return static_cast<double>(elems) * 24.0 / secs / 1e9;
}

/// One gather_point: scalar and SIMD throughput over the same random
/// index stream into a `ws_bytes` table. Single-threaded: the flavor
/// ratios are per-core properties.
gather_point bench_gather(std::int64_t ws_bytes, std::int64_t num_idx,
                          int repeats) {
  const auto table = std::max<std::int64_t>(ws_bytes / 8, 64);
  std::vector<double> x(static_cast<std::size_t>(table), 1.0);
  std::vector<std::int32_t> idx(static_cast<std::size_t>(num_idx));
  xoshiro256ss rng(0x5EEDBEEF);
  for (auto& v : idx) {
    v = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(table)));
  }
  const auto n = idx.size();
  const double payload = static_cast<double>(num_idx) * 8.0 / 1e9;

  gather_point pt;
  pt.working_set_bytes = table * 8;
  pt.plain_gbps = payload / min_seconds(repeats, [&] {
    g_sink_d = simd::gather_sum(x.data(), idx.data(), n, /*vectorize=*/false);
  });
  pt.simd_gbps = payload / min_seconds(repeats, [&] {
    g_sink_d = simd::gather_sum(x.data(), idx.data(), n, /*vectorize=*/true);
  });
  return pt;
}

/// Pointer chase around a Sattolo cycle: every load depends on the
/// previous one, so the time per hop is the full miss latency with zero
/// overlap.
double bench_gather_latency_ns(std::int64_t ws_bytes, std::int64_t hops,
                               int repeats) {
  const auto slots = std::max<std::int64_t>(ws_bytes / 8, 64);
  std::vector<std::int64_t> next(static_cast<std::size_t>(slots));
  std::vector<std::int64_t> order(static_cast<std::size_t>(slots));
  for (std::int64_t i = 0; i < slots; ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  xoshiro256ss rng(0xC0FFEE);
  // Sattolo's algorithm: a single cycle visiting every slot.
  for (std::int64_t i = slots - 1; i > 0; --i) {
    const auto j =
        static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(i)));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  for (std::int64_t i = 0; i < slots; ++i) {
    next[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
        order[static_cast<std::size_t>((i + 1) % slots)];
  }
  const double secs = min_seconds(repeats, [&] {
    std::int64_t p = 0;
    for (std::int64_t i = 0; i < hops; ++i) {
      p = next[static_cast<std::size_t>(p)];
    }
    g_sink_u = static_cast<std::uint64_t>(p);
  });
  return secs * 1e9 / static_cast<double>(hops);
}

/// Per-event scheduling overhead of `kind`: time a trivial n-item loop at
/// one item per dispatch unit, subtract the same loop as a single chunk,
/// divide by the number of events.
double bench_sched_ns(rt::backend kind, int threads, std::int64_t n,
                      int repeats) {
  std::vector<std::int64_t> sink(256, 0);
  rt::exec fine;
  fine.kind = kind;
  fine.threads = threads;
  fine.chunk = 1;
  rt::exec coarse = fine;
  coarse.chunk = n;
  const auto body = [&](std::int64_t lo, std::int64_t hi, int worker) {
    sink[static_cast<std::size_t>(worker % 256)] += hi - lo;
  };
  const double t_fine =
      min_seconds(repeats, [&] { rt::for_range(fine, n, body); });
  const double t_coarse =
      min_seconds(repeats, [&] { rt::for_range(coarse, n, body); });
  g_sink_u = static_cast<std::uint64_t>(sink[0]);
  return std::max(0.0, (t_fine - t_coarse) * 1e9 / static_cast<double>(n));
}

}  // namespace

const gather_point* calibration_profile::gather_near(
    std::int64_t bytes) const {
  const gather_point* best = nullptr;
  double best_d = 1e300;
  const double lb = std::log(static_cast<double>(std::max<std::int64_t>(
      bytes, 1)));
  for (const auto& pt : gather) {
    const double d = std::abs(
        std::log(static_cast<double>(std::max<std::int64_t>(
            pt.working_set_bytes, 1))) -
        lb);
    if (best == nullptr || d < best_d) {
      best = &pt;
      best_d = d;
    }
  }
  return best;
}

calibration_profile calibrate(const calibrate_options& opt) {
  MICG_CHECK(opt.threads >= 1 && opt.threads <= 4096,
             "calibrate threads must be in [1, 4096]");
  MICG_CHECK(opt.repeats >= 1, "calibrate repeats must be >= 1");
  const std::int64_t scale = opt.quick ? 8 : 1;

  calibration_profile p;
  p.host = "measured";
  p.isa = simd::isa_name();
  p.threads = opt.threads;
  p.synthetic = false;

  p.alu_ns = bench_alu_ns((1 << 24) / scale, opt.repeats);
  p.stream_gbps =
      bench_stream_gbps((std::int64_t{1} << 22) / scale, opt.threads,
                        opt.repeats);

  std::vector<std::int64_t> sets = opt.working_sets;
  if (sets.empty()) {
    sets = {std::int64_t{1} << 18, std::int64_t{1} << 22,
            std::int64_t{1} << 26};
    if (opt.quick) sets.pop_back();  // skip the 64 MiB table when quick
  }
  std::sort(sets.begin(), sets.end());
  for (const auto ws : sets) {
    MICG_CHECK(ws >= 512, "gather working set must be >= 512 bytes");
    p.gather.push_back(bench_gather(ws, (1 << 21) / scale, opt.repeats));
  }
  p.gather_latency_ns =
      bench_gather_latency_ns(sets.back(), (1 << 20) / scale, opt.repeats);

  const std::int64_t sched_n = (1 << 16) / scale;
  p.chunk_claim_ns =
      bench_sched_ns(rt::backend::omp_dynamic, opt.threads, sched_n,
                     opt.repeats);
  p.spawn_ns = bench_sched_ns(rt::backend::tbb_simple, opt.threads, sched_n,
                              opt.repeats);
  return p;
}

// ---------------------------------------------------------------------------
// micg.calib.v1

api::json to_json(const calibration_profile& p) {
  api::json_array pts;
  pts.reserve(p.gather.size());
  for (const auto& g : p.gather) {
    pts.emplace_back(api::json_object{
        {"working_set_bytes", api::json(g.working_set_bytes)},
        {"plain_gbps", api::json(g.plain_gbps)},
        {"simd_gbps", api::json(g.simd_gbps)}});
  }
  return api::json(api::json_object{
      {"schema", api::json(calib_schema)},
      {"host", api::json(p.host)},
      {"isa", api::json(p.isa)},
      {"threads", api::json(p.threads)},
      {"synthetic", api::json(p.synthetic)},
      {"alu_ns", api::json(p.alu_ns)},
      {"stream_gbps", api::json(p.stream_gbps)},
      {"gather_latency_ns", api::json(p.gather_latency_ns)},
      {"chunk_claim_ns", api::json(p.chunk_claim_ns)},
      {"spawn_ns", api::json(p.spawn_ns)},
      {"gather", api::json(std::move(pts))}});
}

namespace {

double positive_rate(const api::json& v, std::string_view key) {
  const double x = v.at(key).as_double();
  MICG_CHECK(std::isfinite(x) && x > 0.0,
             std::string("calibration field must be a positive finite "
                         "number: ") +
                 std::string(key));
  return x;
}

}  // namespace

calibration_profile profile_from_json(const api::json& v) {
  MICG_CHECK(v.is_object(), "calibration profile must be a JSON object");
  MICG_CHECK(v.at("schema").as_string() == calib_schema,
             std::string("calibration profile schema must be ") +
                 calib_schema);
  calibration_profile p;
  p.host = v.at("host").as_string();
  p.isa = v.at("isa").as_string();
  p.threads = static_cast<int>(v.at("threads").as_int());
  MICG_CHECK(p.threads >= 1, "calibration threads must be >= 1");
  p.synthetic = v.at("synthetic").as_bool();
  p.alu_ns = positive_rate(v, "alu_ns");
  p.stream_gbps = positive_rate(v, "stream_gbps");
  p.gather_latency_ns = positive_rate(v, "gather_latency_ns");
  // Scheduling overheads may legitimately measure ~0 (the subtraction
  // clamps at zero); require finite and non-negative only.
  p.chunk_claim_ns = v.at("chunk_claim_ns").as_double();
  p.spawn_ns = v.at("spawn_ns").as_double();
  MICG_CHECK(std::isfinite(p.chunk_claim_ns) && p.chunk_claim_ns >= 0.0,
             "chunk_claim_ns must be finite and >= 0");
  MICG_CHECK(std::isfinite(p.spawn_ns) && p.spawn_ns >= 0.0,
             "spawn_ns must be finite and >= 0");
  const auto& pts = v.at("gather").as_array();
  MICG_CHECK(!pts.empty(), "calibration profile needs >= 1 gather point");
  std::int64_t prev_ws = 0;
  for (const auto& e : pts) {
    gather_point g;
    g.working_set_bytes = e.at("working_set_bytes").as_int();
    MICG_CHECK(g.working_set_bytes > prev_ws,
               "gather points must be sorted by working_set_bytes, "
               "strictly increasing");
    prev_ws = g.working_set_bytes;
    g.plain_gbps = positive_rate(e, "plain_gbps");
    g.simd_gbps = positive_rate(e, "simd_gbps");
    p.gather.push_back(g);
  }
  return p;
}

calibration_profile load_profile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MICG_CHECK(in.good(), "cannot open calibration profile: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return profile_from_json(api::json::parse(ss.str()));
}

void save_profile(const std::string& path, const calibration_profile& p) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MICG_CHECK(out.good(), "cannot write calibration profile: " + path);
  out << to_json(p).dump() << "\n";
  MICG_CHECK(out.good(), "short write to calibration profile: " + path);
}

// ---------------------------------------------------------------------------
// model projection

model::machine_config to_machine_config(const calibration_profile& p) {
  MICG_CHECK(p.alu_ns > 0.0, "profile alu_ns must be positive");
  const gather_point* far =
      p.gather_near(std::numeric_limits<std::int64_t>::max());
  MICG_CHECK(far != nullptr, "profile needs >= 1 gather point");

  model::machine_config m;
  m.name = "calibrated:" + p.host;
  m.cores = p.threads;  // topology = what the benches actually exercised
  m.smt = 1;
  m.cpu_per_op = 1.0;
  m.mem_latency = p.gather_latency_ns / p.alu_ns;
  // Little's law on the largest working set: misses in flight = line
  // bandwidth x latency. The gather bench counts 8-byte payloads but
  // each miss drags a 64-byte line.
  const double lines_per_ns = far->plain_gbps / 64.0;
  m.mlp = std::clamp(
      static_cast<int>(std::lround(lines_per_ns * p.gather_latency_ns)), 1,
      16);
  // Stream bandwidth in 8-byte memory ops per abstract time unit.
  m.chip_mem_ops_per_unit = p.stream_gbps / 8.0 * p.alu_ns;
  m.chunk_claim = p.chunk_claim_ns / p.alu_ns;
  m.task_spawn = p.spawn_ns / p.alu_ns;
  return m;
}

}  // namespace micg::tune
