// perfbench — the repository benchmark binary.
//
//   perfbench --workload fem-deep|rmat-wide --seed N --seconds S --trace 0|1
//
// One run: set up three times (graph generation + narrowest layout +
// server start + landmark warm-up; the median is setup_s), then a kernel
// phase and the serve phases, every answer checked against a sequential
// oracle computed outside the timed regions. The last stdout line is
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
// untraced, per-layer metrics with --trace 1 (which also writes spans and
// a self-time table under --out-dir). Exits 1 on any oracle mismatch and
// 2 on bad arguments or a pinned environment variable.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "micg/api/json.hpp"
#include "micg/graph/components.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/suite.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

void report::mismatch(const std::string& what) {
  ops.add(false);
  if (mismatches.size() < 20) mismatches.push_back(what);
}

namespace {

using micg::api::json;
using micg::api::json_object;
using micg::graph::any_csr;

/// Environment variables that change what the library runs; a result
/// measured under any of them would not be comparable.
constexpr const char* kPinnedEnv[] = {
    "MICG_MAX_THREADS", "MICG_TUNE",         "MICG_CALIB",
    "MICG_MEMOPT",      "MICG_METRICS_JSON", "MICG_GRAPH_DIR"};

/// Sources whose BFS depth matches the |V|/2 convention: the stencil
/// graphs number vertices z-major, so ids near |V|/2 lie in the middle
/// slab and give ~the same level count.
std::vector<std::int64_t> mesh_sources(const any_csr& g, int k, rng& r) {
  const std::int64_t n = g.num_vertices();
  const std::int64_t half_window = std::max<std::int64_t>(1, n / 512);
  std::vector<std::int64_t> out;
  for (int i = 0; i < k; ++i) {
    out.push_back(n / 2 - half_window + r.below(2 * half_window));
  }
  return out;
}

/// Sources drawn from the largest connected component.
std::vector<std::int64_t> component_sources(const any_csr& g, int k, rng& r) {
  micg::rt::exec seq;
  seq.threads = 1;
  std::vector<std::int64_t> members;
  g.visit([&](const auto& cg) {
    const auto cc = micg::graph::parallel_components(cg, seq);
    std::map<std::int64_t, std::int64_t> size;
    std::int64_t best = 0;
    std::int64_t best_label = 0;
    for (const auto l : cc.label) {
      const std::int64_t c = ++size[static_cast<std::int64_t>(l)];
      if (c > best) {
        best = c;
        best_label = static_cast<std::int64_t>(l);
      }
    }
    for (std::size_t v = 0; v < cc.label.size(); ++v) {
      if (static_cast<std::int64_t>(cc.label[v]) == best_label) {
        members.push_back(static_cast<std::int64_t>(v));
      }
    }
  });
  std::vector<std::int64_t> out;
  for (int i = 0; i < k; ++i) {
    out.push_back(members[static_cast<std::size_t>(
        r.below(static_cast<std::int64_t>(members.size())))]);
  }
  return out;
}

any_csr pwtk(double scale) {
  return micg::graph::make_suite_graph_any(
      micg::graph::suite_entry_by_name("pwtk"), scale);
}

any_csr rmat(int scale, int edge_factor, std::uint64_t seed) {
  return micg::graph::to_narrowest(
      micg::graph::make_rmat(scale, edge_factor, 0.57, 0.19, 0.19, seed));
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

/// Per-instance cache size of `level` as sysfs reports it ("2048K").
std::string cache_size(int level) {
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/";
  for (int i = 0; i < 8; ++i) {
    const std::string dir = base + "index" + std::to_string(i) + "/";
    if (read_first_line(dir + "level") == std::to_string(level) &&
        read_first_line(dir + "type") != "Instruction") {
      return read_first_line(dir + "size");
    }
  }
  return "unknown";
}

json stamp(const options& opt, const std::string& commit,
           const std::string& digest) {
  return json(json_object{
      {"workload", json(opt.workload)},
      {"seed", json(static_cast<std::int64_t>(opt.seed))},
      {"seconds", json(opt.seconds)},
      {"trace", json(opt.trace)},
      {"threads", json(opt.threads)},
      {"nproc", json(static_cast<std::int64_t>(
                    std::thread::hardware_concurrency()))},
      {"cpu", json(cpu_model())},
      {"l2_per_core", json(cache_size(2))},
      {"l3", json(cache_size(3))},
      {"build_type", json(PERFBENCH_BUILD_TYPE)},
      {"flags", json(PERFBENCH_CXX_FLAGS)},
      {"compiler", json(PERFBENCH_COMPILER)},
      {"commit", json(commit)},
      {"source_digest", json(digest)}});
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fem-deep|rmat-wide --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--commit ID] "
               "[--source-digest HEX] [--tiny] [--corrupt-oracle]\n";
  return 2;
}

void write_trace(const options& opt, const json& st, const report& rep) {
  const std::filesystem::path dir =
      std::filesystem::path(opt.out_dir) /
      ("trace-" + opt.workload + "-" + std::to_string(opt.seed));
  std::filesystem::create_directories(dir);
  const auto spans = trace::tracer::active()->spans();
  std::ofstream(dir / "stamp.json") << st.dump() << '\n';
  std::ofstream spans_out(dir / "spans.jsonl");
  trace::write_spans_jsonl(spans_out, spans);
  std::ofstream self_out(dir / "selftime.txt");
  trace::write_self_time(self_out, trace::self_time_table(spans));
  std::ofstream metrics_out(dir / "metrics.txt");
  for (const auto& m : rep.metrics) {
    metrics_out << m.name << ' ' << m.value << ' ' << m.unit << '\n';
  }
  std::printf("trace written to %s (spans.jsonl, selftime.txt)\n",
              dir.string().c_str());
}

int run(int argc, char** argv) {
  options opt;
  std::string commit = "unknown";
  std::string digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--out-dir") {
      opt.out_dir = value();
    } else if (a == "--commit") {
      commit = value();
    } else if (a == "--source-digest") {
      digest = value();
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt-oracle") {
      opt.corrupt_oracle = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  for (const char* var : kPinnedEnv) {
    if (std::getenv(var) != nullptr) {
      return usage((std::string(var) +
                    " is set; unset it so results stay comparable")
                       .c_str());
    }
  }
  const workload* w = find_workload(opt.workload, opt.tiny);
  if (w == nullptr) return usage("unknown workload");
  if (opt.seconds <= 0) return usage("--seconds must be positive");
  opt.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::filesystem::create_directories(opt.out_dir);
  const json st = stamp(opt, commit, digest);
  std::printf("perfbench.stamp %s\n", st.dump().c_str());

  trace::tracer tracer;
  if (opt.trace) trace::tracer::install(&tracer);
  report rep;
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::unique_ptr<setup> s;
  for (int attempt = 0; attempt < 3; ++attempt) {
    s.reset();  // tear the previous one down first: one live set-up
    s = make_setup(*w, opt, attempt);
    setup_s.push_back(s->total_s);
    build_s.push_back(s->graph_build_s);
  }
  std::printf("setup: %s s (graph build %s s)\n",
              summarize(setup_s).describe().c_str(),
              summarize(build_s).describe().c_str());
  kernel_phase(*w, opt, *s, 0.35 * opt.seconds, rep);
  serve_phase(*w, opt, *s, 0.65 * opt.seconds, rep);
  if (opt.trace) layer_probes(opt, *s, rep);
  const double csr_mb = static_cast<double>(s->kernel_g.index_bytes()) / 1e6;
  s.reset();

  if (opt.trace) {
    rep.set("graph.build_s", median(build_s), "s");
    rep.set("graph.csr_mb", csr_mb, "MB");
    write_trace(opt, st, rep);
    trace::tracer::install(nullptr);
  } else {
    rep.set("setup_s", median(setup_s), "s");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rep.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  }
  std::printf("ops: %lld attempted, %lld failed (failed_frac %.6f)\n",
              static_cast<long long>(rep.ops.attempted),
              static_cast<long long>(rep.ops.failed), rep.ops.failed_frac());
  for (const auto& m : rep.mismatches) {
    std::fprintf(stderr, "ORACLE MISMATCH: %s\n", m.c_str());
  }
  json_object metrics;
  for (const auto& m : rep.metrics) {
    metrics.emplace_back(m.name, json(json_object{{"value", json(m.value)},
                                                  {"unit", json(m.unit)}}));
  }
  std::fflush(stdout);
  std::cout << json(json_object{{"correct", json(rep.correct())},
                                {"attempted", json(rep.ops.attempted)},
                                {"failed", json(rep.ops.failed)},
                                {"metrics", json(std::move(metrics))}})
                   .dump()
            << std::endl;
  return rep.correct() ? 0 : 1;
}

}  // namespace

const workload* find_workload(const std::string& name, bool tiny) {
  // The graphs are fixed per workload (like the pwtk stand-in, which has
  // no seed): a new RMAT instance per seed moves pagerank's iteration
  // count and the hub structure, which would put input variance into
  // every spread. --seed drives sources, targets, toggled edges and the
  // serve schedule.
  static const std::vector<workload> full = {
      {"fem-deep", [] { return pwtk(1.0); },
       [] { return pwtk(0.05); }, mesh_sources, 900.0, 1250.0},
      {"rmat-wide", [] { return rmat(19, 16, 1); },
       [] { return rmat(16, 8, 2); }, component_sources, 170.0,
       240.0},
  };
  static const std::vector<workload> small = {
      {"fem-deep", [] { return pwtk(0.01); },
       [] { return pwtk(0.005); }, mesh_sources, 1000.0, 2000.0},
      {"rmat-wide", [] { return rmat(12, 16, 1); },
       [] { return rmat(10, 8, 2); }, component_sources, 1000.0,
       2000.0},
  };
  for (const auto& w : tiny ? small : full) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
