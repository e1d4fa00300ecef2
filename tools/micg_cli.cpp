// micg — command-line front end for the micgraph library.
//
//   micg gen <family> [options] -o FILE     generate a graph
//   micg convert IN OUT                     convert between .mtx and .micg
//   micg info FILE                          structural statistics
//   micg color FILE [--threads N] [--backend NAME] [--chunk C] [--d2 yes]
//   micg bfs FILE [--source V] [--variant NAME] [--threads N] [--block B]
//   micg msbfs FILE [--sources K] [--lanes L] [--threads N]
//   micg bc FILE [--samples K] [--threads N] [--top M] [--mode M] [--lanes L]
//   micg pagerank FILE [--damping D] [--tolerance T] [--iterations N]
//   micg sssp FILE [--source V] [--delta D] [--weights SEED] [--threads N]
//   micg cc FILE [--threads N]
//   micg serve --listen ADDR --graph NAME=PATH [...]
//   micg query --connect ADDR OP [--graph NAME] [--params JSON]
//
// Every kernel subcommand parses its flags into the same micg::api request
// struct the server deserializes from the wire, and runs it through the
// same api::run() overload — one code path whether a query arrives via
// argv or via a socket (docs/serving.md). The CLI owns only formatting.
//
// color/bfs/msbfs/bc/pagerank accept --metrics-json PATH (or
// MICG_METRICS_JSON in the environment) to write a micg.metrics.v1 record
// of the run; serve accepts the same flag and writes the serving-side
// record (per-request spans) at shutdown.
//
// Families for gen: chain N | cycle N | star N | complete N | tree K L |
// grid2d NX NY | er N AVGDEG SEED | rmat SCALE EDGEFACTOR SEED |
// suite NAME SCALE. File format chosen by extension: .mtx (MatrixMarket)
// or .micg (binary CSR).
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "micg/api/api.hpp"
#include "micg/api/json.hpp"
#include "micg/api/parse.hpp"
#include "micg/graph/any_csr.hpp"
#include "micg/graph/generators.hpp"
#include "micg/graph/io_binary.hpp"
#include "micg/graph/suite.hpp"
#include "micg/graph/weighted.hpp"
#include "micg/obs/emit.hpp"
#include "micg/obs/obs.hpp"
#include "micg/serve/client.hpp"
#include "micg/serve/server.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/table.hpp"
#include "micg/support/timer.hpp"
#include "micg/tune/calib.hpp"

namespace {

using micg::api::arg_parser;
using micg::graph::any_csr;
using micg::graph::csr_graph;

[[noreturn]] void usage(const std::string& msg = "") {
  if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage:\n"
      "  micg gen <family> [params] -o FILE [--weights SEED [--max-weight W]]\n"
      "      families: chain N | cycle N | star N | complete N | tree K L\n"
      "                | grid2d NX NY | er N AVGDEG SEED\n"
      "                | rmat SCALE EDGEFACTOR SEED | suite NAME SCALE\n"
      "  micg convert IN OUT\n"
      "  micg info FILE\n"
      "  micg color FILE [--threads N] [--backend NAME] [--chunk C]\n"
      "          [--d2 yes]\n"
      "  micg bfs FILE [--source V] [--variant NAME] [--threads N] [--block B]\n"
      "          (variant: Direction-optimizing, the default, or a Fig 4 name\n"
      "          such as OpenMP-Block-relaxed)\n"
      "  micg msbfs FILE [--sources K] [--lanes L] [--threads N]\n"
      "  micg bc FILE [--samples K] [--threads N] [--top M]\n"
      "          [--mode batched|repeated] [--lanes L]\n"
      "  micg pagerank FILE [--damping D] [--tolerance T] [--iterations N]\n"
      "          [--top M] [--threads N]\n"
      "  micg sssp FILE [--source V] [--delta D] [--weights SEED]\n"
      "          [--max-weight W] [--threads N]\n"
      "  micg cc FILE [--threads N] [--backend NAME] [--chunk C]\n"
      "  micg calibrate [-o FILE] [--threads N] [--runs R] [--quick yes]\n"
      "          (measures this host's bandwidth, latency and scheduling\n"
      "          costs; -o writes a micg.calib.v1 profile)\n"
      "  micg serve --listen ADDR --graph NAME=PATH [--graph NAME=PATH ...]\n"
      "          [--max-inflight N] [--max-waiting N] [--threads-per-query N]\n"
      "          [--deadline-ms D] [--compact-every N] [--max-frame-bytes B]\n"
      "          [--coalesce-window-ms W] [--coalesce-lanes L] [--landmarks K]\n"
      "  micg query --connect ADDR OP [--graph NAME] [--params JSON]\n"
      "          [--deadline-ms D] [--id TAG]\n"
      "  micg query --connect ADDR --script FILE|-\n"
      "sssp: edge weights are derived from --weights SEED (default 1) in\n"
      "  [1, --max-weight]; --delta 0 (default) picks the bucket width from\n"
      "  the graph's stats — any delta yields identical distances\n"
      "color/bfs/msbfs/bc/pagerank/sssp/cc/serve: --metrics-json PATH (or\n"
      "  MICG_METRICS_JSON) writes a micg.metrics.v1 record of the run\n"
      "ADDR: unix:PATH | PATH | HOST:PORT | :PORT (see docs/serving.md)\n"
      "file formats by extension: .mtx (MatrixMarket), .micg (binary)\n";
  std::exit(2);
}

/// Resolve the metrics output path: --metrics-json beats MICG_METRICS_JSON;
/// empty means metrics are off.
std::string metrics_path(const arg_parser& args) {
  const char* env = std::getenv("MICG_METRICS_JSON");
  return args.flag("metrics-json", env != nullptr ? env : "");
}

/// Run `body` with a recorder installed if `path` is non-empty, stamp
/// `meta`, and write a single-record micg.metrics.v1 file.
void run_with_metrics(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const std::function<void()>& body) {
  if (path.empty()) {
    body();
    return;
  }
  micg::obs::recorder rec;
  {
    micg::obs::scoped_global guard(rec);
    body();
  }
  for (const auto& [k, v] : meta) rec.set_meta(k, v);
  micg::obs::write_json_file(path, {rec.take()});
  std::cout << "wrote metrics to " << path << "\n";
}

std::vector<std::pair<std::string, std::string>> kernel_meta(
    const std::string& tool, const std::string& graph_path,
    const any_csr& g) {
  return {{"tool", tool},
          {"graph", graph_path},
          {"layout", std::string(micg::graph::layout_name(g.layout()))}};
}

int cmd_gen(const arg_parser& args) {
  if (args.positional.empty()) usage("gen needs a family");
  const auto& fam = args.positional[0];
  auto pos_int = [&](std::size_t i) -> long {
    if (i >= args.positional.size()) usage("missing parameter for " + fam);
    return static_cast<long>(micg::api::parse_int(args.positional[i]));
  };
  auto pos_double = [&](std::size_t i) -> double {
    if (i >= args.positional.size()) usage("missing parameter for " + fam);
    return micg::api::parse_double(args.positional[i]);
  };
  csr_graph g;
  if (fam == "chain") {
    g = micg::graph::make_chain(static_cast<int>(pos_int(1)));
  } else if (fam == "cycle") {
    g = micg::graph::make_cycle(static_cast<int>(pos_int(1)));
  } else if (fam == "star") {
    g = micg::graph::make_star(static_cast<int>(pos_int(1)));
  } else if (fam == "complete") {
    g = micg::graph::make_complete(static_cast<int>(pos_int(1)));
  } else if (fam == "tree") {
    g = micg::graph::make_kary_tree(static_cast<int>(pos_int(1)),
                                    static_cast<int>(pos_int(2)));
  } else if (fam == "grid2d") {
    g = micg::graph::make_grid_2d(static_cast<int>(pos_int(1)),
                                  static_cast<int>(pos_int(2)));
  } else if (fam == "er") {
    if (args.positional.size() < 4) usage("er needs N AVGDEG SEED");
    g = micg::graph::make_erdos_renyi(
        static_cast<int>(pos_int(1)), pos_double(2),
        static_cast<std::uint64_t>(pos_int(3)));
  } else if (fam == "rmat") {
    g = micg::graph::make_rmat(static_cast<int>(pos_int(1)),
                               static_cast<int>(pos_int(2)), 0.57, 0.19,
                               0.19, static_cast<std::uint64_t>(pos_int(3)));
  } else if (fam == "suite") {
    if (args.positional.size() < 3) usage("suite needs NAME SCALE");
    g = micg::graph::make_suite_graph(
        micg::graph::suite_entry_by_name(args.positional[1]), pos_double(2));
  } else {
    usage("unknown family: " + fam);
  }
  const auto out = args.flag("out", "");
  if (out.empty()) usage("gen needs -o FILE");
  const any_csr ag = micg::graph::to_narrowest(std::move(g));
  const auto wflag = args.flag("weights", "");
  if (!wflag.empty()) {
    // Weighted binary (format v3): topology plus the derived weight
    // stream for this seed, re-validated on load.
    if (out.size() < 5 || out.substr(out.size() - 5) != ".micg") {
      usage("--weights needs a .micg output (only the binary format v3 "
            "carries weights)");
    }
    micg::graph::weight_params wp;
    wp.seed = static_cast<std::uint64_t>(micg::api::parse_int(wflag));
    wp.max_weight = static_cast<micg::graph::weight_t>(
        args.flag_int("max-weight", wp.max_weight));
    const auto w = micg::graph::generate_weights(ag, wp);
    micg::graph::save_binary_weighted(out, ag, w);
    std::cout << "wrote " << out << " ["
              << micg::graph::layout_name(ag.layout())
              << " weighted seed=" << wp.seed
              << "]  |V|=" << ag.num_vertices() << " |E|=" << ag.num_edges()
              << "\n";
    return 0;
  }
  micg::api::save_graph(out, ag);
  std::cout << "wrote " << out << " [" << micg::graph::layout_name(ag.layout())
            << "]  |V|=" << ag.num_vertices() << " |E|=" << ag.num_edges()
            << "\n";
  return 0;
}

int cmd_convert(const arg_parser& args) {
  if (args.positional.size() != 2) usage("convert needs IN OUT");
  const auto g = micg::api::load_graph(args.positional[0]);
  micg::api::save_graph(args.positional[1], g);
  std::cout << "converted " << args.positional[0] << " -> "
            << args.positional[1] << "\n";
  return 0;
}

int cmd_info(const arg_parser& args) {
  if (args.positional.empty()) usage("info needs FILE");
  const auto ag = micg::api::load_graph(args.positional[0]);
  const auto r = micg::api::run(
      ag, micg::api::from_args<micg::api::info_request>(args));
  micg::table_printer t("graph info: " + args.positional[0]);
  t.header({"property", "value"});
  t.row({"layout", r.layout});
  t.row({"|V|", micg::table_printer::fmt(
                    static_cast<long long>(r.num_vertices))});
  t.row({"|E|", micg::table_printer::fmt(
                    static_cast<long long>(r.num_edges))});
  t.row({"min degree", micg::table_printer::fmt(
                           static_cast<long long>(r.min_degree))});
  t.row({"max degree (Delta)",
         micg::table_printer::fmt(static_cast<long long>(r.max_degree))});
  t.row({"avg degree", micg::table_printer::fmt(r.avg_degree)});
  t.row({"components", micg::table_printer::fmt(
                           static_cast<long long>(r.components))});
  t.row({"degeneracy", micg::table_printer::fmt(
                           static_cast<long long>(r.degeneracy))});
  t.row({"BFS levels from |V|/2",
         micg::table_printer::fmt(
             static_cast<long long>(r.bfs_levels_from_mid))});
  t.print(std::cout);
  return 0;
}

int cmd_color(const arg_parser& args) {
  if (args.positional.empty()) usage("color needs FILE");
  const auto ag = micg::api::load_graph(args.positional[0]);
  const auto req = micg::api::from_args<micg::api::color_request>(args);
  micg::stopwatch sw;
  run_with_metrics(
      metrics_path(args), kernel_meta("micg color", args.positional[0], ag),
      [&] {
        const auto r = micg::api::run(ag, req);
        std::cout << (r.distance2 ? "distance-2 colors: " : "colors: ")
                  << r.num_colors << " in " << r.rounds << " rounds, "
                  << micg::table_printer::fmt(sw.millis())
                  << " ms, valid=" << (r.valid ? 1 : 0) << "\n";
      });
  return 0;
}

int cmd_bfs(const arg_parser& args) {
  if (args.positional.empty()) usage("bfs needs FILE");
  const auto ag = micg::api::load_graph(args.positional[0]);
  const auto req = micg::api::from_args<micg::api::bfs_request>(args);
  micg::stopwatch sw;
  run_with_metrics(
      metrics_path(args), kernel_meta("micg bfs", args.positional[0], ag),
      [&] {
        const auto r = micg::api::run(ag, req);
        std::cout << r.variant << ": " << r.num_levels << " levels, reached "
                  << r.reached << "/" << r.num_vertices << " in "
                  << micg::table_printer::fmt(sw.millis()) << " ms\n";
      });
  return 0;
}

int cmd_msbfs(const arg_parser& args) {
  if (args.positional.empty()) usage("msbfs needs FILE");
  const auto ag = micg::api::load_graph(args.positional[0]);
  const auto req = micg::api::from_args<micg::api::msbfs_request>(args);
  micg::stopwatch sw;
  run_with_metrics(
      metrics_path(args), kernel_meta("micg msbfs", args.positional[0], ag),
      [&] {
        const auto r = micg::api::run(ag, req);
        const auto k = std::max<std::int64_t>(r.sources, 1);
        std::cout << "msbfs: " << r.sources << " sources in " << r.batches
                  << " batches of <=" << r.lanes << " lanes, avg "
                  << micg::table_printer::fmt(
                         static_cast<double>(r.levels_total) /
                         static_cast<double>(k))
                  << " levels, avg reached "
                  << micg::table_printer::fmt(
                         static_cast<double>(r.reached_total) /
                         static_cast<double>(k))
                  << "/" << r.num_vertices << " in "
                  << micg::table_printer::fmt(sw.millis()) << " ms\n";
      });
  return 0;
}

int cmd_bc(const arg_parser& args) {
  if (args.positional.empty()) usage("bc needs FILE");
  const auto ag = micg::api::load_graph(args.positional[0]);
  const auto req = micg::api::from_args<micg::api::bc_request>(args);
  micg::stopwatch sw;
  micg::api::bc_response r;
  run_with_metrics(
      metrics_path(args), kernel_meta("micg bc", args.positional[0], ag),
      [&] { r = micg::api::run(ag, req); });
  std::cout << "betweenness centrality ("
            << micg::table_printer::fmt(sw.millis()) << " ms):\n";
  for (std::size_t i = 0; i < r.top.size(); ++i) {
    std::cout << "  #" << i + 1 << "  vertex " << r.top[i].vertex << "  bc="
              << micg::table_printer::fmt(r.top[i].score) << "\n";
  }
  return 0;
}

int cmd_pagerank(const arg_parser& args) {
  if (args.positional.empty()) usage("pagerank needs FILE");
  const auto ag = micg::api::load_graph(args.positional[0]);
  const auto req = micg::api::from_args<micg::api::pagerank_request>(args);
  micg::stopwatch sw;
  micg::api::pagerank_response r;
  run_with_metrics(
      metrics_path(args),
      kernel_meta("micg pagerank", args.positional[0], ag),
      [&] { r = micg::api::run(ag, req); });
  std::cout << "pagerank: " << r.iterations << " iterations, converged="
            << (r.converged ? 1 : 0) << ", delta="
            << micg::table_printer::fmt(r.final_delta) << " in "
            << micg::table_printer::fmt(sw.millis()) << " ms\n";
  for (std::size_t i = 0; i < r.top.size(); ++i) {
    std::cout << "  #" << i + 1 << "  vertex " << r.top[i].vertex << "  pr="
              << micg::table_printer::fmt(r.top[i].score) << "\n";
  }
  return 0;
}

int cmd_sssp(const arg_parser& args) {
  if (args.positional.empty()) usage("sssp needs FILE");
  const auto ag = micg::api::load_graph(args.positional[0]);
  const auto req = micg::api::from_args<micg::api::sssp_request>(args);
  micg::stopwatch sw;
  run_with_metrics(
      metrics_path(args), kernel_meta("micg sssp", args.positional[0], ag),
      [&] {
        const auto r = micg::api::run(ag, req);
        std::cout << "sssp: reached " << r.reached << "/" << r.num_vertices
                  << " from " << r.source << ", " << r.relaxations
                  << " relaxations in " << r.buckets
                  << " buckets (delta=" << r.delta << ") in "
                  << micg::table_printer::fmt(sw.millis()) << " ms\n";
      });
  return 0;
}

int cmd_cc(const arg_parser& args) {
  if (args.positional.empty()) usage("cc needs FILE");
  const auto ag = micg::api::load_graph(args.positional[0]);
  const auto req = micg::api::from_args<micg::api::cc_request>(args);
  micg::stopwatch sw;
  run_with_metrics(
      metrics_path(args), kernel_meta("micg cc", args.positional[0], ag),
      [&] {
        const auto r = micg::api::run(ag, req);
        std::cout << "components: " << r.num_components << " (largest "
                  << r.largest << "/" << r.num_vertices << ") in " << r.rounds
                  << " rounds, " << micg::table_printer::fmt(sw.millis())
                  << " ms\n";
      });
  return 0;
}

int cmd_calibrate(const arg_parser& args) {
  micg::tune::calibrate_options copt;
  copt.threads = static_cast<int>(args.flag_int("threads", copt.threads));
  copt.repeats = static_cast<int>(args.flag_int("runs", copt.repeats));
  copt.quick = args.flag("quick", "no") != "no";
  const auto prof = micg::tune::calibrate(copt);

  micg::table_printer t("host calibration (micg.calib.v1)");
  t.header({"parameter", "value"});
  t.row({"isa", prof.isa});
  t.row({"threads", micg::table_printer::fmt(
                        static_cast<long long>(prof.threads))});
  t.row({"alu ns/op", micg::table_printer::fmt(prof.alu_ns)});
  t.row({"stream GB/s", micg::table_printer::fmt(prof.stream_gbps)});
  t.row({"gather latency ns", micg::table_printer::fmt(
                                  prof.gather_latency_ns)});
  t.row({"chunk claim ns", micg::table_printer::fmt(prof.chunk_claim_ns)});
  t.row({"task spawn ns", micg::table_printer::fmt(prof.spawn_ns)});
  for (const auto& pt : prof.gather) {
    t.row({"gather@" + std::to_string(pt.working_set_bytes >> 10) +
               "KiB GB/s (plain/simd)",
           micg::table_printer::fmt(pt.plain_gbps) + " / " +
               micg::table_printer::fmt(pt.simd_gbps)});
  }
  t.print(std::cout);

  const auto out = args.flag("out", "");
  if (!out.empty()) {
    micg::tune::save_profile(out, prof);
    std::cout << "wrote calibration profile to " << out << "\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// serve / query

/// The running server, for the signal handlers. request_shutdown() is one
/// shutdown(2) call, so it is safe from signal context.
std::atomic<micg::serve::server*> g_server{nullptr};

extern "C" void handle_stop_signal(int) {
  micg::serve::server* srv = g_server.load();
  if (srv != nullptr) srv->request_shutdown();
}

int cmd_serve(const arg_parser& args) {
  micg::serve::server_options opt;
  opt.listen = args.flag("listen", "");
  if (opt.listen.empty()) usage("serve needs --listen ADDR");
  opt.svc.max_inflight =
      static_cast<int>(args.flag_int("max-inflight", opt.svc.max_inflight));
  opt.svc.max_waiting =
      static_cast<int>(args.flag_int("max-waiting", opt.svc.max_waiting));
  opt.svc.threads_per_query = static_cast<int>(
      args.flag_int("threads-per-query", opt.svc.threads_per_query));
  opt.svc.default_deadline_ms =
      args.flag_int("deadline-ms", opt.svc.default_deadline_ms);
  opt.svc.compact_every =
      args.flag_int("compact-every", opt.svc.compact_every);
  opt.svc.max_frame_bytes = static_cast<std::size_t>(args.flag_int(
      "max-frame-bytes",
      static_cast<std::int64_t>(opt.svc.max_frame_bytes)));
  opt.svc.coalesce_window_ms =
      args.flag_int("coalesce-window-ms", opt.svc.coalesce_window_ms);
  opt.svc.coalesce_lanes = static_cast<int>(
      args.flag_int("coalesce-lanes", opt.svc.coalesce_lanes));
  opt.svc.landmark_count =
      static_cast<int>(args.flag_int("landmarks", opt.svc.landmark_count));
  // The auto-tuner was removed. arg_parser ignores unknown flags, so
  // refuse its modes here instead of serving them untuned.
  MICG_CHECK(args.flag("tune", "fixed") == "fixed",
             "tune must be fixed: the auto-tuner was removed");

  micg::serve::graph_store store;
  for (const auto& spec : args.flag_all("graph")) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos) usage("--graph needs NAME=PATH: " + spec);
    store.add(spec.substr(0, eq), micg::api::load_graph(spec.substr(eq + 1)));
  }
  if (store.size() == 0) usage("serve needs at least one --graph NAME=PATH");

  const std::string mpath = metrics_path(args);
  micg::obs::recorder rec;
  micg::obs::recorder* recp = mpath.empty() ? nullptr : &rec;

  micg::serve::server srv(store, opt, recp);
  srv.bind_and_listen();
  g_server.store(&srv);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);  // a hung-up client must not kill the server

  // The readiness line scripts wait for before dialing.
  std::cout << "serving " << store.size() << " graph(s) on "
            << srv.where().display() << std::endl;
  srv.run();
  g_server.store(nullptr);
  std::cout << "shutdown complete\n";
  if (recp != nullptr) {
    rec.set_meta("tool", "micg serve");
    rec.set_meta("listen", srv.where().display());
    micg::obs::write_json_file(mpath, {rec.take()});
    std::cout << "wrote metrics to " << mpath << "\n";
  }
  return 0;
}

int cmd_query(const arg_parser& args) {
  const auto addr = args.flag("connect", "");
  if (addr.empty()) usage("query needs --connect ADDR");
  std::signal(SIGPIPE, SIG_IGN);
  micg::serve::client cli(addr);

  const auto script = args.flag("script", "");
  if (!script.empty()) {
    // Raw NDJSON pass-through: one request per input line, one response
    // per output line — the integration tests' transport.
    std::ifstream file;
    std::istream* in = &std::cin;
    if (script != "-") {
      file.open(script);
      if (!file.good()) usage("cannot read script file: " + script);
      in = &file;
    }
    std::string line;
    while (std::getline(*in, line)) {
      if (line.empty()) continue;
      std::cout << cli.call_line(line) << "\n";
    }
    return 0;
  }

  if (args.positional.empty()) usage("query needs OP or --script FILE");
  micg::api::json params;
  const auto pstr = args.flag("params", "");
  if (!pstr.empty()) params = micg::api::json::parse(pstr);
  const auto resp =
      cli.call(args.positional[0], args.flag("graph", ""), std::move(params),
               args.flag_int("deadline-ms", 0), args.flag("id", ""));
  std::cout << resp.dump() << "\n";
  const micg::api::json* st = resp.find("status");
  return st != nullptr && st->is_string() && st->as_string() == "ok" ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    const arg_parser args(argc, argv, 2);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "color") return cmd_color(args);
    if (cmd == "bfs") return cmd_bfs(args);
    if (cmd == "msbfs") return cmd_msbfs(args);
    if (cmd == "bc") return cmd_bc(args);
    if (cmd == "pagerank") return cmd_pagerank(args);
    if (cmd == "sssp") return cmd_sssp(args);
    if (cmd == "cc") return cmd_cc(args);
    if (cmd == "calibrate") return cmd_calibrate(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "query") return cmd_query(args);
  } catch (const micg::api::usage_error& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage("unknown command: " + cmd);
}
