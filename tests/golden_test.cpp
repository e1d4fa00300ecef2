// Golden-file regression tests for the CLI (docs/testing.md).
//
// Each case runs the installed `micg` binary on the committed fixture
// graph and compares its stdout — and, for the metrics cases, its
// micg.metrics.v1 JSON — against files under tests/golden/. Timing is the
// only intended nondeterminism, so comparison is modulo timing: elapsed
// "N ms" substrings are masked in stdout, and metrics documents are
// canonicalized by parsing them with obs::from_json, zeroing every timer
// and span duration, and re-serializing. The api_wire case instead calls
// the api in-process and pins each query op's wire JSON.
//
// To update the goldens after an intended output change:
//   MICG_UPDATE_GOLDENS=1 ./tests/golden_test    (or tools/update_goldens.sh)
// then review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "micg/api/api.hpp"
#include "micg/api/json.hpp"
#include "micg/api/parse.hpp"
#include "micg/obs/emit.hpp"
#include "micg/support/assert.hpp"

namespace {

std::string golden_dir() { return MICG_GOLDEN_DIR; }
std::string cli_path() { return MICG_CLI_PATH; }

bool update_mode() {
  const char* v = std::getenv("MICG_UPDATE_GOLDENS");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Run a shell command (from inside the golden directory, so fixture paths
/// in the output are relative) and capture its exit status and combined
/// stdout/stderr. MICG_TUNE is pinned to fixed so the goldens stay
/// meaningful when the ambient environment opts into auto-tuning (which
/// may legitimately change the reported BFS variant name, though never
/// any result).
std::pair<int, std::string> run_cli_status(const std::string& args) {
  const std::string cmd = "cd '" + golden_dir() + "' && MICG_TUNE=fixed '" +
                          cli_path() + "' " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  std::string out;
  char buf[4096];
  while (pipe != nullptr && fgets(buf, sizeof buf, pipe) != nullptr) {
    out += buf;
  }
  return {pipe != nullptr ? pclose(pipe) : -1, out};
}

/// run_cli_status for a command that must succeed; returns its output.
std::string run_cli(const std::string& args) {
  auto [rc, out] = run_cli_status(args);
  EXPECT_EQ(rc, 0) << args << "\n" << out;
  return out;
}

/// Mask elapsed-time substrings and drop the metrics-path line (it names a
/// temp file).
std::string normalize_stdout(std::string out) {
  static const std::regex ms_re(R"(\b[0-9]+(\.[0-9]+)? ms\b)");
  out = std::regex_replace(out, ms_re, "<ms> ms");
  std::istringstream in(out);
  std::ostringstream kept;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("wrote metrics to ", 0) == 0) continue;
    kept << line << "\n";
  }
  return kept.str();
}

/// Parse a metrics file and zero the fields whose values depend on the
/// clock: every timer and every span duration. Everything else (meta,
/// counters, gauges, span structure) must be deterministic at one thread.
std::string canonicalize_metrics(const std::string& json) {
  auto records = micg::obs::records_from_json(json);
  for (auto& rec : records) {
    for (auto& [name, seconds] : rec.timers) seconds = 0.0;
    for (auto& span : rec.spans) span.seconds = 0.0;
  }
  return micg::obs::to_json(records);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path
                         << " (run MICG_UPDATE_GOLDENS=1 to create it)";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << content;
}

/// Compare `actual` against the golden file, or rewrite it in update mode.
void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_dir() + "/" + name;
  if (update_mode()) {
    write_file(path, actual);
    SUCCEED() << "updated " << path;
    return;
  }
  EXPECT_EQ(actual, read_file(path))
      << "golden mismatch for " << name
      << " — if the change is intended, run MICG_UPDATE_GOLDENS=1 "
         "./tests/golden_test and review the diff";
}

TEST(Golden, InfoStdout) {
  check_golden("info_tiny.golden",
               normalize_stdout(run_cli("info tiny.mtx")));
}

TEST(Golden, BfsStdout) {
  check_golden(
      "bfs_tiny.golden",
      normalize_stdout(run_cli("bfs tiny.mtx --source 0 --threads 1")));
}

TEST(Golden, MsbfsStdout) {
  check_golden("msbfs_tiny.golden",
               normalize_stdout(run_cli(
                   "msbfs tiny.mtx --sources 8 --lanes 4 --threads 1")));
}

TEST(Golden, BcStdout) {
  check_golden(
      "bc_tiny.golden",
      normalize_stdout(run_cli("bc tiny.mtx --threads 1 --top 3")));
}

TEST(Golden, ColorStdout) {
  check_golden(
      "color_tiny.golden",
      normalize_stdout(run_cli("color tiny.mtx --threads 1")));
}

TEST(Golden, SsspStdout) {
  // Weights derive from (--weights seed, endpoints), so distances are a
  // pure function of the fixture and the flags; one thread pins bucket
  // traversal order (docs/workloads.md).
  check_golden("sssp_tiny.golden",
               normalize_stdout(run_cli(
                   "sssp tiny.mtx --source 0 --delta 16 --threads 1")));
}

TEST(Golden, CcStdout) {
  check_golden("cc_tiny.golden",
               normalize_stdout(run_cli("cc tiny.mtx --threads 1")));
}

// Sharded execution was removed; asking for it must fail, not run plain.
TEST(Cli, ShardsOtherThanOneExitNonZero) {
  const auto [rc, out] = run_cli_status("bfs tiny.mtx --shards 2");
  EXPECT_NE(rc, 0) << out;
  EXPECT_NE(out.find("shards must be 1"), std::string::npos) << out;
}

/// Rounds every JSON real with a fraction to 6 significant digits: the
/// last bits of kernel arithmetic (bc scores, pagerank deltas) move with
/// the compiler's floating-point contraction, the wire encoding does not.
std::string round_reals(const std::string& text) {
  static const std::regex real_re(R"(-?[0-9]+\.[0-9]+(e[-+][0-9]+)?)");
  std::string out;
  auto last = text.cbegin();
  for (std::sregex_iterator it(text.begin(), text.end(), real_re), end;
       it != end; ++it) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", std::stod(it->str()));
    out.append(last, (*it)[0].first).append(buf);
    last = (*it)[0].second;
  }
  return out.append(last, text.cend());
}

// Wire encoding of every query op: dispatch_query on the fixture at one
// thread, once with default params and once with every request field set
// to a non-default value, plus both forms of the approx_dist response.
TEST(Golden, ApiWire) {
  setenv("MICG_TUNE", "fixed", 1);  // "tune":"" defers to the environment
  using micg::api::json;
  const auto g = micg::api::load_graph(golden_dir() + "/tiny.mtx");
  const std::string ex =
      R"("backend":"OpenMP-static","threads":1,"chunk":16,"tune":"fixed")";
  const std::pair<const char*, std::string> cases[] = {
      {"info", "{}"},
      {"bfs", R"({"variant":"OpenMP-Block","source":0,"block":16,)"
              R"("targets":[0,59],)" + ex + "}"},
      {"msbfs", R"({"sources":8,"lanes":4,"source_list":[0,1,2],)" + ex + "}"},
      {"bc", R"({"samples":6,"mode":"repeated","lanes":4,"top":3,)" + ex + "}"},
      {"color", R"({"distance2":true,)" + ex + "}"},
      {"pagerank", R"({"damping":0.9,"tolerance":1e-6,"max_iterations":50,)"
                   R"("top":3,)" + ex + "}"},
      {"sssp", R"({"source":0,"delta":16,"weights":7,"max_weight":100,)"
               R"("targets":[0,59],)" + ex + "}"},
      {"cc", "{" + ex + "}"},
  };
  std::string out;
  for (const auto& [op, full] : cases) {
    for (const std::string& params : {std::string(R"({"threads":1})"), full}) {
      out += std::string(op) + " " + params + "\n  " +
             micg::api::dispatch_query(g, op, json::parse(params)).dump() +
             "\n";
    }
  }
  // A removed field is refused, not ignored. Keep only the message after
  // MICG_CHECK's "expression at file:line -- " prefix, as the server does.
  const std::string refused = R"({"shards":2})";
  out += "info " + refused + "\n  ";
  try {
    out += micg::api::dispatch_query(g, "info", json::parse(refused)).dump();
  } catch (const micg::check_error& e) {
    const std::string what = e.what();
    out += "error: " + what.substr(what.find(" -- ") + 4);
  }
  out += "\n";
  micg::api::dist_response d;
  d.source = 0;
  d.target = 59;
  d.distance = 7;
  d.landmarks = 16;
  out += "approx_dist exact\n  " + micg::api::to_json(d).dump() + "\n";
  d.approximate = true;
  d.lower = 5;
  d.upper = 7;
  out += "approx_dist approximate\n  " + micg::api::to_json(d).dump() + "\n";
  check_golden("api_wire.golden", round_reals(out));
}

struct metrics_case {
  const char* golden;
  const char* args;  ///< CLI invocation without the --metrics-json flag
};

// gtest prints the parameter into each case's ctest name; by default that
// is the raw bytes of the two pointers, which move with every build and
// every load address.
void PrintTo(const metrics_case& c, std::ostream* os) { *os << c.golden; }

class GoldenMetrics : public ::testing::TestWithParam<metrics_case> {};

TEST_P(GoldenMetrics, CanonicalJson) {
  const auto& [golden, args] = GetParam();
  // Name the scratch file after the golden: ctest runs each parameterized
  // case as its own process, and a shared path races under `ctest -j`.
  const std::string tmp =
      ::testing::TempDir() + "/micg_golden_" + golden + ".json";
  run_cli(std::string(args) + " --metrics-json '" + tmp + "'");
  check_golden(golden, canonicalize_metrics(read_file(tmp)));
  std::remove(tmp.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Cli, GoldenMetrics,
    ::testing::Values(
        metrics_case{"bfs_tiny.metrics.golden",
                     "bfs tiny.mtx --source 0 --threads 1"},
        metrics_case{"msbfs_tiny.metrics.golden",
                     "msbfs tiny.mtx --sources 8 --lanes 4 --threads 1"},
        metrics_case{"bc_tiny.metrics.golden",
                     "bc tiny.mtx --threads 1 --samples 6"},
        metrics_case{"sssp_tiny.metrics.golden",
                     "sssp tiny.mtx --source 0 --delta 16 --threads 1"},
        metrics_case{"cc_tiny.metrics.golden", "cc tiny.mtx --threads 1"}),
    [](const auto& info) {
      std::string n = info.param.golden;
      return n.substr(0, n.find('_'));
    });

}  // namespace
