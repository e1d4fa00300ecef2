// Shared pieces of the benchmark binary: workloads, options, the report
// every phase writes into, and a seeded RNG.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "micg/graph/any_csr.hpp"
#include "micg/serve/server.hpp"
#include "micg/serve/store.hpp"

namespace perfbench {

/// splitmix64: the same seed gives the same inputs on every host.
class rng {
 public:
  explicit rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// A graph family: a large instance the kernels run on and a serving
/// instance the server answers the mixed read/write load from.
struct workload {
  std::string name;
  std::function<micg::graph::any_csr()> kernel_graph;
  std::function<micg::graph::any_csr()> serve_graph;
  /// Draws `k` traversal sources for graph `g` (stable level counts on
  /// meshes, largest component on RMAT).
  std::function<std::vector<std::int64_t>(const micg::graph::any_csr& g,
                                          int k, rng& r)>
      sources;
  /// Open-loop arrival rates (req/s), fixed at ~30% and ~40% of the
  /// closed-loop peak this workload measured on the reference host, so
  /// heavy stays below ~60% of the peak in the host's slow periods.
  double light_rps = 0.0;
  double heavy_rps = 0.0;
};

const workload* find_workload(const std::string& name, bool tiny);

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Test sizes: small graphs and short phases (the self-test uses it).
  bool tiny = false;
  /// Test hook: corrupt one expected answer so the oracle gate must fail.
  bool corrupt_oracle = false;
  std::string out_dir = ".bench_build/perfbench/run";
  int threads = 4;  ///< min(4, nproc)
};

/// Metrics and correctness state every phase reports into.
struct report {
  struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<metric> metrics;
  tally ops;
  std::vector<std::string> mismatches;
  /// Values one phase hands to a later one without reporting them.
  std::map<std::string, double> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record an oracle failure (also counts one failed op).
  void mismatch(const std::string& what);
  [[nodiscard]] bool correct() const { return mismatches.empty(); }
};

/// One set-up: both graphs built in the narrowest layout, a server
/// listening on a unix socket, and its landmark index warm.
struct setup {
  micg::graph::any_csr kernel_g;
  micg::graph::any_csr serve_g;  ///< the served graph at epoch 0
  std::unique_ptr<micg::serve::graph_store> store;
  std::unique_ptr<micg::obs::recorder> serve_rec;  ///< traced runs only
  std::unique_ptr<micg::serve::server> srv;
  std::thread server_thread;
  std::string address;
  double graph_build_s = 0.0;
  double total_s = 0.0;

  setup() = default;
  setup(const setup&) = delete;
  setup& operator=(const setup&) = delete;
  ~setup();
};

std::unique_ptr<setup> make_setup(const workload& w, const options& opt,
                                  int attempt);

/// Kernel phase: the five ops through api::run at T = opt.threads and as
/// a T = 1 suite, each call oracle-checked outside its timed region.
void kernel_phase(const workload& w, const options& opt, const setup& s,
                  double budget_s, report& rep);

/// Serve phases: light and heavy open-loop rates, then a closed-loop
/// peak, every read checked against the oracle of the epoch it names.
void serve_phase(const workload& w, const options& opt, setup& s,
                 double budget_s, report& rep);

/// Traced runs only: microprobes of single layers (fork-join, barrier,
/// api overhead, codec, handle and socket cost, landmark build).
void layer_probes(const options& opt, setup& s, report& rep);

}  // namespace perfbench
