// Streaming graph-analysis pipeline — the TBB flow-graph/pipeline pattern
// the paper describes (§II-C: "It allows to easily set up a pipeline of
// tasks that perform complex tasks such as, typically, video compression,
// graphical rendering, and data processing").
//
// Stage 1 (serial source): generate a stream of graphs of growing size.
// Stage 2 (parallel):      color each graph and compute its statistics
//                          (the expensive, independent middle stage).
// Stage 3 (serial sink):   print a report row, in stream order.
#include <iostream>
#include <memory>

#include "micg/color/iterative.hpp"
#include "micg/color/ordering.hpp"
#include "micg/color/verify.hpp"
#include "micg/graph/components.hpp"
#include "micg/graph/generators.hpp"
#include "micg/rt/pipeline.hpp"
#include "micg/rt/thread_pool.hpp"
#include "micg/support/table.hpp"

namespace {

struct job {
  int index;
  micg::graph::csr_graph graph;
  // filled by stage 2:
  int colors = 0;
  int degeneracy = 0;
  micg::graph::vertex_t components = 0;
  bool valid = false;
};

}  // namespace

int main() {
  constexpr int kJobs = 12;
  micg::rt::thread_pool pool(4);

  micg::table_printer report("streamed graph analyses (3-stage pipeline)");
  report.header({"#", "|V|", "|E|", "colors", "degeneracy", "components",
                 "valid"});

  micg::rt::pipeline p;
  int produced = 0;
  // Source: one Erdos-Renyi graph per token, growing sizes.
  p.add_filter(micg::rt::filter_mode::serial_in_order, [&](void*) -> void* {
    if (produced == kJobs) return nullptr;
    auto* j = new job;
    j->index = produced;
    j->graph = micg::graph::make_erdos_renyi(
        500 + 400 * produced, 8.0,
        static_cast<std::uint64_t>(produced) + 1);
    ++produced;
    return j;
  });
  // Parallel analysis stage: several graphs in flight at once.
  p.add_filter(micg::rt::filter_mode::parallel, [](void* d) -> void* {
    auto* j = static_cast<job*>(d);
    micg::color::iterative_options opt;
    opt.ex.kind = micg::rt::backend::omp_dynamic;
    opt.ex.threads = 1;  // stage-level parallelism comes from the pipeline
    const auto coloring = micg::color::iterative_color(j->graph, opt);
    j->colors = coloring.num_colors;
    j->valid = micg::color::is_valid_coloring(j->graph, coloring.color);
    j->degeneracy = micg::color::degeneracy(j->graph);
    j->components = micg::graph::count_components(j->graph);
    return j;
  });
  // Sink: emit rows in stream order.
  p.add_filter(micg::rt::filter_mode::serial_in_order,
               [&](void* d) -> void* {
                 std::unique_ptr<job> j(static_cast<job*>(d));
                 report.row(
                     {std::to_string(j->index),
                      micg::table_printer::fmt(static_cast<long long>(
                          j->graph.num_vertices())),
                      micg::table_printer::fmt(static_cast<long long>(
                          j->graph.num_edges())),
                      micg::table_printer::fmt(
                          static_cast<long long>(j->colors)),
                      micg::table_printer::fmt(
                          static_cast<long long>(j->degeneracy)),
                      micg::table_printer::fmt(
                          static_cast<long long>(j->components)),
                      j->valid ? "yes" : "NO"});
                 return nullptr;
               });

  p.run(pool, 4, /*max_tokens=*/4);
  report.print(std::cout);
  std::cout << "\nprocessed " << kJobs
            << " graphs with up to 4 in flight; rows arrived in order\n";
  return 0;
}
