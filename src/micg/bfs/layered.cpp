#include "micg/bfs/layered.hpp"

#include <atomic>
#include <optional>
#include <utility>

#include "micg/bfs/bag.hpp"
#include "micg/bfs/block_queue.hpp"
#include "micg/bfs/level_step.hpp"
#include "micg/bfs/tls_queue.hpp"
#include "micg/obs/obs.hpp"
#include "micg/rt/exec.hpp"
#include "micg/rt/scheduler.hpp"
#include "micg/support/assert.hpp"

namespace micg::bfs {

const char* bfs_variant_name(bfs_variant v) {
  switch (v) {
    case bfs_variant::omp_block: return "OpenMP-Block";
    case bfs_variant::omp_block_relaxed: return "OpenMP-Block-relaxed";
    case bfs_variant::tbb_block: return "TBB-Block";
    case bfs_variant::tbb_block_relaxed: return "TBB-Block-relaxed";
    case bfs_variant::omp_tls: return "OpenMP-TLS";
    case bfs_variant::cilk_bag_relaxed: return "CilkPlus-Bag-relaxed";
  }
  return "unknown";
}

std::vector<bfs_variant> all_bfs_variants() {
  return {bfs_variant::omp_block,       bfs_variant::omp_block_relaxed,
          bfs_variant::tbb_block,       bfs_variant::tbb_block_relaxed,
          bfs_variant::omp_tls,         bfs_variant::cilk_bag_relaxed};
}

bfs_variant bfs_variant_from_name(const std::string& name) {
  for (bfs_variant v : all_bfs_variants()) {
    if (name == bfs_variant_name(v)) return v;
  }
  MICG_CHECK(false, "unknown BFS variant name: " + name);
  return bfs_variant::omp_block_relaxed;  // unreachable
}

namespace {

using detail::claim_vertex;
using detail::level_array;

/// The block-queue variants: two block-accessed queues swapped per level,
/// the vertex loop scheduled by an OpenMP-dynamic or TBB-simple backend.
template <micg::graph::CsrGraph G>
parallel_bfs_result bfs_block(const G& g, typename G::vertex_type source,
                              const parallel_bfs_options& opt,
                              bool tbb_style, bool relaxed) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  level_array level(static_cast<std::size_t>(n));
  for (auto& l : level) l.store(-1, std::memory_order_relaxed);

  const std::size_t cap =
      detail::level_queue_capacity(n, opt.ex.threads, opt.block);
  basic_block_queue<VId> cur(cap, opt.block, opt.ex.threads);
  basic_block_queue<VId> next(cap, opt.block, opt.ex.threads);

  rt::exec ex = opt.ex;
  ex.kind = tbb_style ? rt::backend::tbb_simple : rt::backend::omp_dynamic;
  // Reuse one scheduler across all levels for the TBB-style backend; the
  // OpenMP-style variants never touch it, so they skip its deques.
  std::optional<rt::task_scheduler> sched;
  if (tbb_style) ex.sched = &sched.emplace(ex.pool_or_global(), ex.threads);
  obs::recorder* rec = opt.ex.sink();

  level[static_cast<std::size_t>(source)].store(0,
                                                std::memory_order_relaxed);
  cur.push(0, source);
  cur.flush_all();

  parallel_bfs_result partial;
  int depth = 1;
  while (cur.count_valid() > 0) {
    partial.queue_slots_per_level.push_back(cur.size_with_sentinels());
    obs::span level_span =
        rec != nullptr ? rec->start_span("bfs.level", depth - 1)
                       : obs::span();
    level_span.value(
        "queue_slots",
        static_cast<double>(partial.queue_slots_per_level.back()));
    detail::top_down_step(ex, g, level, cur, next, depth, relaxed,
                          [](int, VId) {});
    cur.swap(next);
    ++depth;
  }

  auto r = detail::finalize_levels<parallel_bfs_result>(level);
  r.queue_slots_per_level = std::move(partial.queue_slots_per_level);
  return r;
}

/// SNAP-style variant: thread-local queues merged per level, exactly-once
/// insertion via CAS claim (the "lock"), with the paper's improvement of
/// testing the level before attempting the claim.
template <micg::graph::CsrGraph G>
parallel_bfs_result bfs_tls(const G& g, typename G::vertex_type source,
                            const parallel_bfs_options& opt) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  level_array level(static_cast<std::size_t>(n));
  for (auto& l : level) l.store(-1, std::memory_order_relaxed);

  rt::exec ex = opt.ex;
  ex.kind = rt::backend::omp_dynamic;
  obs::recorder* rec = opt.ex.sink();

  basic_tls_frontier<VId> locals(opt.ex.threads);
  std::vector<VId> cur{source};
  std::vector<VId> next;
  level[static_cast<std::size_t>(source)].store(0,
                                                std::memory_order_relaxed);

  int depth = 1;
  while (!cur.empty()) {
    obs::span level_span =
        rec != nullptr ? rec->start_span("bfs.level", depth - 1)
                       : obs::span();
    level_span.value("frontier", static_cast<double>(cur.size()));
    rt::for_range(
        ex, static_cast<std::int64_t>(cur.size()),
        [&](std::int64_t b, std::int64_t e, int worker) {
          for (std::int64_t i = b; i < e; ++i) {
            const VId v = cur[static_cast<std::size_t>(i)];
            for (VId w : g.neighbors(v)) {
              // Check before locking (§IV-C: "checking if a vertex is
              // traversed before attempting to lock it").
              if (level[static_cast<std::size_t>(w)].load(
                      std::memory_order_relaxed) != -1) {
                continue;
              }
              if (claim_vertex(level, w, depth, /*relaxed=*/false)) {
                locals.push(worker, w);
              }
            }
          }
        });
    locals.merge_into(next);
    cur.swap(next);
    ++depth;
  }
  return detail::finalize_levels<parallel_bfs_result>(level);
}

/// Bag variant: per-worker bags filled under work stealing, merged with
/// carry-save bag union at each level (CilkPlus-Bag-relaxed).
template <micg::graph::CsrGraph G>
parallel_bfs_result bfs_bag(const G& g, typename G::vertex_type source,
                            const parallel_bfs_options& opt) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  level_array level(static_cast<std::size_t>(n));
  for (auto& l : level) l.store(-1, std::memory_order_relaxed);

  rt::task_scheduler sched(opt.ex.pool_or_global(), opt.ex.threads);
  obs::recorder* rec = opt.ex.sink();

  std::vector<basic_vertex_bag<VId>> worker_bags;
  worker_bags.reserve(static_cast<std::size_t>(opt.ex.threads));
  for (int t = 0; t < opt.ex.threads; ++t) {
    worker_bags.emplace_back(opt.bag_grain);
  }

  basic_vertex_bag<VId> cur(opt.bag_grain);
  level[static_cast<std::size_t>(source)].store(0,
                                                std::memory_order_relaxed);
  cur.insert(source);

  int depth = 1;
  while (!cur.empty()) {
    obs::span level_span =
        rec != nullptr ? rec->start_span("bfs.level", depth - 1)
                       : obs::span();
    sched.run([&] {
      cur.traverse_parallel(
          sched, [&](std::span<const VId> items, int worker) {
            for (VId v : items) {
              for (VId w : g.neighbors(v)) {
                if (claim_vertex(level, w, depth, /*relaxed=*/true)) {
                  worker_bags[static_cast<std::size_t>(worker)].insert(w);
                }
              }
            }
          });
    });
    basic_vertex_bag<VId> merged(opt.bag_grain);
    for (auto& b : worker_bags) merged.absorb(std::move(b));
    cur = std::move(merged);
    ++depth;
  }
  return detail::finalize_levels<parallel_bfs_result>(level);
}

template <micg::graph::CsrGraph G>
parallel_bfs_result run_variant(const G& g, typename G::vertex_type source,
                                const parallel_bfs_options& opt) {
  switch (opt.variant) {
    case bfs_variant::omp_block:
      return bfs_block(g, source, opt, /*tbb_style=*/false,
                       /*relaxed=*/false);
    case bfs_variant::omp_block_relaxed:
      return bfs_block(g, source, opt, /*tbb_style=*/false,
                       /*relaxed=*/true);
    case bfs_variant::tbb_block:
      return bfs_block(g, source, opt, /*tbb_style=*/true,
                       /*relaxed=*/false);
    case bfs_variant::tbb_block_relaxed:
      return bfs_block(g, source, opt, /*tbb_style=*/true, /*relaxed=*/true);
    case bfs_variant::omp_tls:
      return bfs_tls(g, source, opt);
    case bfs_variant::cilk_bag_relaxed:
      return bfs_bag(g, source, opt);
  }
  MICG_CHECK(false, "unknown BFS variant");
  return {};
}

}  // namespace

template <micg::graph::CsrGraph G>
parallel_bfs_result parallel_bfs(const G& g, typename G::vertex_type source,
                                 const parallel_bfs_options& opt) {
  MICG_CHECK(source >= 0 && source < g.num_vertices(),
             "source out of range");
  MICG_CHECK(opt.ex.threads >= 1, "need at least one thread");
  MICG_CHECK(opt.block >= 1, "block size must be positive");
  auto r = run_variant(g, source, opt);
  if (obs::recorder* rec = opt.ex.sink(); rec != nullptr) {
    rec->set_meta("kernel", "parallel_bfs");
    rec->set_meta("variant", bfs_variant_name(opt.variant));
    rec->get_counter("bfs.levels")
        .add(0, static_cast<std::uint64_t>(r.num_levels));
    rec->get_counter("bfs.reached")
        .add(0, static_cast<std::uint64_t>(r.reached));
    std::size_t slots = 0;
    for (std::size_t s : r.queue_slots_per_level) slots += s;
    rec->get_counter("bfs.queue_slots").add(0, slots);
  }
  return r;
}

#define MICG_INSTANTIATE(G)                      \
  template parallel_bfs_result parallel_bfs<G>(  \
      const G&, typename G::vertex_type, const parallel_bfs_options&);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::bfs
