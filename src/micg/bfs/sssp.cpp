#include "micg/bfs/sssp.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "micg/bfs/block_queue.hpp"
#include "micg/obs/obs.hpp"
#include "micg/rt/edge_partition.hpp"
#include "micg/rt/scheduler.hpp"
#include "micg/support/assert.hpp"

namespace micg::bfs {

using micg::graph::invalid_vertex_v;
using micg::graph::weight_t;

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

/// Buckets at or below this edge mass are relaxed serially on the calling
/// thread. Delta-stepping's bucket spectrum has a long tail of tiny
/// buckets (often a handful of vertices each); launching two parallel
/// regions per bucket for those costs far more than the relaxations
/// themselves and single-handedly erases the parallel win.
constexpr std::int64_t kSerialEdgeCutoff = 4096;

/// CAS-min on a distance slot; true when this call won the decrease.
inline bool relax_min(std::atomic<std::int64_t>& slot, std::int64_t nd) {
  std::int64_t old = slot.load(std::memory_order_relaxed);
  while (nd < old) {
    if (slot.compare_exchange_weak(old, nd, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// One worker's bucket bins over a cyclic window of buckets that starts
/// at the one being processed (the front). Relaxing from bucket b over an
/// edge of weight w files at most ceil(w / delta) buckets past b, and no
/// bin below the front is ever non-empty, so ceil(max_w / delta) + 1
/// slots hold every live entry. The window grows on demand and never
/// past that bound for the weights filed so far.
template <class VId>
class bucket_window {
 public:
  bucket_window() : slots_(1) {}

  /// The bin of bucket a, which must lie in the window (the front
  /// bucket always does).
  std::vector<VId>& at(std::int64_t a) {
    std::size_t s = head_ + static_cast<std::size_t>(a - base_);
    if (s >= slots_.size()) s -= slots_.size();
    return slots_[s];
  }

  /// File v into bucket a, reached from the front bucket over an edge of
  /// weight w, so a lies at most ceil(w / delta) buckets past the front.
  void file(std::int64_t a, std::int64_t w, std::int64_t delta, VId v) {
    const auto need = static_cast<std::size_t>(a - base_) + 1;
    if (need > slots_.size()) {
      const auto bound =
          static_cast<std::size_t>(w / delta + (w % delta != 0 ? 1 : 0)) + 1;
      grow(std::max(need, std::min(2 * slots_.size(), bound)));
    }
    at(a).push_back(v);
  }

  /// Lowest non-empty bucket in the window, or -1.
  [[nodiscard]] std::int64_t first_nonempty() {
    for (std::size_t d = 0; d < slots_.size(); ++d) {
      if (!at(base_ + static_cast<std::int64_t>(d)).empty()) {
        return base_ + static_cast<std::int64_t>(d);
      }
    }
    return -1;
  }

  /// Move the front to bucket b; every bin below b must be empty.
  void advance(std::int64_t b) {
    head_ = (head_ + static_cast<std::size_t>(b - base_)) % slots_.size();
    base_ = b;
  }

 private:
  void grow(std::size_t size) {
    std::vector<std::vector<VId>> next(size);
    for (std::size_t d = 0; d < slots_.size(); ++d) {
      next[d] = std::move(at(base_ + static_cast<std::int64_t>(d)));
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<std::vector<VId>> slots_;
  std::size_t head_ = 0;  ///< slot of the front bucket
  std::int64_t base_ = 0;  ///< the front bucket
};

}  // namespace

template <micg::graph::CsrGraph G>
sssp_result delta_stepping_sssp(const G& g, typename G::vertex_type source,
                                std::span<const graph::weight_t> weights,
                                const sssp_options& opt) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  MICG_CHECK(source >= 0 && source < n, "source out of range");
  MICG_CHECK(opt.delta >= 1, "sssp delta must be >= 1");
  MICG_CHECK(opt.ex.threads >= 1, "need at least one thread");
  MICG_CHECK(opt.block >= 1, "block size must be positive");
  MICG_CHECK(weights.size() ==
                 static_cast<std::size_t>(g.num_directed_edges()),
             "weights array is not adjacency-parallel");

  const std::int64_t delta = opt.delta;
  const int threads = opt.ex.threads;
  std::vector<std::atomic<std::int64_t>> dist(static_cast<std::size_t>(n));
  for (auto& d : dist) d.store(kInf, std::memory_order_relaxed);
  dist[static_cast<std::size_t>(source)].store(0, std::memory_order_relaxed);
  // expanded[v] = the distance v's edges were last relaxed from (-1:
  // never). A vertex is filed once per decrease, so it can sit in a bin
  // several times at the same final distance; the exchange lets exactly
  // one of those entries scan its edges. A repeat scan from the same
  // distance could not win a single relaxation, so skipping it changes
  // no distance and no count.
  std::vector<std::atomic<std::int64_t>> expanded(static_cast<std::size_t>(n));
  for (auto& e : expanded) e.store(-1, std::memory_order_relaxed);

  // bins[worker] holds the vertices this worker filed, by bucket.
  // Worker-private: filled without synchronization during a relax pass,
  // drained and advanced between passes.
  std::vector<bucket_window<VId>> bins(static_cast<std::size_t>(threads));
  bins[0].file(0, 0, delta, source);

  auto file = [&](int worker, std::int64_t nd, weight_t w, VId v) {
    bins[static_cast<std::size_t>(worker)].file(nd / delta, w, delta, v);
  };

  rt::exec ex = opt.ex;
  // Reuse one scheduler across all passes for the cilk/tbb backends; the
  // OpenMP-style backends never touch it, so they skip its deques.
  std::optional<rt::task_scheduler> sched;
  if (ex.sched == nullptr && !rt::is_omp(ex.kind)) {
    ex.sched = &sched.emplace(ex.pool_or_global(), ex.threads);
  }

  // The current bucket's frontier: the block-accessed queue, re-created
  // only when a bucket outgrows the largest one seen so far.
  std::optional<basic_block_queue<VId>> frontier;
  std::vector<std::int64_t> fd;  // frontier-degree prefix, reused
  std::vector<VId> scratch;      // serial-path bucket assembly, reused
  std::atomic<std::int64_t> relaxations{0};

  sssp_result r;
  r.delta = delta;

  // The lowest non-empty bucket over every worker's bins (-1: none);
  // each window's front moves there.
  auto advance_bins = [&] {
    std::int64_t next = -1;
    for (auto& mine : bins) {
      const std::int64_t cand = mine.first_nonempty();
      if (cand >= 0 && (next < 0 || cand < next)) next = cand;
    }
    if (next >= 0) {
      for (auto& mine : bins) mine.advance(next);
    }
    return next;
  };

  std::int64_t bucket = 0;
  std::int64_t counted = -1;  // last bucket index added to r.buckets
  while (bucket >= 0) {
    if (bucket != counted) {
      ++r.buckets;
      counted = bucket;
    }

    // Assemble the bucket's frontier: drain every worker's bin for this
    // bucket into the block queue.
    std::size_t total = 0;
    std::int64_t edge_mass = 0;
    for (auto& mine : bins) {
      const auto& slot = mine.at(bucket);
      total += slot.size();
      for (const VId v : slot) {
        edge_mass += static_cast<std::int64_t>(g.degree(v));
      }
    }

    const std::int64_t bucket_floor = bucket * delta;

    if (threads == 1 || edge_mass <= kSerialEdgeCutoff) {
      // Serial path: relax the bucket inline, no frontier machinery.
      scratch.clear();
      for (auto& mine : bins) {
        auto& slot = mine.at(bucket);
        scratch.insert(scratch.end(), slot.begin(), slot.end());
        slot.clear();
      }
      std::int64_t local = 0;
      for (const VId v : scratch) {
        const std::int64_t dv =
            dist[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
        if (dv < bucket_floor) continue;  // settled by an earlier bucket
        if (expanded[static_cast<std::size_t>(v)].exchange(
                dv, std::memory_order_relaxed) == dv) {
          continue;  // already expanded from this distance
        }
        const auto nbrs = g.neighbors(v);
        const auto* wv =
            weights.data() +
            static_cast<std::size_t>(g.xadj()[static_cast<std::size_t>(v)]);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const VId w = nbrs[j];
          const std::int64_t nd = dv + wv[j];
          if (relax_min(dist[static_cast<std::size_t>(w)], nd)) {
            ++local;
            file(0, nd, wv[j], w);
          }
        }
      }
      if (local > 0) {
        relaxations.fetch_add(local, std::memory_order_relaxed);
      }
      ++r.rounds;

      bucket = advance_bins();
      continue;
    }

    const std::size_t need = total +
                             static_cast<std::size_t>(threads) *
                                 static_cast<std::size_t>(opt.block) +
                             64;
    if (!frontier.has_value() || frontier->capacity() < need) {
      frontier.emplace(need, opt.block, threads);
    } else {
      frontier->reset();
    }
    {
      rt::exec flush_ex = ex;
      flush_ex.chunk = 1;  // one dispatch unit per worker bin
      rt::for_range(flush_ex, static_cast<std::int64_t>(threads),
                    [&](std::int64_t b, std::int64_t e, int worker) {
                      for (std::int64_t j = b; j < e; ++j) {
                        auto& slot =
                            bins[static_cast<std::size_t>(j)].at(bucket);
                        for (VId v : slot) frontier->push(worker, v);
                        slot.clear();
                      }
                    });
    }
    frontier->flush_all();

    // Edge-balance the relax pass over a frontier-degree prefix
    // (sentinel slots weigh nothing), so one hub entry cannot serialize
    // the bucket the way it would under a per-entry split.
    const auto entries = frontier->raw();
    const auto s = static_cast<std::int64_t>(entries.size());
    fd.assign(static_cast<std::size_t>(s) + 1, 0);
    for (std::int64_t i = 0; i < s; ++i) {
      const VId v = entries[static_cast<std::size_t>(i)];
      const std::int64_t deg = v == invalid_vertex_v<VId>
                                   ? 0
                                   : static_cast<std::int64_t>(g.degree(v));
      fd[static_cast<std::size_t>(i) + 1] =
          fd[static_cast<std::size_t>(i)] + deg;
    }

    rt::for_range_edges(
        ex, s, fd.data(), [&](std::int64_t b, std::int64_t e, int worker) {
          std::int64_t local = 0;
          for (std::int64_t i = b; i < e; ++i) {
            const VId v = entries[static_cast<std::size_t>(i)];
            if (v == invalid_vertex_v<VId>) continue;  // sentinel (§IV-C)
            const std::int64_t dv =
                dist[static_cast<std::size_t>(v)].load(
                    std::memory_order_relaxed);
            // Settled below this bucket by an earlier one — stale entry.
            if (dv < bucket_floor) continue;
            if (expanded[static_cast<std::size_t>(v)].exchange(
                    dv, std::memory_order_relaxed) == dv) {
              continue;
            }
            const auto nbrs = g.neighbors(v);
            const auto* wv =
                weights.data() +
                static_cast<std::size_t>(
                    g.xadj()[static_cast<std::size_t>(v)]);
            for (std::size_t j = 0; j < nbrs.size(); ++j) {
              const VId w = nbrs[j];
              const std::int64_t nd = dv + wv[j];
              if (relax_min(dist[static_cast<std::size_t>(w)], nd)) {
                ++local;
                file(worker, nd, wv[j], w);
              }
            }
          }
          if (local > 0) {
            relaxations.fetch_add(local, std::memory_order_relaxed);
          }
        });
    ++r.rounds;

    // Light relaxations can re-file vertices into the bucket just
    // processed: repeat it until it drains, then advance to the lowest
    // non-empty bucket anywhere (none left -> done).
    bucket = advance_bins();
  }

  r.relaxations = relaxations.load(std::memory_order_relaxed);
  r.dist.resize(static_cast<std::size_t>(n));
  for (std::size_t v = 0; v < r.dist.size(); ++v) {
    const std::int64_t d = dist[v].load(std::memory_order_relaxed);
    r.dist[v] = d == kInf ? -1 : d;
    if (d != kInf) ++r.reached;
  }

  if (obs::recorder* rec = opt.ex.sink(); rec != nullptr) {
    rec->set_meta("kernel", "sssp");
    rec->set_value("sssp.delta", static_cast<double>(delta));
    rec->get_counter("sssp.relaxations")
        .add(0, static_cast<std::uint64_t>(r.relaxations));
    rec->get_counter("sssp.buckets")
        .add(0, static_cast<std::uint64_t>(r.buckets));
    rec->get_counter("sssp.rounds")
        .add(0, static_cast<std::uint64_t>(r.rounds));
    rec->get_counter("sssp.reached")
        .add(0, static_cast<std::uint64_t>(r.reached));
  }
  return r;
}

template <micg::graph::CsrGraph G>
std::vector<std::int64_t> seq_dijkstra(
    const G& g, typename G::vertex_type source,
    std::span<const graph::weight_t> weights) {
  using VId = typename G::vertex_type;
  const VId n = g.num_vertices();
  MICG_CHECK(source >= 0 && source < n, "source out of range");
  MICG_CHECK(weights.size() ==
                 static_cast<std::size_t>(g.num_directed_edges()),
             "weights array is not adjacency-parallel");

  std::vector<std::int64_t> dist(static_cast<std::size_t>(n), kInf);
  using entry = std::pair<std::int64_t, VId>;
  std::priority_queue<entry, std::vector<entry>, std::greater<>> heap;
  dist[static_cast<std::size_t>(source)] = 0;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[static_cast<std::size_t>(v)]) continue;  // stale entry
    const auto nbrs = g.neighbors(v);
    const auto* wv =
        weights.data() +
        static_cast<std::size_t>(g.xadj()[static_cast<std::size_t>(v)]);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const VId w = nbrs[j];
      const std::int64_t nd = d + wv[j];
      auto& dw = dist[static_cast<std::size_t>(w)];
      if (nd < dw) {
        dw = nd;
        heap.emplace(nd, w);
      }
    }
  }
  for (auto& d : dist) {
    if (d == kInf) d = -1;
  }
  return dist;
}

#define MICG_INSTANTIATE(G)                                                \
  template sssp_result delta_stepping_sssp<G>(                             \
      const G&, typename G::vertex_type, std::span<const graph::weight_t>, \
      const sssp_options&);                                                \
  template std::vector<std::int64_t> seq_dijkstra<G>(                      \
      const G&, typename G::vertex_type, std::span<const graph::weight_t>);
MICG_FOR_EACH_CSR_LAYOUT(MICG_INSTANTIATE)
#undef MICG_INSTANTIATE

}  // namespace micg::bfs
