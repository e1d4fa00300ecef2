// Unified execution-backend facade.
//
// Every algorithm in micgraph (coloring, BFS, irregular kernel) is written
// against for_range(); an exec value selects which programming-model
// substrate runs the loop — the nine variants the paper evaluates:
//
//   OpenMP-style : static | static-chunked | dynamic | guided schedules
//   Cilk-style   : recursive cilk_for (worker-id or holder local storage —
//                  the storage choice lives in the algorithm, both run the
//                  same loop)
//   TBB-style    : simple | auto | affinity partitioners
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "micg/obs/obs.hpp"
#include "micg/rt/cilk_for.hpp"
#include "micg/rt/loop.hpp"
#include "micg/rt/partitioner.hpp"
#include "micg/rt/scheduler.hpp"
#include "micg/rt/thread_pool.hpp"

namespace micg::rt {

enum class backend {
  omp_static,
  omp_static_chunked,
  omp_dynamic,
  omp_guided,
  cilk_tid,     ///< cilk_for + worker-id-indexed local storage
  cilk_holder,  ///< cilk_for + holder views (the paper's preferred variant)
  tbb_simple,
  tbb_auto,
  tbb_affinity,
};

/// Paper-style display name ("OpenMP-dynamic", "CilkPlus-holder", ...).
const char* backend_name(backend b);

/// Parse a display name back to the enum; throws micg::check_error on
/// unknown names.
backend backend_from_name(const std::string& name);

inline bool is_omp(backend b) {
  return b == backend::omp_static || b == backend::omp_static_chunked ||
         b == backend::omp_dynamic || b == backend::omp_guided;
}
inline bool is_cilk(backend b) {
  return b == backend::cilk_tid || b == backend::cilk_holder;
}
inline bool is_tbb(backend b) {
  return b == backend::tbb_simple || b == backend::tbb_auto ||
         b == backend::tbb_affinity;
}

/// All nine variants, in paper order.
std::vector<backend> all_backends();

/// One loop-execution configuration. Copyable; the pointers are optional
/// non-owning references to reusable state.
struct exec {
  backend kind = backend::omp_dynamic;
  int threads = 1;
  /// Chunk size (OpenMP), grain (Cilk leaves), or range grain (TBB).
  std::int64_t chunk = 64;
  /// Pool to run on; nullptr means thread_pool::global().
  thread_pool* pool = nullptr;
  /// Reusable scheduler for cilk/tbb backends; nullptr means a fresh
  /// scheduler per loop (correct, slightly more setup per call).
  task_scheduler* sched = nullptr;
  /// Persistent placement state for tbb_affinity; nullptr disables replay.
  affinity_partitioner* affinity = nullptr;
  /// Metrics sink the kernel publishes into; nullptr falls back to
  /// obs::recorder::global() (which is itself nullptr — recording off —
  /// unless a recorder is installed).
  obs::recorder* rec = nullptr;

  [[nodiscard]] thread_pool& pool_or_global() const {
    return pool != nullptr ? *pool : thread_pool::global();
  }

  /// The effective metrics sink for this execution; may be nullptr.
  [[nodiscard]] obs::recorder* sink() const {
    return rec != nullptr ? rec : obs::recorder::global();
  }
};

/// Run `body(chunk_begin, chunk_end, worker)` over [0, n) under the
/// configured backend. Blocking; returns when the loop is complete.
template <typename Body>
void for_range(const exec& e, std::int64_t n, const Body& body) {
  if (n <= 0) return;
  thread_pool& pool = e.pool_or_global();
  switch (e.kind) {
    case backend::omp_static:
      omp_parallel_for(pool, e.threads, n,
                       {omp_schedule::static_even, e.chunk}, body);
      return;
    case backend::omp_static_chunked:
      omp_parallel_for(pool, e.threads, n,
                       {omp_schedule::static_chunked, e.chunk}, body);
      return;
    case backend::omp_dynamic:
      omp_parallel_for(pool, e.threads, n, {omp_schedule::dynamic, e.chunk},
                       body);
      return;
    case backend::omp_guided:
      omp_parallel_for(pool, e.threads, n, {omp_schedule::guided, e.chunk},
                       body);
      return;
    case backend::cilk_tid:
    case backend::cilk_holder: {
      if (e.sched != nullptr) {
        cilk_parallel_for(*e.sched, 0, n, e.chunk, body);
      } else {
        task_scheduler sched(pool, e.threads);
        cilk_parallel_for(sched, 0, n, e.chunk, body);
      }
      return;
    }
    case backend::tbb_simple:
    case backend::tbb_auto:
    case backend::tbb_affinity: {
      auto run_with = [&](task_scheduler& sched) {
        blocked_range range(0, n, e.chunk);
        auto range_body = [&body](const blocked_range& r, int worker) {
          body(r.begin(), r.end(), worker);
        };
        if (e.kind == backend::tbb_simple) {
          parallel_for(sched, range, range_body, simple_partitioner{});
        } else if (e.kind == backend::tbb_auto) {
          parallel_for(sched, range, range_body, auto_partitioner{});
        } else {
          if (e.affinity != nullptr) {
            parallel_for(sched, range, range_body, *e.affinity);
          } else {
            affinity_partitioner ap;
            parallel_for(sched, range, range_body, ap);
          }
        }
      };
      if (e.sched != nullptr) {
        run_with(*e.sched);
      } else {
        task_scheduler sched(pool, e.threads);
        run_with(sched);
      }
      return;
    }
  }
}

}  // namespace micg::rt
