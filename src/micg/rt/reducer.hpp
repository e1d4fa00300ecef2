// Max reducer.
//
// reducer_max mirrors the Cilk Plus reducer_max the paper's coloring code
// uses for maxcolor (§IV-A2): per-worker views with a write-mostly update
// and a final merge. The same object doubles as the manual per-thread
// maximum used by the OpenMP variant.
#pragma once

#include <vector>

#include "micg/rt/worker.hpp"
#include "micg/support/assert.hpp"
#include "micg/support/cacheline.hpp"

namespace micg::rt {

template <typename T>
class reducer_max {
 public:
  reducer_max(int max_workers, T identity)
      : identity_(identity),
        views_(static_cast<std::size_t>(max_workers),
               padded<T>(identity)) {
    MICG_CHECK(max_workers >= 1, "need at least one worker slot");
  }

  /// Fold `v` into the calling worker's view (write-only semantics).
  void update(T v) {
    const int w = this_worker_id();
    MICG_CHECK(w >= 0 && w < static_cast<int>(views_.size()),
               "reducer update outside a parallel region");
    T& view = views_[static_cast<std::size_t>(w)].value;
    if (v > view) view = v;
  }

  /// Merge all views. Call only when quiescent.
  [[nodiscard]] T get() const {
    T best = identity_;
    for (const auto& s : views_) {
      if (s.value > best) best = s.value;
    }
    return best;
  }

  /// Reset every view to the identity.
  void reset() {
    for (auto& s : views_) s.value = identity_;
  }

 private:
  T identity_;
  std::vector<padded<T>> views_;
};

}  // namespace micg::rt
