#include "micg/tune/tune.hpp"

#include <algorithm>

#include "micg/support/assert.hpp"

namespace micg::tune {

std::int64_t pick_sssp_delta(const graph::graph_stats& st,
                             std::int64_t max_weight) {
  MICG_CHECK(max_weight >= 1, "max_weight must be >= 1");
  const auto branching =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(st.avg_degree));
  return std::max<std::int64_t>(1, max_weight / branching);
}

}  // namespace micg::tune
