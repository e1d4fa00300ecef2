// Kernel-wide observability: counters, phase timers and spans shared by
// every kernel family.
//
// The paper's argument rests on seeing into the kernels — conflicts per
// coloring round, queue slots per BFS level, the per-level cost the
// layered model charges — so every kernel publishes its telemetry through
// one `recorder` instead of bespoke result-struct fields. The legacy
// fields remain (tests pin them equal); the recorder adds a uniform,
// machine-readable view that the emitters in emit.hpp serialize.
//
// Overhead discipline:
//  * counter/phase_timer accumulate into cacheline-padded per-worker
//    slots with relaxed atomics — one uncontended RMW per publish, no
//    locks on the hot path;
//  * when no recorder is installed the cost is a single relaxed atomic
//    load (the global-pointer check); bench/micro_runtime.cpp prices a
//    recorded fork-join region against a plain one;
//  * spans are orchestration-frequency events (one per BFS level or
//    coloring round), recorded under a mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "micg/support/cacheline.hpp"
#include "micg/support/timer.hpp"

namespace micg::obs {

/// Number of per-worker accumulation slots. Worker ids beyond this fold
/// back modulo slot_count — totals stay exact, only the per-slot
/// attribution coarsens (the paper's 121-thread sweeps fold 2x).
inline constexpr int slot_count = 64;

namespace detail {
inline std::size_t slot_index(int worker) {
  const auto w = static_cast<std::size_t>(worker < 0 ? 0 : worker);
  return w % static_cast<std::size_t>(slot_count);
}
}  // namespace detail

/// Monotonic event counter with per-worker padded slots, merged on read.
class counter {
 public:
  explicit counter(std::string name) : name_(std::move(name)) {}

  /// Add `v` events. No default for `v`: a bare `add(w)` used to read as
  /// "add w" or "add zero" depending on the reader — count-one call sites
  /// say inc(worker) instead.
  void add(int worker, std::uint64_t v) noexcept {
    slots_[detail::slot_index(worker)].value.fetch_add(
        v, std::memory_order_relaxed);
  }

  /// Count one event (the common case; `add(w, 1)` spelled unambiguously).
  void inc(int worker) noexcept { add(worker, 1); }

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : slots_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  padded<std::atomic<std::uint64_t>> slots_[slot_count];
};

/// Accumulated wall-clock time with per-worker padded slots (nanoseconds
/// internally; seconds at the API surface).
class phase_timer {
 public:
  explicit phase_timer(std::string name) : name_(std::move(name)) {}

  void add_seconds(int worker, double seconds) noexcept {
    const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
    slots_[detail::slot_index(worker)].value.fetch_add(
        ns, std::memory_order_relaxed);
  }

  [[nodiscard]] double total_seconds() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : slots_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return static_cast<double>(sum) * 1e-9;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  padded<std::atomic<std::uint64_t>> slots_[slot_count];
};

/// One finished span: a named, optionally indexed phase (BFS level,
/// coloring round) with its duration and attached values.
struct span_record {
  std::string name;
  std::int64_t index = -1;  ///< level/round number; -1 when not indexed
  int depth = 0;            ///< nesting depth at start (0 = top level)
  double seconds = 0.0;
  std::vector<std::pair<std::string, double>> values;
};

/// Point-in-time merged view of a recorder, ready for emit.hpp.
struct snapshot {
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> timers;  ///< seconds
  std::vector<std::pair<std::string, double>> values;  ///< gauges
  std::vector<span_record> spans;  ///< completion order
};

class recorder;

/// RAII phase span. Obtained from recorder::start_span(); records its
/// duration (and any attached values) into the recorder on destruction.
/// A span on a null recorder is a no-op, so kernels create spans
/// unconditionally.
class span {
 public:
  span() = default;
  span(span&& other) noexcept { *this = std::move(other); }
  span& operator=(span&& other) noexcept;
  span(const span&) = delete;
  span& operator=(const span&) = delete;
  ~span() { finish(); }

  /// Attach a value (frontier size, conflict count, ...) reported with
  /// the span when it finishes.
  void value(std::string_view key, double v);

  /// Record now instead of at destruction.
  void finish();

 private:
  friend class recorder;
  span(recorder* rec, std::string_view name, std::int64_t index);

  recorder* rec_ = nullptr;
  span_record record_;
  stopwatch clock_;
};

/// The registry: named counters, timers, gauges, metadata and spans for
/// one run. Counter/timer handles are stable for the recorder's lifetime.
/// get_* and the publish methods are thread-safe; the hot path (handle
/// add) is lock-free.
class recorder {
 public:
  recorder() = default;
  recorder(const recorder&) = delete;
  recorder& operator=(const recorder&) = delete;

  /// Create-or-get by name. The reference stays valid until reset().
  counter& get_counter(std::string_view name);
  phase_timer& get_timer(std::string_view name);

  /// Free-form run metadata (kernel name, backend, graph, ...).
  void set_meta(std::string_view key, std::string_view value);
  /// Scalar gauge (num_colors, final_delta, ...). Last write wins.
  void set_value(std::string_view key, double v);

  /// Begin a span; it records itself into this recorder on destruction.
  span start_span(std::string_view name, std::int64_t index = -1);

  /// Merged view of everything published so far (counters sorted by
  /// name, spans in completion order).
  [[nodiscard]] snapshot take() const;

  /// Drop all state (handles from before reset() are invalidated).
  void reset();

  /// Process-global recorder used by components with no options path to
  /// a sink (the thread pool) and as the fallback for rt::exec::sink().
  /// nullptr (the default) disables recording at one relaxed load.
  static recorder* global() noexcept {
    return global_.load(std::memory_order_relaxed);
  }
  static void set_global(recorder* rec) noexcept {
    global_.store(rec, std::memory_order_relaxed);
  }

 private:
  friend class span;
  void record_span(span_record&& rec);

  static std::atomic<recorder*> global_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<counter>> counters_;
  std::vector<std::unique_ptr<phase_timer>> timers_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<span_record> spans_;
  int span_depth_ = 0;
};

/// Install `rec` as the global recorder for the current scope; restores
/// the previous one on exit.
class scoped_global {
 public:
  explicit scoped_global(recorder& rec) : prev_(recorder::global()) {
    recorder::set_global(&rec);
  }
  ~scoped_global() { recorder::set_global(prev_); }
  scoped_global(const scoped_global&) = delete;
  scoped_global& operator=(const scoped_global&) = delete;

 private:
  recorder* prev_;
};

}  // namespace micg::obs
