// The transport-independent request engine of `micg serve`.
//
// A service owns the admission gate and the op dispatch; the socket
// server (server.hpp), the in-process tests and the fault-injection
// tests all drive the same handle_line()/serve_session() entry points,
// so every protocol behavior is testable without a socket.
//
// Admission control: at most `max_inflight` requests execute at once;
// up to `max_waiting` more queue on a condition variable. Beyond that
// the service sheds gracefully — an immediate `overloaded` response,
// the error code clients are told to back off on. A queued request that
// waits past its deadline gets `deadline_exceeded` (the deadline bounds
// *queueing*, not kernel execution, which is not preemptible). Control
// ops (ping/list/shutdown) bypass the gate so the server stays
// observable under full load.
//
// Concurrency: each admission slot owns a private rt::thread_pool —
// the process-global pool forbids concurrent multi-thread regions by
// design (rt/thread_pool.hpp), so concurrent queries each run on their
// slot's pool, capped at `threads_per_query` workers.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "micg/api/api.hpp"
#include "micg/bfs/landmark.hpp"
#include "micg/obs/obs.hpp"
#include "micg/rt/thread_pool.hpp"
#include "micg/serve/coalesce.hpp"
#include "micg/serve/protocol.hpp"
#include "micg/serve/store.hpp"
#include "micg/support/assert.hpp"

namespace micg::serve {

/// Raised for names the server does not know (graph, op); mapped to the
/// `not_found` status instead of the generic `bad_request` that plain
/// micg::check_error becomes.
class not_found_error : public micg::check_error {
 public:
  using micg::check_error::check_error;
};

struct service_options {
  int max_inflight = 8;        ///< concurrently executing requests
  int max_waiting = 32;        ///< queued beyond that -> overloaded
  int threads_per_query = 4;   ///< per-request parallelism cap
  std::size_t max_frame_bytes = default_max_frame;
  std::int64_t default_deadline_ms = 0;  ///< queue-wait cap; 0 = unbounded
  /// Auto-compact a graph once this many net mutations are buffered
  /// (the mutating request pays for the rebuild); 0 = manual compaction
  /// via the `compact` op only.
  std::int64_t compact_every = 0;
  /// Formation window for coalescing concurrent `bfs` requests into one
  /// MSBFS batch (serve/coalesce.hpp); 0 = coalescing off, every bfs
  /// request runs its own traversal.
  std::int64_t coalesce_window_ms = 0;
  /// Lanes per coalesced batch, [1, 64].
  int coalesce_lanes = 64;
  /// Pivots of the per-graph landmark index answering `approx_dist`,
  /// [1, 64]. Indexes are built lazily on first use, keyed by snapshot
  /// epoch, and refreshed when a compaction bumps the epoch.
  int landmark_count = 16;
};

class service {
 public:
  /// `store` and `rec` (optional metrics sink) must outlive the service.
  service(graph_store& store, service_options opt,
          obs::recorder* rec = nullptr);
  ~service();

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  /// Handle one well-framed request line; returns the response line
  /// (no trailing newline). Never throws on client input.
  std::string handle_line(const std::string& line);

  /// Run one session: frame requests from `in`, write responses to
  /// `out`. Returns when the peer disconnects, the stream faults, or a
  /// poisoned frame (too_large / io_error) forces a close.
  void serve_session(std::istream& in, std::ostream& out);

  /// Stop admitting work (new requests get `shutting_down`) and wake
  /// every queued waiter. In-flight requests keep running.
  void begin_shutdown();
  [[nodiscard]] bool shutting_down() const;

  /// Block until no request is executing or queued (call after
  /// begin_shutdown() to drain).
  void drain();

  /// True once some request asked for server shutdown (`shutdown` op);
  /// the transport layer polls this to leave its accept loop.
  [[nodiscard]] bool shutdown_requested() const;

  [[nodiscard]] const service_options& options() const { return opt_; }

 private:
  /// RAII admission slot; index < 0 means not admitted.
  struct admit_result {
    api::status st = api::status::ok;
    int slot = -1;
    double wait_seconds = 0.0;
  };
  admit_result admit(std::int64_t deadline_ms);
  void release(int slot);

  api::json execute(const request_envelope& req, rt::thread_pool* pool);
  std::string handle(const request_envelope& req);

  /// Leader-side body of one sealed coalesced batch: one admission slot,
  /// one pinned snapshot, one msbfs, per-member demux.
  void run_coalesced_batch(const std::string& graph,
                           std::vector<coalesce_member>& members);

  /// The landmark index of `name` at the pin's epoch (build or rebuild
  /// when missing/stale). `refresh_landmarks` rebuilds after a compaction
  /// but only if an index already exists (no spontaneous builds).
  std::shared_ptr<const bfs::landmark_index> landmark_for(
      const std::string& name, const versioned_graph::pin& pin,
      rt::thread_pool* pool);
  void refresh_landmarks(const std::string& name, versioned_graph& vg,
                         rt::thread_pool* pool);

  graph_store& store_;
  const service_options opt_;
  obs::recorder* rec_;
  std::unique_ptr<coalescer> coalescer_;  ///< null when coalescing is off

  /// Epoch-keyed landmark cache: one immutable index per graph, valid
  /// for exactly the epoch it was built against.
  struct landmark_entry {
    std::int64_t epoch = -1;
    std::shared_ptr<const bfs::landmark_index> idx;
  };
  std::mutex lmu_;
  std::map<std::string, landmark_entry> landmarks_;

  mutable std::mutex amu_;
  std::condition_variable acv_;
  int inflight_ = 0;
  int waiting_ = 0;
  bool shutting_down_ = false;
  bool shutdown_requested_ = false;
  std::vector<int> free_slots_;
  /// One pool per admission slot, created on first use (slot workers
  /// spawn lazily inside thread_pool).
  std::vector<std::unique_ptr<rt::thread_pool>> pools_;
};

}  // namespace micg::serve
