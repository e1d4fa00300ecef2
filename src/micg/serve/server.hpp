// The socket front end of `micg serve`: accept loop, one session thread
// per connection, graceful teardown.
//
// Shutdown protocol (docs/serving.md):
//  1. request_shutdown() — from a signal handler or the `shutdown` op —
//     half-closes the listening socket, which pops the accept loop;
//  2. the service stops admitting (`shutting_down` responses) while
//     in-flight requests keep running;
//  3. idle sessions are read-shutdown so their blocking reads return EOF;
//     a session mid-request finishes it, writes the response, then sees
//     EOF on its next read;
//  4. run() joins every session thread and drains the admission gate
//     before returning — no query is abandoned mid-flight.
//
// Session placement: each session thread is pinned to the allowed CPU
// that holds the fewest live sessions. A session blocks on its socket
// between requests and is woken by its client's write; left to the
// kernel, those wake-ups can stack several sessions on one core while
// others idle, and concurrent single-thread queries then time-share it.
// Helpers of multi-thread requests (the slot pools) stay unpinned.
#pragma once

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "micg/obs/obs.hpp"
#include "micg/serve/net.hpp"
#include "micg/serve/service.hpp"
#include "micg/serve/store.hpp"

namespace micg::serve {

struct server_options {
  std::string listen;  ///< address spec (see net.hpp grammar)
  int backlog = 64;
  service_options svc;
};

class server {
 public:
  /// `store` and `rec` must outlive the server.
  server(graph_store& store, server_options opt, obs::recorder* rec = nullptr);
  ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Bind + listen (throws micg::check_error on failure). After this the
  /// endpoint is accepting; run() starts serving it.
  void bind_and_listen();

  /// Serve until shutdown; returns with every session joined and the
  /// admission gate drained.
  void run();

  /// Initiate graceful shutdown. Async-signal-safe: one ::shutdown(2)
  /// call on the listening fd.
  void request_shutdown();

  [[nodiscard]] const endpoint& where() const { return ep_; }
  [[nodiscard]] service& svc() { return svc_; }

 private:
  void session_main(int fd, int cpu_slot);

  /// Index into cpus_ of the least-loaded CPU, counted as taken; -1 when
  /// the allowed set is unknown. Caller holds smu_.
  int take_cpu_slot();

  graph_store& store_;
  server_options opt_;
  endpoint ep_;
  service svc_;
  std::atomic<int> listen_fd_{-1};

  std::mutex smu_;
  std::set<int> session_fds_;
  std::vector<std::thread> threads_;
  /// CPUs this process may run on, and the live sessions pinned to each.
  std::vector<int> cpus_;
  std::vector<int> cpu_sessions_;
};

}  // namespace micg::serve
