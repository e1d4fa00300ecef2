#include "micg/serve/server.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "micg/support/assert.hpp"

namespace micg::serve {

server::server(graph_store& store, server_options opt, obs::recorder* rec)
    : store_(store),
      opt_(std::move(opt)),
      ep_(parse_endpoint(opt_.listen)),
      svc_(store_, opt_.svc, rec) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  cpu_sessions_.assign(cpus_.size(), 0);
}

server::~server() {
  request_shutdown();
  // run() owns the joins; if it never ran (bind failed, or the caller
  // tore down early), close what we hold.
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

void server::bind_and_listen() {
  MICG_CHECK(listen_fd_.load() < 0, "server is already listening");
  listen_fd_.store(listen_on(ep_, opt_.backlog));
}

void server::request_shutdown() {
  const int fd = listen_fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

int server::take_cpu_slot() {
  if (cpus_.empty()) return -1;
  const auto it = std::min_element(cpu_sessions_.begin(), cpu_sessions_.end());
  ++*it;
  return static_cast<int>(it - cpu_sessions_.begin());
}

void server::session_main(int fd, int cpu_slot) {
  if (cpu_slot >= 0) {
    // Best effort: a failed pin leaves the thread where the kernel puts it.
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[static_cast<std::size_t>(cpu_slot)], &set);
    (void)::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
  }
  socket_stream stream(fd);
  svc_.serve_session(stream, stream);
  {
    const std::lock_guard<std::mutex> lock(smu_);
    session_fds_.erase(fd);
    if (cpu_slot >= 0) --cpu_sessions_[static_cast<std::size_t>(cpu_slot)];
  }
  // A session that carried the `shutdown` op pops the accept loop.
  if (svc_.shutdown_requested()) request_shutdown();
}

void server::run() {
  const int lfd = listen_fd_.load();
  MICG_CHECK(lfd >= 0, "run() before bind_and_listen()");
  while (true) {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR && !svc_.shutdown_requested()) continue;
      break;  // listener was shut down (or died) — begin teardown
    }
    if (svc_.shutting_down()) {
      ::close(cfd);
      continue;
    }
    int cpu_slot = -1;
    {
      // Register the fd before the thread exists so a concurrent
      // teardown can always unblock this session's reads.
      const std::lock_guard<std::mutex> lock(smu_);
      session_fds_.insert(cfd);
      cpu_slot = take_cpu_slot();
    }
    threads_.emplace_back(
        [this, cfd, cpu_slot] { session_main(cfd, cpu_slot); });
  }

  svc_.begin_shutdown();
  {
    const std::lock_guard<std::mutex> lock(smu_);
    for (const int fd : session_fds_) ::shutdown(fd, SHUT_RD);
  }
  for (auto& th : threads_) th.join();
  threads_.clear();
  svc_.drain();

  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
  if (ep_.is_unix) ::unlink(ep_.path.c_str());
}

}  // namespace micg::serve
