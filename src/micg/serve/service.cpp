#include "micg/serve/service.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <istream>
#include <ostream>
#include <thread>
#include <utility>

#include "micg/support/assert.hpp"
#include "micg/support/timer.hpp"

namespace micg::serve {

namespace {

/// Parse the {"edges": [[u,v], ...]} payload of insert/erase.
std::vector<std::pair<std::int64_t, std::int64_t>> parse_edges(
    const api::json& params) {
  MICG_CHECK(params.is_object(), "insert/erase need an {\"edges\": ...} param");
  const api::json& edges = params.at("edges");
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  out.reserve(edges.as_array().size());
  for (const api::json& e : edges.as_array()) {
    MICG_CHECK(e.is_array() && e.as_array().size() == 2,
               "each edge must be a [u, v] pair");
    out.emplace_back(e.as_array()[0].as_int(), e.as_array()[1].as_int());
  }
  MICG_CHECK(!out.empty(), "edges must be non-empty");
  return out;
}

/// Wire status of an exception escaping a request: unknown names are
/// not_found, invalid input bad_request, anything else internal.
api::status status_of(const std::exception& e) {
  if (dynamic_cast<const not_found_error*>(&e) != nullptr) {
    return api::status::not_found;
  }
  if (dynamic_cast<const micg::check_error*>(&e) != nullptr) {
    return api::status::bad_request;
  }
  return api::status::internal;
}

/// Counts a failed admission against `n` requests and returns the error
/// message their responses carry.
const char* admission_refusal(obs::recorder* rec, api::status st,
                              std::uint64_t n) {
  if (rec != nullptr && st == api::status::overloaded) {
    rec->get_counter("serve.shed").add(0, n);
  }
  if (rec != nullptr && st == api::status::deadline_exceeded) {
    rec->get_counter("serve.deadline_expired").add(0, n);
  }
  return st == api::status::overloaded ? "admission queue full, retry later"
         : st == api::status::deadline_exceeded
             ? "request waited past its deadline"
             : "server is shutting down";
}

/// A slot pool whose helpers may run on every CPU the process may use.
/// Threads inherit their creator's CPU mask, and the creator here is a
/// session thread, which the server pins to one CPU (server.hpp): helpers
/// stacked on that CPU would run the pool's regions one worker at a time.
std::unique_ptr<rt::thread_pool> make_slot_pool(int threads) {
  cpu_set_t own;
  cpu_set_t process;
  const bool widen =
      ::pthread_getaffinity_np(::pthread_self(), sizeof(own), &own) == 0 &&
      ::sched_getaffinity(::getpid(), sizeof(process), &process) == 0 &&
      !CPU_EQUAL(&own, &process);
  if (widen) {
    (void)::pthread_setaffinity_np(::pthread_self(), sizeof(process),
                                   &process);
  }
  auto pool = std::make_unique<rt::thread_pool>(threads);
  if (widen) {
    (void)::pthread_setaffinity_np(::pthread_self(), sizeof(own), &own);
  }
  return pool;
}

}  // namespace

service::service(graph_store& store, service_options opt, obs::recorder* rec)
    : store_(store), opt_(opt), rec_(rec) {
  MICG_CHECK(opt_.max_inflight >= 1, "max_inflight must be >= 1");
  MICG_CHECK(opt_.max_waiting >= 0, "max_waiting must be >= 0");
  MICG_CHECK(opt_.threads_per_query >= 1, "threads_per_query must be >= 1");
  MICG_CHECK(opt_.max_frame_bytes >= 64, "max_frame_bytes must be >= 64");
  MICG_CHECK(opt_.default_deadline_ms >= 0,
             "default_deadline_ms must be >= 0");
  MICG_CHECK(opt_.compact_every >= 0, "compact_every must be >= 0");
  MICG_CHECK(opt_.coalesce_window_ms >= 0,
             "coalesce_window_ms must be >= 0");
  MICG_CHECK(opt_.coalesce_lanes >= 1 &&
                 opt_.coalesce_lanes <= bfs::msbfs_max_lanes,
             "coalesce_lanes must be in [1, 64]");
  MICG_CHECK(opt_.landmark_count >= 1 &&
                 opt_.landmark_count <= bfs::landmark_max_count,
             "landmark_count must be in [1, 64]");
  pools_.resize(static_cast<std::size_t>(opt_.max_inflight));
  free_slots_.reserve(static_cast<std::size_t>(opt_.max_inflight));
  for (int i = opt_.max_inflight - 1; i >= 0; --i) free_slots_.push_back(i);
  if (opt_.coalesce_window_ms > 0) {
    coalesce_options co;
    co.window_ms = opt_.coalesce_window_ms;
    co.max_lanes = opt_.coalesce_lanes;
    coalescer_ = std::make_unique<coalescer>(
        co, [this](const std::string& graph,
                   std::vector<coalesce_member>& members) {
          run_coalesced_batch(graph, members);
        });
  }
}

service::~service() {
  begin_shutdown();
  drain();
}

service::admit_result service::admit(std::int64_t deadline_ms) {
  // Negative deadlines are rejected at parse time (protocol.cpp) and
  // again by handle(); admit() must never quietly fold them into the
  // default budget, so in-process misuse fails loudly here instead.
  MICG_CHECK(deadline_ms >= 0, "deadline_ms must be >= 0");
  micg::stopwatch sw;
  std::unique_lock<std::mutex> lock(amu_);
  if (shutting_down_) return {api::status::shutting_down, -1, 0.0};
  const auto can_run = [&] { return inflight_ < opt_.max_inflight; };
  if (!can_run()) {
    if (waiting_ >= opt_.max_waiting) {
      return {api::status::overloaded, -1, 0.0};
    }
    ++waiting_;
    const std::int64_t budget =
        deadline_ms > 0 ? deadline_ms : opt_.default_deadline_ms;
    bool ready = true;
    if (budget > 0) {
      ready = acv_.wait_for(lock, std::chrono::milliseconds(budget),
                            [&] { return shutting_down_ || can_run(); });
    } else {
      acv_.wait(lock, [&] { return shutting_down_ || can_run(); });
    }
    --waiting_;
    acv_.notify_all();  // a drain() may be waiting on `waiting_` to drop
    if (shutting_down_) {
      return {api::status::shutting_down, -1, sw.seconds()};
    }
    if (!ready || !can_run()) {
      return {api::status::deadline_exceeded, -1, sw.seconds()};
    }
  }
  ++inflight_;
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  auto& pool = pools_[static_cast<std::size_t>(slot)];
  if (pool == nullptr && opt_.threads_per_query > 1) {
    pool = make_slot_pool(opt_.threads_per_query);
  }
  return {api::status::ok, slot, sw.seconds()};
}

void service::release(int slot) {
  const std::lock_guard<std::mutex> lock(amu_);
  free_slots_.push_back(slot);
  --inflight_;
  acv_.notify_all();
}

void service::begin_shutdown() {
  const std::lock_guard<std::mutex> lock(amu_);
  shutting_down_ = true;
  acv_.notify_all();
}

bool service::shutting_down() const {
  const std::lock_guard<std::mutex> lock(amu_);
  return shutting_down_;
}

bool service::shutdown_requested() const {
  const std::lock_guard<std::mutex> lock(amu_);
  return shutdown_requested_;
}

void service::drain() {
  std::unique_lock<std::mutex> lock(amu_);
  acv_.wait(lock, [&] { return inflight_ == 0 && waiting_ == 0; });
}

api::json service::execute(const request_envelope& req,
                           rt::thread_pool* pool) {
  if (req.op == "sleep") {
    // Diagnostic: occupy an admission slot for a bounded time. This is
    // how the admission tests (and operators probing shedding behavior)
    // create load with a known shape.
    std::int64_t ms = 0;
    if (const api::json* f = req.params.find("ms")) ms = f->as_int();
    MICG_CHECK(ms >= 0 && ms <= 60000, "sleep ms must be in [0, 60000]");
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return api::json(api::json_object{{"slept_ms", api::json(ms)}});
  }

  MICG_CHECK(!req.graph.empty(), "op '" + req.op + "' needs a graph name");
  const std::shared_ptr<versioned_graph> vg = store_.find(req.graph);
  if (vg == nullptr) {
    throw not_found_error("unknown graph: " + req.graph);
  }

  if (req.op == "approx_dist") {
    const auto dreq = api::from_json<api::dist_request>(req.params);
    const versioned_graph::pin pin = vg->snapshot();
    const std::int64_t n = pin.graph->num_vertices();
    MICG_CHECK(n > 0, "approx_dist on an empty graph");
    const std::int64_t source = dreq.source < 0 ? n / 2 : dreq.source;
    MICG_CHECK(source < n, "source vertex out of range");
    MICG_CHECK(dreq.target >= 0 && dreq.target < n,
               "target vertex out of range");

    api::dist_response r;
    r.source = source;
    r.target = dreq.target;
    const auto idx = landmark_for(req.graph, pin, pool);
    r.landmarks = idx->count();
    const bfs::landmark_estimate est = idx->estimate(source, dreq.target);
    if (est.exact) {
      // The index is definitive: same vertex, provably disjoint
      // components, or bounds that met. Exact even when exact=true.
      r.distance = est.disjoint ? -1 : est.upper;
      if (rec_ != nullptr) rec_->get_counter("serve.landmark.hits").inc(0);
    } else if (!dreq.exact && est.upper >= 0) {
      r.distance = est.upper;
      r.approximate = true;
      r.lower = est.lower;
      r.upper = est.upper;
      if (rec_ != nullptr) rec_->get_counter("serve.landmark.hits").inc(0);
    } else {
      // Exact demanded, or no pivot reaches both endpoints: one real
      // traversal on the same pinned snapshot.
      api::bfs_request breq;
      breq.source = source;
      breq.targets = {dreq.target};
      api::run_context ctx;
      ctx.pool = pool;
      ctx.max_threads = opt_.threads_per_query;
      ctx.rec = rec_;
      ctx.snapshot_epoch = pin.epoch;
      r.distance = api::run(*pin.graph, breq, ctx).target_levels.front();
      if (rec_ != nullptr) {
        rec_->get_counter("serve.landmark.fallbacks").inc(0);
      }
    }
    return api::json(api::json_object{{"epoch", api::json(pin.epoch)},
                                      {"result", api::to_json(r)}});
  }

  if (api::is_query_op(req.op)) {
    const versioned_graph::pin pin = vg->snapshot();
    api::run_context ctx;
    ctx.pool = pool;
    ctx.max_threads = opt_.threads_per_query;
    ctx.rec = rec_;
    ctx.snapshot_epoch = pin.epoch;
    api::json result =
        api::dispatch_query(*pin.graph, req.op, req.params, ctx);
    return api::json(api::json_object{{"epoch", api::json(pin.epoch)},
                                      {"result", std::move(result)}});
  }

  if (req.op == "insert" || req.op == "erase") {
    const auto edges = parse_edges(req.params);
    for (const auto& [u, v] : edges) {
      if (req.op == "insert") {
        vg->insert(u, v);
      } else {
        vg->erase(u, v);
      }
    }
    bool compacted = false;
    if (opt_.compact_every > 0 &&
        vg->pending_ops() >= static_cast<std::size_t>(opt_.compact_every)) {
      vg->compact();
      refresh_landmarks(req.graph, *vg, pool);
      compacted = true;
    }
    return api::json(api::json_object{
        {"epoch", api::json(vg->epoch())},
        {"result",
         api::json(api::json_object{
             {"buffered", api::json(static_cast<std::int64_t>(edges.size()))},
             {"pending",
              api::json(static_cast<std::int64_t>(vg->pending_ops()))},
             {"compacted", api::json(compacted)}})}});
  }

  if (req.op == "compact") {
    const std::int64_t epoch = vg->compact();
    refresh_landmarks(req.graph, *vg, pool);
    const versioned_graph::pin pin = vg->snapshot();
    return api::json(api::json_object{
        {"epoch", api::json(epoch)},
        {"result",
         api::json(api::json_object{
             {"layout",
              api::json(graph::layout_name(pin.graph->layout()))},
             {"num_vertices", api::json(pin.graph->num_vertices())},
             {"num_edges", api::json(pin.graph->num_edges())},
             {"pending",
              api::json(static_cast<std::int64_t>(vg->pending_ops()))}})}});
  }

  throw not_found_error("unknown op: " + req.op);
}

std::shared_ptr<const bfs::landmark_index> service::landmark_for(
    const std::string& name, const versioned_graph::pin& pin,
    rt::thread_pool* pool) {
  {
    const std::lock_guard<std::mutex> lock(lmu_);
    const auto it = landmarks_.find(name);
    if (it != landmarks_.end() && it->second.epoch == pin.epoch) {
      return it->second.idx;
    }
  }
  // Build outside the lock: the precompute is an msbfs-sized edge sweep
  // and must not block other graphs' cache lookups. Racing builders do
  // redundant work but produce identical indexes (the pivot rule is
  // deterministic), and every lookup re-checks the epoch key, so a
  // last-writer-wins insert can never serve a stale answer.
  bfs::landmark_options lo;
  lo.count = opt_.landmark_count;
  lo.ex.threads = opt_.threads_per_query;
  lo.ex.pool = pool;
  lo.ex.rec = rec_;
  auto idx = std::make_shared<const bfs::landmark_index>(
      bfs::build_landmarks(*pin.graph, lo));
  {
    const std::lock_guard<std::mutex> lock(lmu_);
    landmarks_[name] = {pin.epoch, idx};
  }
  if (rec_ != nullptr) rec_->get_counter("serve.landmark.builds").inc(0);
  return idx;
}

void service::refresh_landmarks(const std::string& name, versioned_graph& vg,
                                rt::thread_pool* pool) {
  {
    const std::lock_guard<std::mutex> lock(lmu_);
    if (landmarks_.find(name) == landmarks_.end()) return;  // stay lazy
  }
  // An index exists, so someone is querying this graph: rebuild against
  // the post-compaction snapshot now (the mutating request pays, like
  // the compaction itself) instead of on the next approx_dist.
  landmark_for(name, vg.snapshot(), pool);
}

void service::run_coalesced_batch(const std::string& graph,
                                  std::vector<coalesce_member>& members) {
  if (rec_ != nullptr) {
    rec_->get_counter("serve.requests")
        .add(0, static_cast<std::uint64_t>(members.size()));
    rec_->get_counter("serve.coalesce.batches").inc(0);
    rec_->get_counter("serve.coalesce.requests")
        .add(0, static_cast<std::uint64_t>(members.size()));
  }

  // One admission slot for the whole batch (the leader's deadline is the
  // batch's); a leader-side admission failure is every member's failure.
  const admit_result adm = admit(members.front().deadline_ms);
  if (adm.st != api::status::ok) {
    const char* msg = admission_refusal(
        rec_, adm.st, static_cast<std::uint64_t>(members.size()));
    for (auto& m : members) m.response = error_response(m.id, adm.st, msg);
    return;
  }

  rt::thread_pool* pool = pools_[static_cast<std::size_t>(adm.slot)].get();
  {
    // One span per batch (not per member): the unit of serving work here
    // is the shared traversal.
    obs::span span;
    if (rec_ != nullptr) {
      span = rec_->start_span("serve.coalesce/" + graph);
      span.value("members", static_cast<double>(members.size()));
      span.value("wait_ms", adm.wait_seconds * 1e3);
    }
    try {
      const std::shared_ptr<versioned_graph> vg = store_.find(graph);
      if (vg == nullptr) {
        throw not_found_error("unknown graph: " + graph);
      }
      const versioned_graph::pin pin = vg->snapshot();
      const std::int64_t n = pin.graph->num_vertices();
      MICG_CHECK(n > 0, "bfs on an empty graph");

      // Resolve sources against the pinned snapshot; duplicates share a
      // lane. A member with a bad source gets its own bad_request and is
      // excluded instead of poisoning the whole batch.
      std::vector<std::int64_t> lane_sources;
      std::map<std::int64_t, int> lane_of;
      std::vector<int> member_lane(members.size(), -1);
      for (std::size_t i = 0; i < members.size(); ++i) {
        const std::int64_t raw = members[i].req.source;
        const std::int64_t s = raw < 0 ? n / 2 : raw;
        if (s >= n) {
          members[i].response =
              error_response(members[i].id, api::status::bad_request,
                             "source vertex out of range");
          continue;
        }
        const auto [it, fresh] =
            lane_of.try_emplace(s, static_cast<int>(lane_sources.size()));
        if (fresh) lane_sources.push_back(s);
        member_lane[i] = it->second;
      }

      bfs::msbfs_result res;
      if (!lane_sources.empty()) {
        bfs::msbfs_options mo;
        mo.ex.threads = opt_.threads_per_query;
        mo.ex.pool = pool;
        mo.ex.rec = rec_;
        res = pin.graph->visit([&](const auto& cg) {
          using VId = typename std::decay_t<decltype(cg)>::vertex_type;
          std::vector<VId> srcs;
          srcs.reserve(lane_sources.size());
          for (const std::int64_t s : lane_sources) {
            srcs.push_back(static_cast<VId>(s));
          }
          return bfs::msbfs(cg, std::span<const VId>(srcs), mo);
        });
      }
      span.value("lanes", static_cast<double>(lane_sources.size()));
      span.value("epoch", static_cast<double>(pin.epoch));

      // Demux: each member reads its lane. Levels are bit-identical to a
      // per-request seq_bfs (the MSBFS invariant), so the response only
      // differs from the uncoalesced path in its variant string.
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (member_lane[i] < 0) continue;  // already answered above
        const int lane = member_lane[i];
        api::bfs_response r;
        r.variant = "MSBFS-coalesced";
        r.source = lane_sources[static_cast<std::size_t>(lane)];
        r.num_levels = res.num_levels[static_cast<std::size_t>(lane)];
        r.reached =
            static_cast<std::int64_t>(res.reached[static_cast<std::size_t>(
                lane)]);
        r.num_vertices = n;
        const auto lv = res.lane_levels(lane);
        bool bad_target = false;
        for (const std::int64_t t : members[i].req.targets) {
          if (t < 0 || t >= n) {
            bad_target = true;
            break;
          }
          r.target_levels.push_back(lv[static_cast<std::size_t>(t)]);
        }
        if (bad_target) {
          members[i].response =
              error_response(members[i].id, api::status::bad_request,
                             "target vertex out of range");
          continue;
        }
        members[i].response =
            ok_response(members[i].id, api::to_json(r), pin.epoch);
      }
    } catch (const std::exception& e) {
      span.value("error", 1.0);
      for (auto& m : members) {
        if (m.response.empty()) {
          m.response = error_response(m.id, status_of(e), e.what());
        }
      }
    }
  }
  release(adm.slot);
}

std::string service::handle(const request_envelope& req) {
  if (req.op == "ping") {
    return ok_response(req.id, api::json(api::json_object{}));
  }
  if (req.op == "list") {
    api::json_array graphs;
    for (const auto& name : store_.names()) {
      const auto vg = store_.find(name);
      if (vg == nullptr) continue;
      const versioned_graph::pin pin = vg->snapshot();
      graphs.emplace_back(api::json_object{
          {"name", api::json(name)},
          {"epoch", api::json(pin.epoch)},
          {"layout", api::json(graph::layout_name(pin.graph->layout()))},
          {"num_vertices", api::json(pin.graph->num_vertices())},
          {"num_edges", api::json(pin.graph->num_edges())},
          {"pending",
           api::json(static_cast<std::int64_t>(vg->pending_ops()))}});
    }
    return ok_response(
        req.id,
        api::json(api::json_object{{"graphs", api::json(std::move(graphs))}}));
  }
  if (req.op == "shutdown") {
    {
      const std::lock_guard<std::mutex> lock(amu_);
      shutdown_requested_ = true;
      shutting_down_ = true;
      acv_.notify_all();
    }
    return ok_response(req.id, api::json(api::json_object{}));
  }

  // Belt-and-suspenders for the parse-time rejection: an envelope built
  // in-process could still carry a negative deadline, and admit() would
  // refuse it with a throw this path cannot turn into a response.
  if (req.deadline_ms < 0) {
    return error_response(req.id, api::status::bad_request,
                          "deadline_ms must be >= 0");
  }

  if (coalescer_ != nullptr && req.op == "bfs") {
    // Coalesced path: parse before joining a batch so a malformed
    // request fails fast without holding a lane, then hand the request
    // to the batch former (admission happens once per batch, inside
    // run_coalesced_batch).
    if (req.graph.empty()) {
      return error_response(req.id, api::status::bad_request,
                            "op 'bfs' needs a graph name");
    }
    try {
      auto breq = api::from_json<api::bfs_request>(req.params);
      // The batch runs on the service's own exec settings, but a request
      // whose exec fields the uncoalesced path refuses (removed shards or
      // tune modes, bad ranges) is refused here too.
      (void)api::resolve_exec(breq.ex, {});
      return coalescer_->submit(req.graph, std::move(breq), req.id,
                                req.deadline_ms);
    } catch (const std::exception& e) {
      return error_response(req.id, status_of(e), e.what());
    }
  }

  const admit_result adm = admit(req.deadline_ms);
  if (rec_ != nullptr) rec_->get_counter("serve.requests").inc(0);
  if (adm.st != api::status::ok) {
    return error_response(req.id, adm.st, admission_refusal(rec_, adm.st, 1));
  }

  rt::thread_pool* pool =
      pools_[static_cast<std::size_t>(adm.slot)].get();
  std::string response;
  {
    // Per-request span: name carries kernel + graph, values carry the
    // epoch served and the admission wait — the shape docs/serving.md
    // documents for the micg.metrics.v1 stream of a serving process.
    obs::span span;
    if (rec_ != nullptr) {
      span = rec_->start_span(
          "serve." + req.op + (req.graph.empty() ? "" : "/" + req.graph));
      span.value("wait_ms", adm.wait_seconds * 1e3);
    }
    try {
      api::json wrapped = execute(req, pool);
      // execute() returns {"epoch": ..., "result": ...} for graph ops and
      // a bare result object for graph-free ops (sleep).
      std::int64_t epoch = -1;
      api::json result;
      if (const api::json* e = wrapped.find("epoch")) {
        epoch = e->as_int();
        result = wrapped.at("result");
      } else {
        result = std::move(wrapped);
      }
      if (rec_ != nullptr && epoch >= 0) {
        span.value("epoch", static_cast<double>(epoch));
      }
      response = ok_response(req.id, std::move(result), epoch);
    } catch (const std::exception& e) {
      span.value("error", 1.0);
      response = error_response(req.id, status_of(e), e.what());
    }
  }
  release(adm.slot);
  return response;
}

std::string service::handle_line(const std::string& line) {
  request_envelope req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    return error_response("", status_of(e), e.what());
  }
  return handle(req);
}

void service::serve_session(std::istream& in, std::ostream& out) {
  std::string line;
  while (true) {
    const frame_status fs = read_frame(in, line, opt_.max_frame_bytes);
    if (fs == frame_status::eof || fs == frame_status::io_error) return;
    if (fs == frame_status::too_large) {
      // The stream is mid-line; framing is lost, so answer once and close.
      out << error_response("", api::status::too_large,
                            "request line exceeds the frame size limit")
          << "\n";
      out.flush();
      return;
    }
    if (line.empty()) continue;  // blank lines are interactive noise
    out << handle_line(line) << "\n";
    out.flush();
    if (!out.good()) return;  // peer went away mid-response
    if (shutdown_requested()) return;  // let the transport tear down
  }
}

}  // namespace micg::serve
