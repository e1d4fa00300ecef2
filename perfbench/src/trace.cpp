#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <ostream>
#include <unordered_map>

#include "micg/api/json.hpp"

namespace perfbench::trace {

namespace {

std::atomic<tracer*> g_tracer{nullptr};
thread_local std::vector<std::int64_t> t_open;  // innermost scope last

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

tracer::tracer() : origin_(steady_seconds()) {}

void tracer::install(tracer* t) { g_tracer.store(t); }
tracer* tracer::active() { return g_tracer.load(std::memory_order_relaxed); }

double tracer::now() const { return steady_seconds() - origin_; }

std::int64_t tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void tracer::record(span_record r) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(r));
}

std::vector<span_record> tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

scope::scope(std::string name, std::int64_t request, std::int64_t parent)
    : t_(tracer::active()) {
  if (t_ == nullptr) {
    rec_.id = -1;
    return;
  }
  rec_.id = t_->next_id();
  rec_.parent = parent != -2 ? parent : (t_open.empty() ? -1 : t_open.back());
  rec_.name = std::move(name);
  rec_.request = request;
  t_open.push_back(rec_.id);
  rec_.start_s = t_->now();
}

scope::~scope() {
  if (t_ == nullptr) return;
  rec_.end_s = t_->now();
  t_open.pop_back();
  t_->record(std::move(rec_));
}

double covered_length(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_a = 0.0;
  double cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

std::vector<self_row> self_time_table(const std::vector<span_record>& spans) {
  std::unordered_map<std::int64_t, std::vector<std::pair<double, double>>>
      children;
  for (const auto& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::string, self_row> by_name;
  for (const auto& s : spans) {
    const double dur = s.end_s - s.start_s;
    const auto it = children.find(s.id);
    const double kids = it == children.end()
                            ? 0.0
                            : covered_length(it->second, s.start_s, s.end_s);
    self_row& row = by_name[s.name];
    row.name = s.name;
    row.count += 1;
    row.total_ms += dur * 1e3;
    row.self_ms += (dur - kids) * 1e3;
  }
  std::vector<self_row> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(), [](const self_row& a, const self_row& b) {
    return a.self_ms > b.self_ms;
  });
  return rows;
}

void write_spans_jsonl(std::ostream& out,
                       const std::vector<span_record>& spans) {
  using micg::api::json;
  using micg::api::json_object;
  for (const auto& s : spans) {
    out << json(json_object{{"id", json(s.id)},
                            {"parent", json(s.parent)},
                            {"name", json(s.name)},
                            {"request", json(s.request)},
                            {"start_ms", json(s.start_s * 1e3)},
                            {"end_ms", json(s.end_s * 1e3)}})
               .dump()
        << '\n';
  }
}

void write_self_time(std::ostream& out, const std::vector<self_row>& rows) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-36s %8s %12s %12s %7s\n", "span", "count",
                "total_ms", "self_ms", "self%");
  out << buf;
  double all_self = 0.0;
  for (const auto& r : rows) all_self += r.self_ms;
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof buf, "%-36s %8lld %12.3f %12.3f %6.1f%%\n",
                  r.name.c_str(), static_cast<long long>(r.count), r.total_ms,
                  r.self_ms, all_self > 0 ? 100.0 * r.self_ms / all_self : 0.0);
    out << buf;
  }
}

}  // namespace perfbench::trace
