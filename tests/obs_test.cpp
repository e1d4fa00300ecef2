// Unit tests for the obs subsystem: counter merging under the thread
// pool, span nesting, snapshot shape, and the JSON round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "micg/api/json.hpp"
#include "micg/obs/emit.hpp"
#include "micg/obs/obs.hpp"
#include "micg/rt/thread_pool.hpp"
#include "micg/support/assert.hpp"

namespace {

std::uint64_t counter_value(const micg::obs::snapshot& s,
                            const std::string& name) {
  for (const auto& [k, v] : s.counters) {
    if (k == name) return v;
  }
  ADD_FAILURE() << "counter not found: " << name;
  return 0;
}

// ------------------------------------------------------------- counters

TEST(ObsCounter, MergesPerWorkerSlots) {
  micg::obs::counter c("test");
  for (int w = 0; w < 200; ++w) c.add(w, static_cast<std::uint64_t>(w));
  std::uint64_t expect = 0;
  for (int w = 0; w < 200; ++w) expect += static_cast<std::uint64_t>(w);
  EXPECT_EQ(c.total(), expect);
  c.inc(-1);  // negative ids fold to slot 0 instead of invoking UB
  EXPECT_EQ(c.total(), expect + 1);
}

TEST(ObsCounter, IncIsExactlyAddOne) {
  // add(w, v) used to default v to 1, so `add(w)` — meaning "count one
  // event" — read as "add w". inc(w) is the unambiguous spelling; add()
  // now always takes an explicit amount.
  micg::obs::counter c("test");
  c.inc(3);
  EXPECT_EQ(c.total(), 1u);  // one event, regardless of the worker id
  c.add(3, 41);
  EXPECT_EQ(c.total(), 42u);
}

class ObsCounterUnderPool : public ::testing::TestWithParam<int> {};

TEST_P(ObsCounterUnderPool, ExactTotalAcrossWorkers) {
  const int workers = GetParam();
  auto& pool = micg::rt::thread_pool::global();
  pool.reserve(workers);

  micg::obs::recorder rec;
  micg::obs::counter& c = rec.get_counter("pool.items");
  constexpr std::uint64_t kPerWorker = 10000;
  pool.run(workers, [&](int w) {
    for (std::uint64_t i = 0; i < kPerWorker; ++i) c.inc(w);
  });
  EXPECT_EQ(c.total(), kPerWorker * static_cast<std::uint64_t>(workers));
  EXPECT_EQ(counter_value(rec.take(), "pool.items"),
            kPerWorker * static_cast<std::uint64_t>(workers));
}

INSTANTIATE_TEST_SUITE_P(Widths, ObsCounterUnderPool,
                         ::testing::Values(1, 4, 16));

TEST(ObsTimer, AccumulatesSeconds) {
  micg::obs::phase_timer t("test");
  t.add_seconds(0, 0.5);
  t.add_seconds(3, 0.25);
  EXPECT_NEAR(t.total_seconds(), 0.75, 1e-9);
}

// ---------------------------------------------------------------- spans

TEST(ObsSpan, RecordsNestingDepthAndValues) {
  micg::obs::recorder rec;
  {
    micg::obs::span outer = rec.start_span("outer", 7);
    outer.value("width", 3.0);
    {
      micg::obs::span inner = rec.start_span("inner");
      inner.value("k", 1.0);
    }  // inner finishes first
  }
  const auto snap = rec.take();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans[0].name, "inner");
  EXPECT_EQ(snap.spans[0].index, -1);
  EXPECT_EQ(snap.spans[0].depth, 1);
  EXPECT_EQ(snap.spans[1].name, "outer");
  EXPECT_EQ(snap.spans[1].index, 7);
  EXPECT_EQ(snap.spans[1].depth, 0);
  ASSERT_EQ(snap.spans[1].values.size(), 1u);
  EXPECT_EQ(snap.spans[1].values[0].first, "width");
  EXPECT_EQ(snap.spans[1].values[0].second, 3.0);
}

TEST(ObsSpan, NullRecorderSpanIsNoop) {
  micg::obs::span s;  // default: no recorder
  s.value("ignored", 1.0);
  s.finish();  // must not crash
}

TEST(ObsSpan, MoveTransfersOwnership) {
  micg::obs::recorder rec;
  {
    micg::obs::span a = rec.start_span("phase");
    micg::obs::span b = std::move(a);
    a.finish();  // moved-from: no record
  }
  EXPECT_EQ(rec.take().spans.size(), 1u);
}

// --------------------------------------------------------------- global

TEST(ObsGlobal, ScopedInstallAndRestore) {
  EXPECT_EQ(micg::obs::recorder::global(), nullptr);
  micg::obs::recorder rec;
  {
    micg::obs::scoped_global guard(rec);
    EXPECT_EQ(micg::obs::recorder::global(), &rec);
  }
  EXPECT_EQ(micg::obs::recorder::global(), nullptr);
}

TEST(ObsGlobal, PoolPublishesRegionCounters) {
  micg::obs::recorder rec;
  auto& pool = micg::rt::thread_pool::global();
  pool.reserve(4);
  {
    micg::obs::scoped_global guard(rec);
    pool.run(4, [](int) {});
    pool.run(2, [](int) {});
  }
  const auto snap = rec.take();
  EXPECT_EQ(counter_value(snap, "rt.regions"), 2u);
  EXPECT_EQ(counter_value(snap, "rt.region_workers"), 6u);
}

// ----------------------------------------------------------- round trip

TEST(ObsEmit, JsonRoundTripsRecord) {
  micg::obs::recorder rec;
  rec.set_meta("kernel", "unit_test");
  rec.set_meta("quoted", "a\"b\\c\n");
  rec.get_counter("c.one").add(0, 42);
  rec.get_timer("t.one").add_seconds(0, 0.125);
  rec.set_value("v.one", -1.5);
  {
    micg::obs::span s = rec.start_span("phase", 3);
    s.value("width", 9.0);
  }
  const auto snap = rec.take();

  const auto parsed = micg::obs::from_json(micg::obs::to_json(snap));
  EXPECT_EQ(parsed.meta, snap.meta);
  EXPECT_EQ(parsed.counters, snap.counters);
  ASSERT_EQ(parsed.timers.size(), snap.timers.size());
  for (std::size_t i = 0; i < parsed.timers.size(); ++i) {
    EXPECT_EQ(parsed.timers[i].first, snap.timers[i].first);
    EXPECT_DOUBLE_EQ(parsed.timers[i].second, snap.timers[i].second);
  }
  EXPECT_EQ(parsed.values, snap.values);
  ASSERT_EQ(parsed.spans.size(), 1u);
  EXPECT_EQ(parsed.spans[0].name, "phase");
  EXPECT_EQ(parsed.spans[0].index, 3);
  EXPECT_EQ(parsed.spans[0].depth, 0);
  ASSERT_EQ(parsed.spans[0].values.size(), 1u);
  EXPECT_EQ(parsed.spans[0].values[0].first, "width");
  EXPECT_EQ(parsed.spans[0].values[0].second, 9.0);
}

TEST(ObsEmit, JsonRoundTripsMetricsFile) {
  micg::obs::recorder a;
  a.set_meta("run", "1");
  micg::obs::recorder b;
  b.set_meta("run", "2");
  b.get_counter("n").add(0, 7);

  const std::vector<micg::obs::snapshot> records{a.take(), b.take()};
  const auto parsed =
      micg::obs::records_from_json(micg::obs::to_json(records));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].meta, records[0].meta);
  EXPECT_EQ(parsed[1].counters, records[1].counters);
}

// Exact bytes of a metrics file built from a snapshot literal (no
// recorder, so no clock): string escapes including a control character,
// negative, integral and inexact gauges, a nested indexed span and an
// unindexed span without values.
TEST(ObsEmit, JsonBytesArePinned) {
  micg::obs::snapshot snap;
  snap.meta = {{"kernel", "unit"}, {"quoted", "a\"b\\c\nd\x01"}};
  snap.counters = {{"c.one", 42}};
  snap.timers = {{"t.one", 0.125}};
  snap.values = {{"v.neg", -1.5}, {"v.three", 3.0}, {"v.tenth", 0.1}};
  snap.spans = {{"inner", 3, 1, 0.25, {{"width", 9.0}}},
                {"outer", -1, 0, 0.5, {}}};
  const std::string expected =
      R"({"schema":"micg.metrics.v1","records":[{"schema":"micg.metrics.v1",)"
      R"("meta":{"kernel":"unit","quoted":"a\"b\\c\nd\u0001"},)"
      R"("counters":{"c.one":42},"timers":{"t.one":0.125},)"
      R"("values":{"v.neg":-1.5,"v.three":3,"v.tenth":0.10000000000000001},)"
      R"("spans":[{"name":"inner","index":3,"depth":1,"seconds":0.25,)"
      R"("values":{"width":9}},)"
      R"({"name":"outer","index":-1,"depth":0,"seconds":0.5,"values":{}}]}]})"
      "\n";
  EXPECT_EQ(micg::obs::to_json(std::vector<micg::obs::snapshot>{snap}),
            expected);
}

TEST(ObsEmit, RejectsMalformedInput) {
  EXPECT_THROW(micg::obs::from_json("{"), micg::check_error);
  EXPECT_THROW(micg::obs::from_json("{} x"), micg::check_error);
  EXPECT_THROW(micg::obs::from_json("{\"schema\": \"other.v9\"}"),
               micg::check_error);
  EXPECT_THROW(micg::obs::records_from_json("{\"schema\": \"other.v9\"}"),
               micg::check_error);
  EXPECT_THROW(micg::obs::from_json("[]"), micg::check_error);
  EXPECT_THROW(micg::obs::records_from_json("[]"), micg::check_error);
  // Keys the writer never emits, at file, record and span level.
  EXPECT_THROW(micg::obs::records_from_json("{\"recs\": []}"),
               micg::check_error);
  EXPECT_THROW(micg::obs::from_json("{\"extra\": {}}"), micg::check_error);
  EXPECT_THROW(micg::obs::from_json("{\"spans\": [{\"width\": 1}]}"),
               micg::check_error);
}

// JSON has no inf/NaN literal: non-finite gauges are written as null and
// read back as NaN, so the file stays loadable by any strict parser.
TEST(ObsEmit, NonFiniteGaugesAreStrictJson) {
  micg::obs::recorder rec;
  rec.set_value("speedup", std::numeric_limits<double>::infinity());
  rec.set_value("ratio", std::numeric_limits<double>::quiet_NaN());
  const std::string text = micg::obs::to_json(rec.take());

  const auto doc = micg::api::json::parse(text);
  EXPECT_TRUE(doc.at("values").at("speedup").is_null());
  EXPECT_TRUE(doc.at("values").at("ratio").is_null());

  const auto parsed = micg::obs::from_json(text);
  ASSERT_EQ(parsed.values.size(), 2u);
  EXPECT_TRUE(std::isnan(parsed.values[0].second));
  EXPECT_TRUE(std::isnan(parsed.values[1].second));
}

// Counters are uint64 in memory and int64 on the wire: they read back
// exactly, and anything outside [0, INT64_MAX] is refused both ways.
TEST(ObsEmit, CountersAreExactInt64) {
  micg::obs::snapshot snap;
  // 2^53 + 1 is the smallest integer a double cannot represent.
  snap.counters = {{"big", (std::uint64_t{1} << 53) + 1}};
  EXPECT_EQ(micg::obs::from_json(micg::obs::to_json(snap)).counters,
            snap.counters);

  const std::string head = R"({"schema":"micg.metrics.v1","counters":{"c":)";
  EXPECT_THROW(micg::obs::from_json(head + "-1}}"), micg::check_error);
  EXPECT_THROW(micg::obs::from_json(head + "2.5}}"), micg::check_error);
  EXPECT_THROW(micg::obs::from_json(head + "18446744073709551615}}"),
               micg::check_error);

  snap.counters = {{"c", std::numeric_limits<std::uint64_t>::max()}};
  EXPECT_THROW(micg::obs::to_json(snap), micg::check_error);
}

// ---------------------------------------------------------------- reset

TEST(ObsRecorder, ResetDropsEverything) {
  micg::obs::recorder rec;
  rec.get_counter("c").inc(0);
  rec.set_meta("k", "v");
  rec.reset();
  const auto snap = rec.take();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.meta.empty());
  EXPECT_TRUE(snap.spans.empty());
}

}  // namespace
