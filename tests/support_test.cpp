// Unit tests for the support module: assertions, rng, stats, padding,
// table formatting, and the SIMD fast-path layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "micg/support/assert.hpp"
#include "micg/support/cacheline.hpp"
#include "micg/support/rng.hpp"
#include "micg/support/simd.hpp"
#include "micg/support/stats.hpp"
#include "micg/support/table.hpp"
#include "micg/support/timer.hpp"

namespace {

TEST(Assert, CheckThrowsWithContext) {
  try {
    MICG_CHECK(1 == 2, "math is broken");
    FAIL() << "MICG_CHECK should have thrown";
  } catch (const micg::check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

TEST(Assert, CheckPassesSilently) {
  EXPECT_NO_THROW(MICG_CHECK(2 + 2 == 4, "fine"));
}

TEST(Rng, SplitMixIsDeterministic) {
  micg::splitmix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMixDiffersAcrossSeeds) {
  micg::splitmix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, XoshiroDeterministic) {
  micg::xoshiro256ss a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInBounds) {
  micg::xoshiro256ss rng(123);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowCoversAllResidues) {
  micg::xoshiro256ss rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  micg::xoshiro256ss rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Stats, RunningStatsBasics) {
  micg::running_stats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);  // sample stddev
}

TEST(Stats, EmptyStatsAreZero) {
  micg::running_stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> v{1.0, 8.0};
  EXPECT_NEAR(micg::geometric_mean(v), 2.8284271, 1e-6);
  const std::vector<double> one{5.0};
  EXPECT_DOUBLE_EQ(micg::geometric_mean(one), 5.0);
  EXPECT_EQ(micg::geometric_mean(std::vector<double>{}), 0.0);
}

TEST(Stats, GeometricMeanRejectsNonPositive) {
  const std::vector<double> v{1.0, 0.0};
  EXPECT_THROW(micg::geometric_mean(v), micg::check_error);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(micg::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(micg::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(micg::median({}), 0.0);
}

TEST(Stats, TailMeanMatchesPaperConvention) {
  // Paper: 10 runs, report the average of the last 5.
  std::vector<double> runs{100, 90, 80, 70, 10, 10, 10, 10, 10, 10};
  EXPECT_DOUBLE_EQ(micg::tail_mean(runs, 5), 10.0);
  EXPECT_DOUBLE_EQ(micg::tail_mean(runs, 100), 40.0);  // clamped to size
}

TEST(Cacheline, PaddedIsolatesLines) {
  micg::padded<int> a[2];
  const auto* pa = reinterpret_cast<const char*>(&a[0]);
  const auto* pb = reinterpret_cast<const char*>(&a[1]);
  EXPECT_GE(pb - pa, static_cast<ptrdiff_t>(micg::cacheline_size));
}

TEST(Table, AlignsAndFormats) {
  micg::table_printer t("demo");
  t.header({"name", "value"});
  t.row({"alpha", "1.00"});
  t.row({"b", "22.50"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.50"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, HumanNumbers) {
  EXPECT_EQ(micg::table_printer::human(448000), "448K");
  EXPECT_EQ(micg::table_printer::human(3300000), "3.3M");
  EXPECT_EQ(micg::table_printer::human(37), "37");
}

TEST(Timer, MeasuresElapsedTime) {
  micg::stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}

// -------------------------------------------------------------------- simd

// The vector gather and the scalar stripe emulation must agree bit for
// bit, across both index widths, every tail length, and permuted access
// patterns — that equality is what lets the kernels flip the simd knob
// without changing results.
TEST(Simd, GatherSumVectorMatchesScalarBitForBit) {
  micg::xoshiro256ss rng(42);
  std::vector<double> x(512);
  for (auto& v : x) v = rng.uniform() * 2.0 - 1.0;
  // Every residue mod 8 plus both sides of the 4-wide mid-tail gather,
  // then larger sizes spanning several full stripe groups.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{3}, std::size_t{4}, std::size_t{5},
                        std::size_t{6}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{11}, std::size_t{12},
                        std::size_t{13}, std::size_t{15}, std::size_t{16},
                        std::size_t{63}, std::size_t{64}, std::size_t{257}}) {
    std::vector<std::int32_t> idx32(n);
    std::vector<std::int64_t> idx64(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto j = static_cast<std::int32_t>(rng.next() % x.size());
      idx32[i] = j;
      idx64[i] = j;
    }
    // Short rows use the plain left-to-right path on every build; long
    // rows use the striped reference. Either way the dispatcher must
    // agree exactly with the reference for both vectorize settings.
    const bool small = n < micg::simd::short_row_threshold;
    const double s32 =
        small ? micg::simd::gather_sum_small(x.data(), idx32.data(), n)
              : micg::simd::gather_sum_scalar(x.data(), idx32.data(), n);
    const double s64 =
        small ? micg::simd::gather_sum_small(x.data(), idx64.data(), n)
              : micg::simd::gather_sum_scalar(x.data(), idx64.data(), n);
    EXPECT_EQ(s32, s64) << "n=" << n;
    EXPECT_EQ(micg::simd::gather_sum(x.data(), idx32.data(), n, true), s32)
        << "n=" << n;
    EXPECT_EQ(micg::simd::gather_sum(x.data(), idx32.data(), n, false), s32)
        << "n=" << n;
    EXPECT_EQ(micg::simd::gather_sum(x.data(), idx64.data(), n, true), s64)
        << "n=" << n;
    EXPECT_EQ(micg::simd::gather_sum(x.data(), idx64.data(), n, false), s64)
        << "n=" << n;
  }
}

TEST(Simd, GatherSumComputesStripedSum) {
  // Against an independent reference: the striped association changes
  // rounding, not the value beyond accumulated epsilon.
  std::vector<double> x{0.5, 1.25, -2.0, 4.0, 0.125};
  std::vector<std::int32_t> idx{4, 2, 0, 1, 3, 3, 2};
  double ref = 0.0;
  for (std::int32_t i : idx) ref += x[static_cast<std::size_t>(i)];
  EXPECT_NEAR(micg::simd::gather_sum(x.data(), idx.data(), idx.size()), ref,
              1e-12);
  EXPECT_EQ(micg::simd::gather_sum(x.data(), idx.data(), 0), 0.0);
}

TEST(Simd, IsaNameMatchesCompiledPath) {
  if (micg::simd::vectorized()) {
    EXPECT_STREQ(micg::simd::isa_name(), "avx2");
  } else {
    EXPECT_STREQ(micg::simd::isa_name(), "scalar");
  }
}

}  // namespace
