// Unit tests for the statistics library: moments, CDFs, histograms,
// regression, trend tests, sampling, and effective bandwidth.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <vector>

#include "stats/cdf.hpp"
#include "stats/effective_bw.hpp"
#include "stats/histogram.hpp"
#include "stats/moments.hpp"
#include "stats/regression.hpp"
#include "stats/rng.hpp"
#include "stats/sampling.hpp"
#include "stats/trend.hpp"

namespace {

using namespace abw::stats;

// ---------------------------------------------------------------- RNG ---

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(Rng, ForkDivergesFromParent) {
  Rng a(42);
  Rng child = a.fork();
  bool any_diff = false;
  for (int i = 0; i < 50; ++i)
    if (a.uniform01() != child.uniform01()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

// The repo-owned engine must reproduce std::mt19937_64 word for word:
// every seeded experiment and golden digest was pinned on the std engine.
// A million draws per seed run ~3,200 twists, over seeds at both ends of
// the range; copies and forks must stay in lockstep too.
TEST(Rng, EngineMatchesStdMt19937_64) {
  for (std::uint64_t seed : {0ULL, 1ULL, 987654321ULL, ~0ULL}) {
    std::mt19937_64 ref(seed);
    Rng own(seed);
    std::mt19937_64 ref_copy(0);
    std::optional<Rng> own_copy;
    std::vector<std::uint64_t> after_copy;
    constexpr int kDraws = 1'000'000, kCopyAt = 500'000, kReplay = 1000;
    for (int i = 0; i < kDraws; ++i) {
      if (i == kCopyAt) {
        ref_copy = ref;
        own_copy = own;
      }
      const std::uint64_t want = ref();
      if (want != own.engine()())
        FAIL() << "seed " << seed << ": draw " << i << " differs";
      if (i >= kCopyAt && i < kCopyAt + kReplay) after_copy.push_back(want);
    }
    // The copies replay the stream from where they were taken.
    for (int i = 0; i < kReplay; ++i) {
      ASSERT_EQ(after_copy[i], ref_copy()) << "seed " << seed;
      ASSERT_EQ(after_copy[i], own_copy->engine()()) << "seed " << seed;
    }
    // fork() seeds the child from the parent's next two words.
    const std::uint64_t a = ref(), b = ref();
    std::mt19937_64 child_ref(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ULL);
    Rng child = own.fork();
    for (int i = 0; i < kReplay; ++i) {
      ASSERT_EQ(child_ref(), child.engine()()) << "seed " << seed;
      ASSERT_EQ(ref(), own.engine()()) << "seed " << seed;
    }
  }
}

// An engine with mt19937_64's range that returns one chosen word, so the
// std reference can be driven through the words where rounding decides.
struct StubEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  std::uint64_t val = 0;
  result_type operator()() { return val; }
};

// The hand-written distributions must be bit-identical to the
// std::distribution formulations they replaced: every golden digest and
// seeded experiment depends on the exact draw sequence.
TEST(Rng, RngFastPathExact) {
  // A stub engine with mt19937_64's range lets us drive the std reference
  // through chosen raw draws: the one-in-2^54 rounding edge where the
  // 64-bit value converts up to exactly 2^64, and the values where the
  // split conversion (high and low 32 bits converted apart, then summed)
  // must round exactly as the single cast does.
  const std::uint64_t edges[] = {
      0,                     1,
      1023,                  1024,
      (1ULL << 32) - 1,      1ULL << 32,
      (1ULL << 53) - 1,      1ULL << 53,
      (1ULL << 53) + 1,      (1ULL << 63) - 1,
      1ULL << 63,            (1ULL << 63) + 1,
      ~0ULL,                 ~0ULL - 1,
      ~0ULL - 511,           ~0ULL - 512,
      ~0ULL - 1023 /* 2^64-1024 */, ~0ULL - 1024 /* 2^64-1025 */,
      0xfffffffffffffbffULL, 0xfffffffffffffc00ULL};
  for (std::uint64_t x : edges) {
    StubEngine e{x};
    const double want = std::generate_canonical<double, 53>(e);
    const double cast = static_cast<double>(x);
    const double split =
        static_cast<double>(static_cast<std::uint32_t>(x >> 32)) * 0x1.0p32 +
        static_cast<double>(static_cast<std::uint32_t>(x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cast), std::bit_cast<std::uint64_t>(split))
        << "raw draw " << x;
    const double u = std::min(split * 0x1.0p-64, 0x1.fffffffffffffp-1);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want), std::bit_cast<std::uint64_t>(u))
        << "raw draw " << x;
  }
  // And over the real engine: same seed, interleaved draw kinds, exact
  // equality of the values' bits and of the post-draw engine state.  Each
  // std distribution is a fresh object per draw, as the replaced code
  // constructed them (a fresh normal_distribution saves no second deviate).
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::mt19937_64 ref(987654321);
  Rng fast(987654321);
  for (int i = 0; i < 60000; ++i) {
    switch (i % 8) {
      case 0:
        ASSERT_EQ(bits(std::uniform_real_distribution<double>(0.0, 1.0)(ref)),
                  bits(fast.uniform01())) << "draw " << i;
        break;
      case 1:
        ASSERT_EQ(bits(std::exponential_distribution<double>(1.0 / 0.0013)(ref)),
                  bits(fast.exponential(0.0013))) << "draw " << i;
        break;
      case 2:
        ASSERT_EQ(bits(std::exponential_distribution<double>(1.0 / 250.0)(ref)),
                  bits(fast.exponential(250.0))) << "draw " << i;
        break;
      case 3:
        ASSERT_EQ(bits(std::normal_distribution<double>(0.0, 1.0)(ref)),
                  bits(fast.normal())) << "draw " << i;
        break;
      case 4:
        ASSERT_EQ(std::bernoulli_distribution(0.3)(ref), fast.bernoulli(0.3))
            << "draw " << i;
        break;
      case 5:
        ASSERT_EQ(std::bernoulli_distribution(1e-3)(ref), fast.bernoulli(1e-3))
            << "draw " << i;
        break;
      case 6:
        ASSERT_EQ(bits(std::uniform_real_distribution<double>(0.0, 0.05)(ref)),
                  bits(fast.uniform(0.0, 0.05))) << "draw " << i;
        break;
      default:
        ASSERT_EQ(bits(std::uniform_real_distribution<double>(-3.5, 7.25)(ref)),
                  bits(fast.uniform(-3.5, 7.25))) << "draw " << i;
    }
  }
  EXPECT_EQ(ref(), fast.engine()());  // engines advanced in lockstep
}

// canonical53 (the word -> [0, 1) conversion behind every draw) against
// std::generate_canonical on the words where rounding decides: both
// sides of each 32-bit half's boundary, of 2^53, of the sign bit, and
// every word of the top 2^12, where the clamp to nextafter(1, 0) begins
// (2^64 - 2^10 rounds up to 1.0, 2^64 - 2^10 - 1 down).
TEST(Rng, Canonical53MatchesStdOnRoundingEdges) {
  std::vector<std::uint64_t> words = {0, 1, 1023, 1024, (1ULL << 32) - 1, 1ULL << 32,
                                      (1ULL << 53) - 1, 1ULL << 53, (1ULL << 53) + 1,
                                      (1ULL << 63) - 1, 1ULL << 63, (1ULL << 63) + 1,
                                      0x7ffffffffffffc00ULL, 0x7ffffffffffffbffULL};
  for (std::uint64_t k = 0; k < 4096; ++k) words.push_back(~0ULL - k);
  for (std::uint64_t x : words) {
    StubEngine e{x};
    const double want = std::generate_canonical<double, 53>(e);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want), std::bit_cast<std::uint64_t>(canonical53(x)))
        << "raw word " << x;
  }
}

// Mt19937_64::fill must hand out the words operator() would, and leave
// the engine where the calls would: from starts on both sides of the
// 312-word twist, for lengths that end before, on and after it.
TEST(Mt19937_64, FillMatchesCalls) {
  for (std::size_t skip : {0, 1, 311, 312, 313, 623}) {
    for (std::size_t n : {0, 1, 2, 311, 312, 313, 624, 1000, 5000}) {
      Mt19937_64 batch(77), calls(77);
      for (std::size_t i = 0; i < skip; ++i) {
        batch();
        calls();
      }
      std::vector<std::uint64_t> got(n + 1, 0);
      batch.fill(got.data(), n);
      EXPECT_EQ(got[n], 0u) << "fill wrote past n = " << n;
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], calls()) << "skip " << skip << ", n " << n << ", word " << i;
      EXPECT_EQ(batch(), calls()) << "skip " << skip << ", n " << n;
    }
  }
}

// Rng::normals must return normal()'s deviates bit for bit and leave the
// engine in the same state, whatever the batch length and wherever the
// batch starts relative to the engine's 312-word twist (an odd start puts
// a polar pair across it).
TEST(Rng, NormalsMatchScalar) {
  for (std::size_t skip : {0, 1, 310, 311, 312, 313}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{311}, std::size_t{312},
                          std::size_t{313}, std::size_t{1023}, std::size_t{1} << 18}) {
      Rng batch(2024), calls(2024);
      for (std::size_t i = 0; i < skip; ++i) {
        batch.engine()();
        calls.engine()();
      }
      std::vector<double> got(n + 1, 7.0);
      batch.normals(got.data(), n);
      EXPECT_EQ(got[n], 7.0) << "normals wrote past n = " << n;
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(calls.normal()))
            << "skip " << skip << ", n " << n << ", deviate " << i;
      EXPECT_EQ(batch.engine()(), calls.engine()()) << "skip " << skip << ", n " << n;
    }
  }
}

TEST(Rng, Uniform01InRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r(7);
  RunningStats acc;
  for (int i = 0; i < 50000; ++i) acc.add(r.exponential(3.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.1);
}

TEST(Rng, ExponentialRejectsBadMean) {
  Rng r(1);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(r.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, ParetoRespectsScaleMinimum) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(1.5, 2.0), 2.0);
}

TEST(Rng, ParetoMeanMatchesTheory) {
  // E[X] = alpha * xm / (alpha - 1) = 2.5 * 1 / 1.5 = 5/3.
  Rng r(5);
  RunningStats acc;
  for (int i = 0; i < 200000; ++i) acc.add(r.pareto(2.5, 1.0));
  EXPECT_NEAR(acc.mean(), 5.0 / 3.0, 0.05);
}

TEST(Rng, ParetoRejectsBadParams) {
  Rng r(1);
  EXPECT_THROW(r.pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(r.pareto(1.5, 0.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  RunningStats acc;
  for (int i = 0; i < 100000; ++i) acc.add(r.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform_int(1, 10);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 10);
    saw_lo |= v == 1;
    saw_hi |= v == 10;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// ------------------------------------------------------------ moments ---

TEST(RunningStats, MatchesBatchFormulas) {
  std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats acc;
  for (double x : xs) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), mean(xs));
  EXPECT_NEAR(acc.variance(), variance(xs), 1e-12);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 16.0);
}

TEST(RunningStats, EmptyAndSingleAreSafe) {
  RunningStats acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  acc.add(5.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSinglePass) {
  Rng r(9);
  RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    double x = r.normal() * 3 + 1;
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(Moments, MedianAndQuantiles) {
  std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Moments, QuantileInterpolates) {
  std::vector<double> xs = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 0.25);
}

TEST(Moments, QuantileRejectsOutOfRange) {
  EXPECT_THROW(quantile({1.0, 2.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0, 2.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile({1.0, 2.0}, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(quantile({}, std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

// quantile selects its two order statistics instead of sorting; on
// vectors full of duplicates (and of every length up to 64) the result
// must be bit-identical to interpolating the sorted copy.
TEST(Moments, QuantileMatchesSortedReference) {
  auto reference = [](std::vector<double> xs, double q) {
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
  };
  Rng r(404);
  for (std::size_t n = 1; n <= 64; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> xs(n);
      for (double& x : xs)  // few distinct values, so most are repeated
        x = trial % 2 ? static_cast<double>(r.uniform_int(0, 4)) : std::floor(4 * r.normal()) / 4;
      for (double q : {0.0, 0.05, 0.25, 1.0 / 3.0, 0.5, 0.9, 0.95, 1.0, r.uniform01()}) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(quantile(xs, q)),
                  std::bit_cast<std::uint64_t>(reference(xs, q)))
            << "n " << n << ", q " << q;
      }
    }
  }
}

TEST(Moments, RelativeError) {
  EXPECT_DOUBLE_EQ(relative_error(27.5, 25.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(22.5, 25.0), -0.1);
  EXPECT_THROW(relative_error(1.0, 0.0), std::invalid_argument);
}

TEST(Moments, MeanAbsRelativeError) {
  EXPECT_DOUBLE_EQ(mean_abs_relative_error({27.5, 22.5}, 25.0), 0.1);
  EXPECT_DOUBLE_EQ(mean_abs_relative_error({}, 25.0), 0.0);
}

// ---------------------------------------------------------------- CDF ---

TEST(EmpiricalCdf, BasicSteps) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(EmpiricalCdf, InverseIsQuantile) {
  EmpiricalCdf cdf({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(cdf.inverse(0.25), 10.0);
  EXPECT_DOUBLE_EQ(cdf.inverse(0.5), 20.0);
  EXPECT_DOUBLE_EQ(cdf.inverse(1.0), 40.0);
  EXPECT_THROW(cdf.inverse(0.0), std::invalid_argument);
}

TEST(EmpiricalCdf, CurveIsMonotone) {
  Rng r(4);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(r.normal());
  EmpiricalCdf cdf(xs);
  auto curve = cdf.curve();
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve[i - 1].first, curve[i].first);
    EXPECT_LT(curve[i - 1].second, curve[i].second + 1e-12);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(EmpiricalCdf, EmptyIsZeroEverywhere) {
  EmpiricalCdf cdf({});
  EXPECT_DOUBLE_EQ(cdf.at(123.0), 0.0);
  EXPECT_THROW(cdf.inverse(0.5), std::logic_error);
}

// ----------------------------------------------------------- histogram ---

TEST(Histogram, CountsAndFlows) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(5.5);
  h.add(10.0);
  h.add(99.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(9), 9.5);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 5; ++i) h.add(0.25);
  std::string s = h.render(10);
  EXPECT_NE(s.find('#'), std::string::npos);
}

// ---------------------------------------------------------- regression ---

TEST(LinearFit, ExactLine) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {3, 5, 7, 9, 11};  // y = 2x + 1
  LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineRecoversSlope) {
  Rng r(13);
  std::vector<double> xs, ys;
  for (int i = 0; i < 500; ++i) {
    double x = i * 0.1;
    xs.push_back(x);
    ys.push_back(0.02 * x + 0.5 + 0.01 * r.normal());
  }
  LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.slope, 0.02, 0.001);
  EXPECT_NEAR(f.intercept, 0.5, 0.01);
  EXPECT_GT(f.r_squared, 0.9);
}

TEST(LinearFit, RejectsDegenerateInput) {
  EXPECT_THROW(linear_fit({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(linear_fit({1, 2}, {1}), std::invalid_argument);
  EXPECT_THROW(linear_fit({2, 2, 2}, {1, 2, 3}), std::invalid_argument);
}

// --------------------------------------------------------------- trend ---

TEST(Trend, MonotoneIncreaseIsIncreasing) {
  std::vector<double> owds;
  for (int i = 0; i < 100; ++i) owds.push_back(0.001 * i);
  EXPECT_EQ(pct_trend(owds), Trend::kIncreasing);
  EXPECT_EQ(pdt_trend(owds), Trend::kIncreasing);
  EXPECT_EQ(combined_trend(owds), Trend::kIncreasing);
}

TEST(Trend, FlatIsNonIncreasing) {
  std::vector<double> owds(100, 0.005);
  EXPECT_EQ(pct_trend(owds), Trend::kNonIncreasing);
  EXPECT_EQ(combined_trend(owds), Trend::kNonIncreasing);
}

TEST(Trend, NoisyFlatIsNonIncreasing) {
  Rng r(21);
  std::vector<double> owds;
  for (int i = 0; i < 200; ++i) owds.push_back(0.005 + 1e-4 * r.normal());
  EXPECT_EQ(combined_trend(owds), Trend::kNonIncreasing);
}

TEST(Trend, NoisyIncreaseDetected) {
  Rng r(22);
  std::vector<double> owds;
  for (int i = 0; i < 200; ++i) owds.push_back(1e-5 * i + 2e-4 * r.normal());
  EXPECT_EQ(combined_trend(owds), Trend::kIncreasing);
}

TEST(Trend, BurstAtEndDoesNotFoolTrend) {
  // The Fig. 5 situation: flat OWDs with a jump at the very end.  Ro/Ri
  // would scream congestion; the trend tests must not.
  std::vector<double> owds(150, 0.004);
  for (int i = 0; i < 10; ++i) owds.push_back(0.004 + 0.002 * (i + 1));
  EXPECT_NE(combined_trend(owds), Trend::kIncreasing);
}

// combined_trend builds the group medians once for both tests; it must
// still apply Pathload's rule to exactly what pct_trend and pdt_trend
// report, on flat, noisy, trending and tiny series.
TEST(Trend, CombinedFollowsPctAndPdt) {
  auto rule = [](Trend a, Trend b) {
    if (a == b) return a;
    if (a == Trend::kAmbiguous) return b;
    if (b == Trend::kAmbiguous) return a;
    return Trend::kAmbiguous;
  };
  TrendConfig loose;
  loose.min_range_seconds = 0.0;
  loose.min_range_mad_factor = 0.2;
  Rng r(505);
  int decisive = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = static_cast<std::size_t>(r.uniform_int(0, 160));
    const double slope = 1e-6 * static_cast<double>(r.uniform_int(-20, 20));
    const double noise = trial % 3 ? 1e-4 * r.uniform01() : 0.0;
    std::vector<double> owds;
    for (std::size_t i = 0; i < n; ++i)
      owds.push_back(0.004 + slope * static_cast<double>(i) + noise * r.normal());
    for (const TrendConfig& cfg : {TrendConfig{}, loose}) {
      const Trend want = rule(pct_trend(owds, cfg), pdt_trend(owds, cfg));
      ASSERT_EQ(combined_trend(owds, cfg), want) << "trial " << trial;
      decisive += want != Trend::kNonIncreasing;
    }
  }
  EXPECT_GT(decisive, 100);  // the sweep reaches the statistics, not only the floor
}

TEST(Trend, PctStatisticBounds) {
  std::vector<double> inc, dec;
  for (int i = 0; i < 64; ++i) {
    inc.push_back(i);
    dec.push_back(-i);
  }
  EXPECT_DOUBLE_EQ(pct_statistic(inc), 1.0);
  EXPECT_DOUBLE_EQ(pct_statistic(dec), 0.0);
  EXPECT_DOUBLE_EQ(pdt_statistic(inc), 1.0);
  EXPECT_DOUBLE_EQ(pdt_statistic(dec), -1.0);
}

TEST(Trend, GroupMediansReducesLength) {
  std::vector<double> xs(100, 1.0);
  auto m = group_medians(xs);
  EXPECT_EQ(m.size(), 10u);  // sqrt(100)
}

TEST(Trend, ShortSeriesIsHandled) {
  EXPECT_EQ(pct_trend({}), Trend::kNonIncreasing);  // statistic 0.5 < 0.54
  EXPECT_EQ(pdt_trend({1.0}), Trend::kNonIncreasing);
}

TEST(Trend, ToStringNames) {
  EXPECT_STREQ(to_string(Trend::kIncreasing), "increasing");
  EXPECT_STREQ(to_string(Trend::kNonIncreasing), "non-increasing");
  EXPECT_STREQ(to_string(Trend::kAmbiguous), "ambiguous");
}

// ------------------------------------------------------------ sampling ---

TEST(Sampling, PoissonTimesSortedAndBounded) {
  Rng r(31);
  auto times = poisson_sample_times(50, 10.0, r);
  ASSERT_EQ(times.size(), 50u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_GT(times[i], 0.0);
    EXPECT_LT(times[i], 10.0);
    if (i > 0) {
      EXPECT_GT(times[i], times[i - 1]);
    }
  }
}

TEST(Sampling, PoissonGapsAreExponentialish) {
  // The CV (stddev/mean) of exponential gaps is 1; periodic gaps give 0.
  Rng r(32);
  auto times = poisson_sample_times(2000, 100.0, r);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < times.size(); ++i)
    gaps.push_back(times[i] - times[i - 1]);
  double cv = stddev(gaps) / mean(gaps);
  EXPECT_NEAR(cv, 1.0, 0.15);
}

TEST(Sampling, PeriodicTimesEvenlySpaced) {
  auto times = periodic_sample_times(4, 8.0);
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[3], 6.0);
}

TEST(Sampling, RejectsBadHorizon) {
  Rng r(1);
  EXPECT_THROW(poisson_sample_times(5, 0.0, r), std::invalid_argument);
  EXPECT_THROW(periodic_sample_times(5, -1.0), std::invalid_argument);
}

// Regression: exhausting the redraw budget must THROW, never silently
// fall back to periodic spacing — periodic sampling breaks PASTA and
// would corrupt the Fig. 1 Poisson-sampling experiment without signal.
TEST(Sampling, ExhaustedRedrawsThrowInsteadOfGoingPeriodic) {
  Rng r(5);
  EXPECT_THROW(poisson_sample_times(10, 1.0, r, /*max_attempts=*/0),
               std::runtime_error);
}

// The returned instants must always be strictly increasing and strictly
// inside (0, horizon), across many seeds and a count large enough that
// individual attempts routinely overshoot the horizon and redraw.
TEST(Sampling, TimesStrictlyIncreasingAndInsideHorizonAcrossSeeds) {
  const double horizon = 3.0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng r(seed);
    auto times = poisson_sample_times(400, horizon, r);
    ASSERT_EQ(times.size(), 400u) << "seed " << seed;
    double prev = 0.0;
    for (double t : times) {
      EXPECT_GT(t, prev) << "seed " << seed;
      EXPECT_LT(t, horizon) << "seed " << seed;
      prev = t;
    }
  }
}

// -------------------------------------------------------- effective bw ---

TEST(EffectiveBw, ConstantLoadEqualsLoad) {
  std::vector<double> loads(100, 30.0);
  EXPECT_NEAR(effective_bandwidth(loads, 0.5), 30.0, 1e-9);
}

TEST(EffectiveBw, BetweenMeanAndPeak) {
  std::vector<double> loads = {10, 10, 10, 50};
  double m = mean(loads);
  double eb = effective_bandwidth(loads, 0.1);
  EXPECT_GT(eb, m);
  EXPECT_LT(eb, 50.0);
}

TEST(EffectiveBw, IncreasesWithS) {
  std::vector<double> loads = {10, 20, 30, 40};
  EXPECT_LT(effective_bandwidth(loads, 0.01), effective_bandwidth(loads, 1.0));
}

TEST(EffectiveBw, AvailBwClampedAtZero) {
  std::vector<double> loads(10, 100.0);
  EXPECT_DOUBLE_EQ(effective_avail_bw(50.0, loads, 0.5), 0.0);
  EXPECT_NEAR(effective_avail_bw(150.0, loads, 0.5), 50.0, 1e-9);
}

TEST(EffectiveBw, BurstierLoadHasHigherEffectiveDemand) {
  std::vector<double> smooth(100, 25.0);
  std::vector<double> bursty;
  for (int i = 0; i < 100; ++i) bursty.push_back(i % 2 ? 45.0 : 5.0);  // mean 25
  EXPECT_GT(effective_bandwidth(bursty, 0.2), effective_bandwidth(smooth, 0.2));
}

TEST(EffectiveBw, RejectsBadInput) {
  EXPECT_THROW(effective_bandwidth({}, 0.5), std::invalid_argument);
  EXPECT_THROW(effective_bandwidth({1.0}, 0.0), std::invalid_argument);
}

}  // namespace
