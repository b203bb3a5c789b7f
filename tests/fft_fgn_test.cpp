// Tests for the FFT, the Davies-Harte fGn synthesizer, and the Hurst
// estimators — the machinery behind Eq. (5) of the paper (self-similar
// variance decay) and the synthetic NLANR-substitute trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "stats/fft.hpp"
#include "stats/fgn.hpp"
#include "stats/hurst.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"
#include "runner/batch.hpp"

namespace {

using namespace abw::stats;

/// FNV-1a over 64-bit words; doubles contribute their exact bit pattern.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }
  void cplx(const std::vector<std::complex<double>>& x) {
    for (const auto& v : x) {
      f64(v.real());
      f64(v.imag());
    }
  }
};

// Regenerate (only for an intentional change of the synthesized stream):
//   ABW_GOLDEN_PRINT=1 ./fft_fgn_test
void check_golden(const char* name, std::uint64_t got, std::uint64_t want) {
  if (std::getenv("ABW_GOLDEN_PRINT") != nullptr) {
    std::printf("constexpr std::uint64_t kGolden%s = 0x%016llxull;\n", name,
                static_cast<unsigned long long>(got));
    return;
  }
  EXPECT_EQ(got, want) << name << " digest changed: the output is no longer "
                       << "bit-identical to the pinned reference";
}

// ---------------------------------------------------------------- FFT ---

TEST(Fft, DcSignal) {
  std::vector<std::complex<double>> x(8, {1.0, 0.0});
  fft(x);
  EXPECT_NEAR(x[0].real(), 8.0, 1e-12);
  for (std::size_t k = 1; k < 8; ++k) EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin) {
  constexpr std::size_t n = 64;
  std::vector<std::complex<double>> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(2.0 * M_PI * 5.0 * static_cast<double>(i) / n);
  fft(x);
  EXPECT_NEAR(std::abs(x[5]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(x[n - 5]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(x[3]), 0.0, 1e-9);
}

TEST(Fft, RoundTripRestoresSignal) {
  Rng r(8);
  std::vector<std::complex<double>> x(256);
  for (auto& v : x) v = {r.normal(), r.normal()};
  auto orig = x;
  fft(x);
  ifft(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-9);
    EXPECT_NEAR(x[i].imag(), orig[i].imag(), 1e-9);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng r(9);
  std::vector<std::complex<double>> x(128);
  for (auto& v : x) v = {r.normal(), 0.0};
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  fft(x);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 128.0, time_energy, 1e-6);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> x(6);
  EXPECT_THROW(fft(x), std::invalid_argument);
}

// Digest of fft and ifft over every power-of-two size 1..2^16 (seeded
// complex input; the ifft runs on the fft's output).
std::uint64_t fft_digest() {
  Digest d;
  for (std::size_t n = 1; n <= (1u << 16); n <<= 1) {
    Rng r(n);
    std::vector<std::complex<double>> x(n);
    for (auto& v : x) v = {r.normal(), r.normal()};
    fft(x);
    d.cplx(x);
    ifft(x);
    d.cplx(x);
  }
  return d.h;
}

constexpr std::uint64_t kGoldenFft = 0x2595b6cae5bb2398ull;

TEST(Fft, BitIdenticalToPinnedDigest) {
  check_golden("Fft", fft_digest(), kGoldenFft);
}

// Digest of fft and ifft at 2^17 and 2^18 points, the sizes whose stages
// outgrow a cache block (2^18 is the transform generate_fgn runs for
// FgnRateGenerator's series).  Each component is drawn at random from
// +0, -0, a subnormal, a magnitude near 1e295 or a plain normal, so
// signed-zero sums and wide dynamic ranges pass through every butterfly.
std::uint64_t fft_large_digest() {
  Digest d;
  for (std::size_t n : {std::size_t{1} << 17, std::size_t{1} << 18}) {
    Rng r(n + 1);
    auto component = [&r]() -> double {
      switch (r.engine()() % 8) {
        case 0: return 0.0;
        case 1: return -0.0;
        case 2: return r.normal() * 0x1p-1060;  // subnormal (or zero)
        case 3: return r.normal() * 1e295;
        default: return r.normal();
      }
    };
    std::vector<std::complex<double>> x(n);
    for (auto& v : x) {
      const double re = component();
      v = {re, component()};
    }
    fft(x);
    d.cplx(x);
    ifft(x);
    d.cplx(x);
  }
  return d.h;
}

constexpr std::uint64_t kGoldenFftLarge = 0x62cb661e416582faull;

TEST(Fft, LargeSizesBitIdenticalToPinnedDigest) {
  check_golden("FftLarge", fft_large_digest(), kGoldenFftLarge);
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

// Past 2^63 no power of two fits in size_t: a structured error, not the
// endless doubling loop a wrapped shift would give.
TEST(Fft, NextPow2RejectsUnrepresentable) {
  constexpr std::size_t top = std::size_t{1} << 63;
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(top - 1), top);
  EXPECT_EQ(next_pow2(top), top);
  EXPECT_THROW(next_pow2(top + 1), std::length_error);
  EXPECT_THROW(next_pow2(std::numeric_limits<std::size_t>::max()), std::length_error);
}

// ---------------------------------------------------------------- fGn ---

TEST(Fgn, AutocovarianceAtLagZeroIsVariance) {
  EXPECT_NEAR(fgn_autocovariance(0.75, 0), 1.0, 1e-12);
}

TEST(Fgn, WhiteNoiseCaseHasZeroCovariance) {
  // H = 0.5 is IID: gamma(k) = 0 for k >= 1.
  for (std::size_t k = 1; k < 10; ++k)
    EXPECT_NEAR(fgn_autocovariance(0.5, k), 0.0, 1e-12);
}

TEST(Fgn, PositiveCorrelationForHighHurst) {
  for (std::size_t k = 1; k < 10; ++k)
    EXPECT_GT(fgn_autocovariance(0.8, k), 0.0);
}

TEST(Fgn, UnitVarianceAndZeroMean) {
  // Long-range dependence makes the sample mean itself noisy:
  // Var[mean of n] = n^{2H-2}, so at H = 0.8, n = 2^14 the sample mean has
  // stddev ~0.14 — tolerances must reflect that, not IID intuition (this
  // is precisely the paper's first pitfall applied to our own generator).
  Rng r(17);
  auto x = generate_fgn(1 << 14, 0.8, r);
  EXPECT_NEAR(mean(x), 0.0, 0.45);  // ~3 sigma for H=0.8
  EXPECT_NEAR(variance(x), 1.0, 0.25);
}

TEST(Fgn, SampleMeanNoisierAtHighHurst) {
  // Eq. (4) vs Eq. (5): across seeds, the spread of sample means must be
  // far larger for H=0.9 than for H=0.5 at the same n.
  RunningStats iid_means, lrd_means;
  for (std::uint64_t s = 0; s < 12; ++s) {
    Rng r1(100 + s), r2(100 + s);
    iid_means.add(mean(generate_fgn(1 << 12, 0.5, r1)));
    lrd_means.add(mean(generate_fgn(1 << 12, 0.9, r2)));
  }
  EXPECT_GT(lrd_means.stddev(), 3.0 * iid_means.stddev());
}

TEST(Fgn, EmpiricalLagOneCovarianceMatchesTheory) {
  Rng r(18);
  auto x = generate_fgn(1 << 15, 0.8, r);
  double m = mean(x);
  double c1 = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) c1 += (x[i] - m) * (x[i - 1] - m);
  c1 /= static_cast<double>(x.size() - 1);
  EXPECT_NEAR(c1, fgn_autocovariance(0.8, 1), 0.05);
}

TEST(Fgn, RejectsBadParameters) {
  Rng r(1);
  EXPECT_THROW(generate_fgn(0, 0.8, r), std::invalid_argument);
  EXPECT_THROW(generate_fgn(64, 0.0, r), std::invalid_argument);
  EXPECT_THROW(generate_fgn(64, 1.0, r), std::invalid_argument);
  EXPECT_THROW(generate_fgn(64, -0.5, r), std::invalid_argument);
  EXPECT_THROW(generate_fgn(64, std::numeric_limits<double>::quiet_NaN(), r),
               std::invalid_argument);
  EXPECT_THROW(generate_fgn(64, std::numeric_limits<double>::infinity(), r),
               std::invalid_argument);
  EXPECT_THROW(generate_fgn(64, -std::numeric_limits<double>::infinity(), r),
               std::invalid_argument);
}

// Series whose circulant (2 * next_pow2(n) points) cannot be indexed by
// size_t are refused before anything is allocated or drawn.
TEST(Fgn, RejectsUnrepresentableLength) {
  constexpr std::size_t top = std::size_t{1} << 63;
  Rng r(3), ref(3);
  EXPECT_THROW(generate_fgn((top >> 1) + 1, 0.8, r), std::length_error);
  EXPECT_THROW(generate_fgn(top, 0.8, r), std::length_error);
  EXPECT_THROW(generate_fgn(top + 1, 0.8, r), std::length_error);
  EXPECT_THROW(generate_fgn(std::numeric_limits<std::size_t>::max(), 0.8, r), std::length_error);
  EXPECT_EQ(r.engine()(), ref.engine()());  // no draws spent on the throws
}

// Digest of generate_fgn over a grid of sizes (including non-powers of
// two, n = 1 and the 2^17 series FgnRateGenerator draws), Hurst values and
// seeds.  The generator's next draw after each call is folded in, so the
// number and order of RNG draws are pinned along with the output bits.
std::uint64_t fgn_digest() {
  Digest d;
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                        std::size_t{1000}, std::size_t{(1u << 14) + 5},
                        std::size_t{1u << 17}}) {
    for (double hurst : {0.3, 0.5, 0.8, 0.9}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng r(seed);
        for (double v : generate_fgn(n, hurst, r)) d.f64(v);
        d.u64(r.engine()());
      }
    }
  }
  return d.h;
}

constexpr std::uint64_t kGoldenFgn = 0xc59a32254b85c12aull;

TEST(Fgn, BitIdenticalToPinnedDigest) {
  check_golden("Fgn", fgn_digest(), kGoldenFgn);
}

// The circulant spectrum is cached process-wide.  These tests use (n, H)
// keys no other test in this binary touches, so their first calls are
// cold.

TEST(FgnSharedSpectrum, ParallelCallsMatchSerial) {
  // Mixed keys from four threads, several tasks per key, all cold at the
  // start: concurrent misses race to fill the cache.
  struct Task {
    std::size_t n;
    double hurst;
    std::uint64_t seed;
  };
  std::vector<Task> tasks;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    for (std::size_t n : {std::size_t{700}, std::size_t{5000}, std::size_t{40000}})
      for (double hurst : {0.41, 0.67, 0.83}) tasks.push_back({n, hurst, seed});
  auto run = [&](std::size_t i) {
    Rng r(tasks[i].seed);
    auto x = generate_fgn(tasks[i].n, tasks[i].hurst, r);
    x.push_back(static_cast<double>(r.engine()()));
    return x;
  };
  abw::runner::BatchRunner parallel(4);
  auto got = parallel.map(tasks.size(), run);
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(got[i], run(i)) << "task " << i;
}

TEST(FgnSharedSpectrum, ColdAndWarmCallsAreIdentical) {
  Rng cold_rng(21), warm_rng(21);
  auto cold = generate_fgn(3000, 0.77, cold_rng);
  auto warm = generate_fgn(3000, 0.77, warm_rng);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold_rng.engine()(), warm_rng.engine()());
  // Same spectrum (next_pow2(2500) == next_pow2(3000)), shorter output.
  Rng prefix_rng(21);
  auto prefix = generate_fgn(2500, 0.77, prefix_rng);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), cold.begin()));
}

TEST(FgnSharedSpectrum, ThrowingCallLeavesCacheAndRngUsable) {
  Rng ref_rng(5);
  auto ref = generate_fgn(500, 0.71, ref_rng);
  Rng r(5);
  EXPECT_THROW(generate_fgn(500, std::numeric_limits<double>::quiet_NaN(), r),
               std::invalid_argument);
  EXPECT_THROW(generate_fgn(0, 0.71, r), std::invalid_argument);
  EXPECT_EQ(generate_fgn(500, 0.71, r), ref);  // no draws spent on the throws
}

TEST(FgnSharedSpectrum, EvictedSpectrumIsRecomputedIdentically) {
  // Two 2^19-sample spectra hold more than the cache keeps, so the second
  // evicts the first and the repeat call recomputes it.
  constexpr std::size_t n = std::size_t{1} << 19;
  Rng r1(31), r2(32), r3(31);
  auto first = generate_fgn(n, 0.61, r1);
  generate_fgn(n, 0.62, r2);
  EXPECT_EQ(generate_fgn(n, 0.61, r3), first);
}

// The paper's Eq. (5): Var[A_tau aggregated by k] = Var[A_tau] / k^{2(1-H)}.
// Property sweep over Hurst values: block-mean variance must follow the
// self-similar scaling law, which also exercises the synthesizer itself.
class FgnScaling : public ::testing::TestWithParam<double> {};

TEST_P(FgnScaling, VarianceFollowsEqFive) {
  double hurst = GetParam();
  Rng r(1234);
  auto x = generate_fgn(1 << 16, hurst, r);
  auto pts = variance_time_plot(x, {1, 4, 16, 64});
  ASSERT_EQ(pts.size(), 4u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    double k = static_cast<double>(pts[i].m) / pts[0].m;
    double predicted = pts[0].variance / std::pow(k, 2.0 * (1.0 - hurst));
    EXPECT_NEAR(pts[i].variance / predicted, 1.0, 0.35)
        << "H=" << hurst << " m=" << pts[i].m;
  }
}

INSTANTIATE_TEST_SUITE_P(HurstSweep, FgnScaling,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9));

// -------------------------------------------------------------- Hurst ---

class HurstRecovery : public ::testing::TestWithParam<double> {};

TEST_P(HurstRecovery, VarianceTimeEstimatorRecoversH) {
  double hurst = GetParam();
  Rng r(99);
  auto x = generate_fgn(1 << 16, hurst, r);
  EXPECT_NEAR(hurst_variance_time(x), hurst, 0.08) << "H=" << hurst;
}

INSTANTIATE_TEST_SUITE_P(HurstSweep, HurstRecovery,
                         ::testing::Values(0.55, 0.7, 0.8));

TEST(Hurst, HighHurstRecoveredWithKnownBias) {
  // The variance-time estimator is biased low for strong LRD; at H = 0.9
  // it typically lands in the mid-0.8s.  Assert the qualitative recovery.
  Rng r(99);
  auto x = generate_fgn(1 << 16, 0.9, r);
  double h = hurst_variance_time(x);
  EXPECT_GT(h, 0.78);
  EXPECT_LT(h, 0.98);
}

TEST(Hurst, RsEstimatorSeparatesShortAndLongRange) {
  Rng r(100);
  auto iid = generate_fgn(1 << 14, 0.5, r);
  auto lrd = generate_fgn(1 << 14, 0.85, r);
  double h_iid = hurst_rescaled_range(iid);
  double h_lrd = hurst_rescaled_range(lrd);
  EXPECT_LT(h_iid, h_lrd);
  EXPECT_GT(h_lrd, 0.7);
}

TEST(Hurst, RejectsShortSeries) {
  std::vector<double> x(16, 1.0);
  EXPECT_THROW(hurst_variance_time(x), std::invalid_argument);
  EXPECT_THROW(hurst_rescaled_range(x), std::invalid_argument);
}

TEST(Hurst, VariancTimePlotSkipsOversizedLevels) {
  std::vector<double> x(64, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i % 7);
  auto pts = variance_time_plot(x, {1, 2, 64, 128});
  EXPECT_EQ(pts.size(), 2u);  // 64 and 128 leave < 2 blocks
}

// IID variance scaling, Eq. (4): variance of k-block means is Var/k.
TEST(Hurst, IidVarianceScalesInverselyWithK) {
  Rng r(55);
  std::vector<double> x;
  for (int i = 0; i < (1 << 15); ++i) x.push_back(r.normal());
  auto pts = variance_time_plot(x, {1, 8, 64});
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_NEAR(pts[1].variance, pts[0].variance / 8.0, pts[0].variance * 0.1);
  EXPECT_NEAR(pts[2].variance, pts[0].variance / 64.0, pts[0].variance * 0.02);
}

}  // namespace
