// Deterministic random number generation for simulations.
//
// Every stochastic component in the library draws from an `abw::stats::Rng`
// seeded explicitly, so that each experiment is exactly reproducible.  The
// distributions offered here are the ones the paper's workloads need:
// uniform, exponential (Poisson processes), Pareto (heavy-tailed ON/OFF
// traffic), and normal (fGn synthesis).
//
// The streams are defined by this library's own code, not by the standard
// library: `Mt19937_64` is MT19937-64, and the distributions are written
// out in rng.cpp.  Both reproduce libstdc++'s std::mt19937_64 and
// std::*_distribution bit for bit (stats_test pins that), so every seeded
// experiment and golden digest is what it was when they were std types.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace abw::stats {

/// MT19937-64 (Matsumoto & Nishimura, 2000): output-identical to
/// std::mt19937_64 for the same seed.  Satisfies UniformRandomBitGenerator,
/// so std distributions accept it.  The state is 312 words plus an index.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  result_type operator()() {
    if (pos_ >= kN) twist();
    return temper(state_[pos_++]);
  }

  /// Writes the next n words to out: exactly what n calls of operator()
  /// return, leaving the engine in the same state.  Each state block is
  /// tempered in one straight loop, which vectorizes.
  void fill(result_type* out, std::size_t n);

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  static std::uint64_t temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  /// Regenerates all kN words and rewinds pos_.
  void twist();

  std::uint64_t state_[kN];
  std::size_t pos_ = kN;
};

/// Converts one 64-bit word to a double in [0, 1): bit-exact with
/// libstdc++'s generate_canonical<double, 53> over a 64-bit engine (what
/// uniform_real_distribution, exponential_distribution,
/// bernoulli_distribution and normal_distribution reduce to).  That
/// converts the word to double (round to nearest even), scales it by
/// 2^-64, and clamps the 1.0 that words within 2^10 of the top round up
/// to down to nextafter(1, 0).  stats_test pins the equality on the
/// rounding edges (Rng.Canonical53MatchesStdOnRoundingEdges) and along
/// real streams (Rng.RngFastPathExact).
///
/// The conversion is split in two exact halves, each 32-bit half placed
/// in the low mantissa bits of a power of two which is then subtracted:
/// 2^20 + hi 2^-32 gives hi 2^-32, 2^-12 + lo 2^-64 gives lo 2^-64.  The
/// halves' sum is the only rounding, and scaling by 2^-64 commutes with
/// it, so the result has the bits of the scaled cast.  A plain
/// uint64 -> double cast is a branch on the sign bit without AVX-512;
/// this is straight-line integer and double arithmetic, so a loop that
/// converts a block of words (Rng::normals) vectorizes.  The clamp is
/// taken once in 2^54 words: a branch that predicts in scalar code, a
/// select in vector code.
inline double canonical53(std::uint64_t raw) {
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  const double hi = std::bit_cast<double>(0x4130000000000000ULL | (raw >> 32)) - 0x1.0p20;
  const double lo =
      std::bit_cast<double>(0x3f30000000000000ULL | (raw & 0xffffffffULL)) - 0x1.0p-12;
  const double u = hi + lo;
  return u < kBelowOne ? u : kBelowOne;
}

/// A seedable pseudo-random generator with the distributions used across
/// the library; copyable so generators can fork deterministic sub-streams
/// via `fork()`.
class Rng {
 public:
  /// Constructs a generator from an explicit 64-bit seed.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1).
  double uniform01();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (mean = 1/lambda).  mean must be > 0.
  double exponential(double mean);

  /// Pareto with shape `alpha` and scale (minimum value) `xm`:
  /// P(X > x) = (xm/x)^alpha for x >= xm.  For alpha <= 1 the mean is
  /// infinite; callers model heavy-tailed OFF periods with alpha in (1, 2).
  double pareto(double alpha, double xm);

  /// Standard normal (mean 0, stddev 1).
  double normal();

  /// Writes n standard normals to out: exactly what n calls of normal()
  /// return, bit for bit, leaving the engine in the same state.  Faster
  /// than the calls: words are drawn, converted and screened in batches,
  /// and the accepted polar pairs finished in a second tight loop.
  void normals(double* out, std::size_t n);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Derives an independent deterministic child generator.  Used to give
  /// each traffic source its own stream while keeping one experiment seed.
  Rng fork();

  /// Direct access for std distributions that need an engine.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace abw::stats
