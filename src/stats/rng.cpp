#include "stats/rng.hpp"

#include <cmath>
#include <random>
#include <stdexcept>

namespace abw::stats {

void Mt19937_64::twist() {
  // The recurrence of libstdc++'s _M_gen_rand, with the conditional
  // `(y & 1) ? kA : 0` written as a mask: GCC compiles the conditional to
  // a branch taken at random on every word, the mask to straight-line
  // (and vectorizable) code.
  constexpr std::uint64_t kA = 0xb5026f5aa96619e9ULL;
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  auto next = [](std::uint64_t hi, std::uint64_t lo, std::uint64_t c) {
    const std::uint64_t y = (hi & kUpper) | (lo & kLower);
    return c ^ (y >> 1) ^ ((0 - (y & 1)) & kA);
  };
  for (std::size_t k = 0; k < kN - kM; ++k)
    state_[k] = next(state_[k], state_[k + 1], state_[k + kM]);
  for (std::size_t k = kN - kM; k < kN - 1; ++k)
    state_[k] = next(state_[k], state_[k + 1], state_[k + kM - kN]);
  state_[kN - 1] = next(state_[kN - 1], state_[0], state_[kM - 1]);
  pos_ = 0;
}

namespace {
// Bit-exact inline of libstdc++'s generate_canonical<double, 53> over a
// 64-bit engine (what uniform_real_distribution, exponential_distribution,
// bernoulli_distribution and normal_distribution reduce to): the full
// 64-bit draw is converted to double (round-to-nearest) and scaled by
// 2^-64; draws within 2^10 of the top round up to exactly 1.0 and are
// clamped to nextafter(1, 0).  Equality with the std path is enforced by
// stats_test (RngFastPathExact).
//
// The conversion is split in two halves: without AVX-512, a plain
// uint64 -> double cast is a branch on the sign bit.  Each half converts
// exactly (< 2^32, and the scale is a power of two), so their sum is the
// only rounding and gives the cast's bits.  The clamp's branch is taken
// once in 2^54 draws, so it predicts.
inline double canonical53(std::uint64_t raw) {
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  const double hi = static_cast<double>(static_cast<std::uint32_t>(raw >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(raw));
  const double u = (hi * 0x1.0p32 + lo) * 0x1.0p-64;
  return u < kBelowOne ? u : kBelowOne;
}
}  // namespace

double Rng::uniform01() {
  return canonical53(engine_());
}

double Rng::uniform(double lo, double hi) {
  // std::uniform_real_distribution's expression.
  return uniform01() * (hi - lo) + lo;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("Rng::exponential: mean must be > 0");
  // Same expression std::exponential_distribution(1/mean) evaluates,
  // including the division by lambda rather than a multiply by mean (the
  // two round differently); exactness is covered by RngFastPathExact.
  return -std::log(1.0 - uniform01()) / (1.0 / mean);
}

double Rng::pareto(double alpha, double xm) {
  if (alpha <= 0.0 || xm <= 0.0)
    throw std::invalid_argument("Rng::pareto: alpha and xm must be > 0");
  // Inverse-CDF method: X = xm / U^(1/alpha), U ~ Uniform(0,1].
  double u = 1.0 - uniform01();  // in (0, 1]
  return xm / std::pow(u, 1.0 / alpha);
}

double Rng::normal() {
  // libstdc++'s normal_distribution(0, 1) on a fresh object: Marsaglia's
  // polar method in its exact expression order.  The method yields two
  // deviates; the library would save x * mult for its next call, but a
  // fresh distribution per call never makes one, so it is not computed.
  double x = 0.0, y = 0.0, r2 = 0.0;
  do {
    x = 2.0 * uniform01() - 1.0;
    y = 2.0 * uniform01() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  // `* 1.0 + 0.0` is the stddev and mean step; the + 0.0 turns the -0.0
  // that r2 == 1 can give into +0.0.
  return y * std::sqrt(-2 * std::log(r2) / r2) * 1.0 + 0.0;
}

bool Rng::bernoulli(double p) {
  // std::bernoulli_distribution's test.
  return uniform01() < p;
}

Rng Rng::fork() {
  // Draw two words from the parent to seed the child; advances the parent
  // so successive forks are independent.
  std::uint64_t a = engine_();
  std::uint64_t b = engine_();
  return Rng(a ^ (b << 1) ^ 0x9e3779b97f4a7c15ULL);
}

}  // namespace abw::stats
