#include "stats/rng.hpp"

#include <algorithm>
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

void Mt19937_64::fill(result_type* out, std::size_t n) {
  while (n > 0) {
    if (pos_ >= kN) twist();
    const std::size_t take = std::min(n, kN - pos_);
    const std::uint64_t* src = state_ + pos_;
    for (std::size_t i = 0; i < take; ++i) out[i] = temper(src[i]);
    pos_ += take;
    out += take;
    n -= take;
  }
}

namespace {

// libstdc++'s normal_distribution(0, 1) on a fresh object is Marsaglia's
// polar method: x and y uniform on [-1, 1) from two draws, rejected
// unless 0 < r2 = x^2 + y^2 <= 1.  The method yields two deviates; the
// library would save x * mult for its next call, but a fresh distribution
// per call never makes one, so it is not computed.
inline double polar_coordinate(double u) { return 2.0 * u - 1.0; }
inline double polar_r2(double x, double y) { return x * x + y * y; }
inline bool polar_accepts(double r2) { return !((r2 > 1.0) | (r2 == 0.0)); }
// `* 1.0 + 0.0` is the stddev and mean step; the + 0.0 turns the -0.0
// that r2 == 1 can give into +0.0.
inline double polar_finish(double y, double r2, double log_r2) {
  return y * std::sqrt(-2 * log_r2 / r2) * 1.0 + 0.0;
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
  double y = 0.0, r2 = 0.0;
  do {
    const double x = polar_coordinate(uniform01());
    y = polar_coordinate(uniform01());
    r2 = polar_r2(x, y);
  } while (!polar_accepts(r2));
  return polar_finish(y, r2, std::log(r2));
}

void Rng::normals(double* out, std::size_t n) {
  // Each deviate consumes at least one pair of words, so a round that
  // draws 2 * min(kPairs, n) words never draws past the last word the n
  // calls would take: if every pair is accepted the round ends exactly on
  // a deviate, and otherwise its trailing rejected pairs are the ones the
  // next call would reject too.
  constexpr std::size_t kPairs = 128;
  std::uint64_t words[2 * kPairs];
  double us[2 * kPairs], ys[kPairs], r2s[kPairs];
  while (n > 0) {
    const std::size_t pairs = std::min(kPairs, n);
    engine_.fill(words, 2 * pairs);
    // canonical53 gets a loop of its own: fused with the arithmetic below,
    // GCC 12 turns its clamp into a branch and vectorizes neither.
    for (std::size_t i = 0; i < 2 * pairs; ++i) us[i] = canonical53(words[i]);
    for (std::size_t i = 0; i < pairs; ++i) {
      const double x = polar_coordinate(us[2 * i]);
      ys[i] = polar_coordinate(us[2 * i + 1]);
      r2s[i] = polar_r2(x, ys[i]);
    }
    std::size_t got = 0;
    for (std::size_t i = 0; i < pairs; ++i) {  // keep the accepted pairs
      const double y = ys[i], r2 = r2s[i];
      ys[got] = y;
      r2s[got] = r2;
      got += polar_accepts(r2);
    }
    for (std::size_t i = 0; i < got; ++i)
      out[i] = polar_finish(ys[i], r2s[i], std::log(r2s[i]));
    out += got;
    n -= got;
  }
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
