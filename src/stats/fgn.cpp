#include "stats/fgn.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "stats/fft.hpp"

namespace abw::stats {

double fgn_autocovariance(double hurst, std::size_t lag) {
  double k = static_cast<double>(lag);
  double h2 = 2.0 * hurst;
  return 0.5 * (std::pow(k + 1.0, h2) - 2.0 * std::pow(k, h2) +
                std::pow(std::abs(k - 1.0), h2));
}

namespace {

// Per-frequency scale factors of the Davies-Harte synthesis for one
// (half = next_pow2(n), hurst): sqrt(lambda_j) at j = 0 and j = half,
// sqrt(lambda_j / 2) in between, where lambda_j are the eigenvalues of the
// circulant embedding of the fGn autocovariance.  None of it depends on
// the RNG, so it is computed once and shared.
using Spectrum = std::shared_ptr<const std::vector<double>>;

Spectrum compute_spectrum(std::size_t half, double hurst) {
  // Embed the covariance into a circulant of size m = 2 * half.
  std::size_t m = 2 * half;
  std::vector<std::complex<double>> c(m);
  for (std::size_t k = 0; k <= half; ++k) c[k] = fgn_autocovariance(hurst, k);
  for (std::size_t k = half + 1; k < m; ++k) c[k] = c[m - k];

  fft(c);  // eigenvalues of the circulant (real, non-negative for fGn)

  auto scale = std::make_shared<std::vector<double>>(half + 1);
  for (std::size_t j = 0; j <= half; ++j) {
    double lambda = c[j].real();
    if (lambda < 0.0) {
      // Theoretically impossible for fGn; clamp tiny negative round-off.
      if (lambda < -1e-9) throw std::runtime_error("generate_fgn: negative eigenvalue");
      lambda = 0.0;
    }
    (*scale)[j] = (j == 0 || j == half) ? std::sqrt(lambda) : std::sqrt(lambda / 2.0);
  }
  return scale;
}

// Process-wide cache of spectra, bounded by the doubles it holds (8 MiB:
// seven spectra for the 2^17-sample series FgnRateGenerator draws, ~1 MiB
// each); the oldest entries go first.  A spectrum larger than the whole
// budget is computed per call and not kept.  Entries are immutable and
// handed out as shared_ptr, so eviction never pulls one from under a
// running call.  Computing happens outside the lock: two threads missing
// on the same key both compute it, and since the spectrum is a pure
// function of the key either result is the same.
class SpectrumCache {
 public:
  Spectrum get(std::size_t half, double hurst) {
    {
      std::lock_guard lock(mu_);
      if (Spectrum hit = find(half, hurst)) return hit;
    }
    Spectrum scale = compute_spectrum(half, hurst);  // throws: nothing cached
    if (scale->size() > kMaxDoubles) return scale;
    std::lock_guard lock(mu_);
    if (Spectrum hit = find(half, hurst)) return hit;  // filled meanwhile
    held_ += scale->size();
    entries_.push_back({half, hurst, scale});
    while (held_ > kMaxDoubles) {
      held_ -= entries_.front().scale->size();
      entries_.erase(entries_.begin());
    }
    return scale;
  }

 private:
  static constexpr std::size_t kMaxDoubles = std::size_t{1} << 20;
  struct Entry {
    std::size_t half;
    double hurst;
    Spectrum scale;
  };

  // Caller holds mu_.
  Spectrum find(std::size_t half, double hurst) const {
    for (const Entry& e : entries_)
      if (e.half == half && e.hurst == hurst) return e.scale;
    return nullptr;
  }

  std::mutex mu_;
  std::vector<Entry> entries_;  // oldest first; guarded by mu_
  std::size_t held_ = 0;        // doubles held by entries_; guarded by mu_
};

SpectrumCache& spectrum_cache() {
  static SpectrumCache cache;
  return cache;
}

}  // namespace

std::vector<double> generate_fgn(std::size_t n, double hurst, Rng& rng) {
  if (n == 0) throw std::invalid_argument("generate_fgn: n must be > 0");
  if (!(hurst > 0.0 && hurst < 1.0))  // also rejects NaN
    throw std::invalid_argument("generate_fgn: hurst must be in (0,1)");

  std::size_t half = next_pow2(n);
  if (half > std::numeric_limits<std::size_t>::max() / 2)  // m would wrap to 0
    throw std::length_error("generate_fgn: n too large for the circulant embedding");
  std::size_t m = 2 * half;
  Spectrum spectrum = spectrum_cache().get(half, hurst);
  const std::vector<double>& scale = *spectrum;

  // Random Hermitian-symmetric spectrum.  The draw order (ascending j,
  // imaginary part before real part) defines the stream every seeded
  // experiment reproduces; the golden digests pin it.  The normals come
  // from Rng::normals, which gives the deviates (and leaves the engine
  // state) of one normal() call per draw however the draws are split:
  // here one for j = 0, kChunk at a time for the pairs of 0 < j < half,
  // and one for j = half.
  constexpr std::size_t kChunk = 1024;
  double z[kChunk];
  std::vector<std::complex<double>> v;  // built in order, never zeroed
  v.reserve(m);
  rng.normals(z, 1);
  v.emplace_back(scale[0] * z[0]);
  for (std::size_t j0 = 1; j0 < half; j0 += kChunk / 2) {
    const std::size_t count = std::min(kChunk / 2, half - j0);
    rng.normals(z, 2 * count);
    for (std::size_t k = 0; k < count; ++k) {
      const double s = scale[j0 + k];
      v.emplace_back(s * z[2 * k + 1], s * z[2 * k]);  // (re, im)
    }
  }
  rng.normals(z, 1);
  v.emplace_back(scale[half] * z[0]);
  for (std::size_t j = half - 1; j >= 1; --j) v.push_back(std::conj(v[j]));  // v[m - j]

  fft(v);
  std::vector<double> out(n);
  double norm = 1.0 / std::sqrt(static_cast<double>(m));
  for (std::size_t i = 0; i < n; ++i) out[i] = v[i].real() * norm;
  return out;
}

}  // namespace abw::stats
