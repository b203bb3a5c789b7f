#include "stats/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace abw::stats {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Core iterative FFT; sign = -1 for forward, +1 for inverse (unnormalized).
void transform(std::vector<std::complex<double>>& a, int sign) {
  std::size_t n = a.size();
  if (!is_pow2(n)) throw std::invalid_argument("fft: size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  // Every butterfly group of a stage uses the same twiddles, so each
  // stage tabulates them once, by the w *= wlen recurrence whose rounding
  // the pinned digests encode.  The butterfly works on the interleaved
  // doubles ([complex.numbers] allows the array access) in explicit real
  // arithmetic: the a*c - b*d / a*d + b*c that operator* computes for
  // finite operands, without its Annex G infinity-recovery branch, which
  // blocks vectorization.  Outputs are bit-identical for finite inputs.
  std::vector<double> tw_re(n / 2), tw_im(n / 2);
  double* d = reinterpret_cast<double*>(a.data());
  for (std::size_t len = 2; len <= n; len <<= 1) {
    std::size_t half = len / 2;
    double ang = sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    std::complex<double> wlen(std::cos(ang), std::sin(ang));
    std::complex<double> w(1.0, 0.0);
    for (std::size_t k = 0; k < half; ++k) {
      tw_re[k] = w.real();
      tw_im[k] = w.imag();
      w *= wlen;
    }
    for (std::size_t i = 0; i < n; i += len) {
      double* lo = d + 2 * i;
      double* hi = d + 2 * (i + half);
      for (std::size_t k = 0; k < half; ++k) {
        double c = tw_re[k], s = tw_im[k];
        double hr = hi[2 * k], hm = hi[2 * k + 1];
        double vr = hr * c - hm * s;
        double vi = hr * s + hm * c;
        double ur = lo[2 * k], ui = lo[2 * k + 1];
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
  }
}

}  // namespace

void fft(std::vector<std::complex<double>>& data) { transform(data, -1); }

void ifft(std::vector<std::complex<double>>& data) {
  transform(data, +1);
  double inv = 1.0 / static_cast<double>(data.size());
  for (auto& x : data) x *= inv;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace abw::stats
