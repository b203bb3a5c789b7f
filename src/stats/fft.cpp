#include "stats/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace abw::stats {

namespace {

// Complex values per cache block: 2^13 of them are 128 KiB, which stays
// in L2 (and mostly L1) while every stage of length <= kBlock runs on it.
constexpr std::size_t kBlock = std::size_t{1} << 13;

// Twiddles a stage longer than the block tabulates at a time.
constexpr std::size_t kChunk = 256;

std::size_t reverse_bits(std::size_t x, std::size_t bits) {
  std::size_t r = 0;
  for (std::size_t b = 0; b < bits; ++b, x >>= 1) r = (r << 1) | (x & 1);
  return r;
}

// Bit-reversal permutation of n = 2^bits values, tile by tile.  An index
// splits into [h | m | l] with h and l `edge` bits wide; its partner is
// [rev l | rev m | rev h].  Tile m (all h, l) therefore swaps with tile
// rev m as a whole: 2^edge runs of 2^edge consecutive values each, both
// tiles in L1 while they are exchanged, so every cache line fetched is
// used in full instead of once per element.
void bit_reverse(std::complex<double>* a, std::size_t bits) {
  const std::size_t edge = std::min<std::size_t>(3, bits / 2);
  const std::size_t mid = bits - 2 * edge;
  const std::size_t side = std::size_t{1} << edge;
  const std::size_t high = bits - edge;  // shift of the h field
  std::size_t rev[8];
  for (std::size_t x = 0; x < side; ++x) rev[x] = reverse_bits(x, edge);
  for (std::size_t m = 0; m < (std::size_t{1} << mid); ++m) {
    const std::size_t mr = reverse_bits(m, mid);
    if (mr < m) continue;  // exchanged when the loop was at mr
    for (std::size_t h = 0; h < side; ++h) {
      for (std::size_t l = 0; l < side; ++l) {
        const std::size_t i = (h << high) | (m << edge) | l;
        const std::size_t j = (rev[l] << high) | (mr << edge) | rev[h];
        if (mr != m || i < j) std::swap(a[i], a[j]);
      }
    }
  }
}

// One radix-2 butterfly, (u, h) -> (u + w h, u - w h) with w = c + i s,
// in explicit real arithmetic: the a*c - b*d / a*d + b*c that operator*
// computes for finite operands, without its Annex G infinity-recovery
// branch, which blocks vectorization.
inline void butterfly(double& ur, double& ui, double& hr, double& hm, double c,
                      double s) {
  const double vr = hr * c - hm * s;
  const double vi = hr * s + hm * c;
  const double r = ur, i = ui;
  ur = r + vr;
  ui = i + vi;
  hr = r - vr;
  hm = i - vi;
}

// Butterflies k0 .. k0 + count - 1 of every group of stage `len` in the
// n values at d (interleaved doubles, which [complex.numbers] allows);
// c[k], s[k] is twiddle k0 + k.
void stage(double* d, std::size_t n, std::size_t len, std::size_t k0,
           std::size_t count, const double* c, const double* s) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    double* lo = d + 2 * (i + k0);
    double* hi = lo + 2 * half;
    for (std::size_t k = 0; k < count; ++k)
      butterfly(lo[2 * k], lo[2 * k + 1], hi[2 * k], hi[2 * k + 1], c[k], s[k]);
  }
}

// One group of the fused stages len = 2 half and 2 len: its quarters a0,
// a1, a2, a3 hold half values each.  Quad k (value k of each quarter) is
// closed under the two stages, so its four butterflies run back to back,
// in stage order, each on the operands and twiddle its stage gives it
// (stage len's twiddle k, stage 2 len's twiddles k and half + k).  The
// quarters never overlap, which __restrict tells the vectorizer.
void quads(double* __restrict a0, double* __restrict a1, double* __restrict a2,
           double* __restrict a3, const double* __restrict c,
           const double* __restrict s, std::size_t half) {
  const double* c1 = c + half;  // stage len's twiddles
  const double* s1 = s + half;
  const double* c2 = c + 2 * half;  // stage 2 len's twiddles
  const double* s2 = s + 2 * half;
  for (std::size_t k = 0; k < half; ++k) {
    const std::size_t re = 2 * k, im = 2 * k + 1;
    double r0 = a0[re], i0 = a0[im], r1 = a1[re], i1 = a1[im];
    double r2 = a2[re], i2 = a2[im], r3 = a3[re], i3 = a3[im];
    butterfly(r0, i0, r1, i1, c1[k], s1[k]);
    butterfly(r2, i2, r3, i3, c1[k], s1[k]);
    butterfly(r0, i0, r2, i2, c2[k], s2[k]);
    butterfly(r1, i1, r3, i3, c2[half + k], s2[half + k]);
    a0[re] = r0, a0[im] = i0, a1[re] = r1, a1[im] = i1;
    a2[re] = r2, a2[im] = i2, a3[re] = r3, a3[im] = i3;
  }
}

// Stages len and 2 len over the n values at d in one pass; c and s hold
// stage len's twiddles at [len/2, len) and stage 2 len's at [len, 2 len).
void stage_pair(double* d, std::size_t n, std::size_t len, const double* c,
                const double* s) {
  const std::size_t q = len;  // doubles per quarter
  for (double* g = d; g < d + 2 * n; g += 4 * q)
    quads(g, g + q, g + 2 * q, g + 3 * q, c, s, len / 2);
}

// Stage len's twiddle step, e^(sign 2 pi i / len).
std::complex<double> twiddle_step(int sign, std::size_t len) {
  const double ang = sign * 2.0 * std::numbers::pi / static_cast<double>(len);
  return {std::cos(ang), std::sin(ang)};
}

// The next count twiddles of a stage, by the w *= wlen recurrence whose
// rounding the pinned digests encode: real parts to c, imaginary to s.
void tabulate(double* c, double* s, std::size_t count, std::complex<double>& w,
              std::complex<double> wlen) {
  for (std::size_t k = 0; k < count; ++k) {
    c[k] = w.real();
    s[k] = w.imag();
    w *= wlen;
  }
}

// Core iterative FFT; sign = -1 for forward, +1 for inverse (unnormalized).
//
// Stage len's twiddle k is the k-th value of its w *= wlen recurrence;
// each butterfly (its operands, its twiddle, its operation order) is that
// of the textbook stage-by-stage loop.  Only the order in which
// butterflies are visited differs, and only where they are independent:
// - stages up to kBlock run block by block, so each block stays in cache,
//   with consecutive stage pairs fused into one pass (stage_pair);
// - longer stages run twiddle-outer, kChunk twiddles at a time, each
//   chunk applied to every group, so no n/2-entry table is kept.  The
//   recurrence is a latency-bound chain, so the next chunk is tabulated
//   inside the first group's butterfly loop, where the chain overlaps
//   that work.
void transform(std::vector<std::complex<double>>& a, int sign) {
  const std::size_t n = a.size();
  if (!std::has_single_bit(n)) throw std::invalid_argument("fft: size must be a power of two");
  bit_reverse(a.data(), static_cast<std::size_t>(std::countr_zero(n)));
  if (n == 1) return;
  double* d = reinterpret_cast<double*>(a.data());

  // In-block stages: stage len's twiddles at [len/2, len) of one table.
  const std::size_t block = std::min(n, kBlock);
  std::vector<double> tw_re(block), tw_im(block);
  for (std::size_t len = 2; len <= block; len <<= 1) {
    std::complex<double> w(1.0, 0.0);
    tabulate(&tw_re[len / 2], &tw_im[len / 2], len / 2, w, twiddle_step(sign, len));
  }
  for (double* b = d; b < d + 2 * n; b += 2 * block) {
    std::size_t len = 2;
    for (; 2 * len <= block; len <<= 2) stage_pair(b, block, len, tw_re.data(), tw_im.data());
    if (len == block)  // an odd stage count leaves the block's last stage
      stage(b, block, len, 0, len / 2, &tw_re[len / 2], &tw_im[len / 2]);
  }

  // Stages past the block.
  double tw[4][kChunk];
  for (std::size_t len = 2 * block; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::complex<double> wlen = twiddle_step(sign, len);
    std::complex<double> w(1.0, 0.0);
    double *c = tw[0], *s = tw[1], *c_next = tw[2], *s_next = tw[3];
    tabulate(c, s, kChunk, w, wlen);
    for (std::size_t k0 = 0; k0 < half; k0 += kChunk) {
      double* lo = d + 2 * k0;
      double* hi = lo + 2 * half;
      for (std::size_t k = 0; k < kChunk; ++k) {
        butterfly(lo[2 * k], lo[2 * k + 1], hi[2 * k], hi[2 * k + 1], c[k], s[k]);
        c_next[k] = w.real();  // after the stage's last chunk: never used
        s_next[k] = w.imag();
        w *= wlen;
      }
      stage(d + 2 * len, n - len, len, k0, kChunk, c, s);  // the other groups
      std::swap(c, c_next);
      std::swap(s, s_next);
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
  if (n > std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1))
    throw std::length_error("next_pow2: no power of two >= n fits in size_t");
  return std::bit_ceil(n);
}

}  // namespace abw::stats
