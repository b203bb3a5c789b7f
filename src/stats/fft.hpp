// Iterative radix-2 Cooley-Tukey FFT.  Needed by the Davies-Harte exact
// synthesis of fractional Gaussian noise (fgn.hpp), which in turn produces
// the self-similar synthetic traces substituting for the paper's NLANR
// trace (Figs. 1 and 6).
#pragma once

#include <complex>
#include <vector>

namespace abw::stats {

/// In-place forward FFT.  data.size() must be a power of two (>= 1);
/// throws std::invalid_argument otherwise.
///
/// The output is defined bit for bit by the textbook radix-2 loop: a
/// bit-reversal permutation, then stages len = 2, 4, ..., n, each running
/// butterfly (u, h) -> (u + w h, u - w h) with w the k-th value of the
/// stage's w *= e^(-2 pi i / len) recurrence (the kGoldenFft digests pin
/// it).  The implementation keeps every butterfly's operands, twiddle
/// and operation order but visits them in a cache-friendly order: stages
/// up to 2^13 points block by block, two stages per pass, and longer
/// stages twiddle-outer.  Its twiddle tables take 128 KiB at most (plus
/// 8 KiB of stack), whatever the size.
void fft(std::vector<std::complex<double>>& data);

/// In-place inverse FFT (includes the 1/N normalization).
void ifft(std::vector<std::complex<double>>& data);

/// Returns the smallest power of two >= n (1 for n == 0); throws
/// std::length_error when that exceeds size_t (n > 2^63 on 64 bits).
std::size_t next_pow2(std::size_t n);

}  // namespace abw::stats
