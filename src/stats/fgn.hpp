// Exact synthesis of fractional Gaussian noise (fGn) via the Davies-Harte
// circulant-embedding method.
//
// The paper's Eq. (5) states that for an exactly self-similar avail-bw
// process with Hurst parameter H, Var[A_tau] decays as tau^{-2(1-H)}.  To
// reproduce the trace-driven experiments (Figs. 1 and 6) without the
// proprietary NLANR trace, we synthesize traffic whose rate process is fGn
// with a chosen H — giving us a ground-truth self-similar avail-bw process.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/rng.hpp"

namespace abw::stats {

/// Generates n samples of zero-mean, unit-variance fractional Gaussian
/// noise with Hurst parameter hurst in (0, 1).  Uses Davies-Harte exact
/// circulant embedding (O(n log n)).
///
/// The circulant's spectrum depends only on (next_pow2(n), hurst), so it
/// is computed once and kept in a process-wide cache: bounded (oldest
/// entries go first), thread-safe, and invisible in the output, which is
/// bit-identical whether the spectrum was cached or not.
/// Each call then draws 2 * next_pow2(n) normals from rng and runs one
/// FFT of size 2 * next_pow2(n).  The draws go through Rng::normals in
/// fixed chunks, which gives exactly the deviates (and the final engine
/// state) of one normal() call per draw, in the order the spectrum is
/// filled: ascending frequency, imaginary part before real part.
///
/// Throws std::invalid_argument for n == 0 or hurst outside (0, 1)
/// (NaN included), std::length_error when 2 * next_pow2(n) does not fit
/// in size_t (n > 2^62 on 64 bits), and std::runtime_error if the
/// embedding has a negative eigenvalue beyond round-off, which for fGn
/// covariance does not occur; either way rng is left untouched and
/// nothing is cached.
std::vector<double> generate_fgn(std::size_t n, double hurst, Rng& rng);

/// Theoretical autocovariance of unit-variance fGn at lag k:
/// gamma(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}).
double fgn_autocovariance(double hurst, std::size_t lag);

}  // namespace abw::stats
