// Micro-benchmarks of the statistics primitives (google-benchmark): random
// draws, FFT, fGn synthesis, trend statistics, and regression — the
// per-stream and per-trace costs every estimator pays.
#include <benchmark/benchmark.h>

#include <vector>

#include "stats/fft.hpp"
#include "stats/fgn.hpp"
#include "stats/hurst.hpp"
#include "stats/regression.hpp"
#include "stats/rng.hpp"
#include "stats/trend.hpp"

namespace {

using namespace abw::stats;

// The draws every traffic source and fGn series is made of: one raw
// engine word (tempering plus the amortized twist), one Poisson gap, one
// normal deviate (polar method, ~2.55 words per deviate), one by one or
// in a batch.
void BM_RngEngine(benchmark::State& state) {
  Rng rng(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(rng.engine()());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngEngine)->Arg(1);

void BM_RngExponential(benchmark::State& state) {
  Rng rng(static_cast<std::uint64_t>(state.range(0)));
  const double mean = 1e-3 * static_cast<double>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(rng.exponential(mean));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential)->Arg(1);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNormal)->Arg(1);

// The batched path generate_fgn draws its 2^18 normals through; the same
// deviates as BM_RngNormal's calls.
void BM_RngNormals(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.normals(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RngNormals)->Arg(1 << 18);

void BM_Fft(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::complex<double>> base(n);
  for (auto& v : base) v = {rng.normal(), 0.0};
  for (auto _ : state) {
    auto x = base;
    fft(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// 1 << 18 is the transform generate_fgn runs for FgnRateGenerator's series.
BENCHMARK(BM_Fft)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 18);

void BM_FgnSynthesis(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    auto x = generate_fgn(n, 0.8, rng);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// 1 << 17 is the series length FgnRateGenerator draws; the spectrum is
// cached after the first iteration, as it is across a campaign's scenarios.
BENCHMARK(BM_FgnSynthesis)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 17);

void BM_TrendCombined(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> owds;
  for (int i = 0; i < 160; ++i) owds.push_back(1e-5 * i + 1e-4 * rng.normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(combined_trend(owds));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrendCombined);

void BM_HurstVarianceTime(benchmark::State& state) {
  Rng rng(4);
  auto x = generate_fgn(1 << 14, 0.8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hurst_variance_time(x));
  }
}
BENCHMARK(BM_HurstVarianceTime);

void BM_LinearFit(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> xs, ys;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i + rng.normal());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear_fit(xs, ys));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LinearFit);

}  // namespace
