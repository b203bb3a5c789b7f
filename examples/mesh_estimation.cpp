// Network-wide mesh estimation demo: resolve every source->sink pair of
// an ISP-like parking-lot topology while directly probing only a
// sublinear subset, inferring the rest through shared bottlenecks
// (est/mesh.hpp over core/mesh_scenario.hpp).
//
//   ./mesh_estimation [sources] [sinks] [hops] [probe_fraction]
//
// Defaults: 6 sources, 6 sinks, 6 hops, fraction 0.30.  --help prints the
// usage; a malformed argument prints the message and the usage and exits 2.
//
// The demo prints the greedy-cover probe set, then a per-pair table of
// estimate vs simulated ground truth (paper Eq. 3 per-link minimum)
// marking each pair measured or inferred, and closes with the headline
// numbers: probed fraction, median inferred error, and the probe-cost
// amortization vs measuring all pairs directly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mesh_scenario.hpp"
#include "est/mesh.hpp"
#include "runner/batch.hpp"
#include "runner/bench_report.hpp"
#include "runner/cli.hpp"

using namespace abw;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: mesh_estimation [sources 1..64] [sinks 1..64] "
               "[hops 2..64] [probe_fraction 0..1]\n");
}

// Positional argument `i` as an integer in [lo, hi], `fallback` when absent.
std::size_t count_arg(int argc, char** argv, int i, const char* name,
                      std::size_t fallback, unsigned long long lo,
                      unsigned long long hi) {
  if (argc <= i) return fallback;
  const unsigned long long v = runner::parse_uint(name, argv[i], hi);
  if (v < lo)
    throw std::invalid_argument(std::string(name) + ": must be >= " + std::to_string(lo));
  return static_cast<std::size_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--help" || std::string(argv[i]) == "-h") {
      usage(stdout);
      return 0;
    }
  core::ParkingLotMeshConfig pc;
  double fraction = 0.30;
  try {
    if (argc > 5) throw std::invalid_argument("too many arguments");
    pc.sources = count_arg(argc, argv, 1, "sources", 6, 1, 64);
    pc.sinks = count_arg(argc, argv, 2, "sinks", 6, 1, 64);
    pc.backbone_hops = count_arg(argc, argv, 3, "hops", 6, 2, 64);
    if (argc > 4) fraction = runner::parse_real("probe_fraction", argv[4], 0.0, 1.0);
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "mesh_estimation: %s\n", ex.what());
    usage(stderr);
    return 2;
  }
  pc.backbone_capacity_bps = 50e6;
  pc.access_capacity_bps = 200e6;
  pc.util_min = 0.50;
  pc.util_max = 0.60;
  pc.mode = sim::SimMode::kHybrid;
  pc.model = core::CrossModel::kPoisson;
  pc.warmup = sim::kSecond;
  pc.seed = 42;
  core::MeshConfig mc = core::parking_lot_mesh(pc);
  mc.topology.auto_route_all(mc.pairs);
  const std::size_t pairs = mc.pairs.size();

  std::printf("mesh: %zu sources x %zu sinks over a %zu-hop backbone "
              "(%zu pairs, %zu edges)\n",
              pc.sources, pc.sinks, pc.backbone_hops, pairs,
              mc.topology.edge_count());

  // Ground truth: one reference mesh run with every background source
  // active, averaged over a 4 s steady-state window.
  core::MeshScenario reference(mc);
  const sim::SimTime t1 = mc.warmup;
  const sim::SimTime t2 = t1 + 4 * sim::kSecond;
  reference.run_until(t2);
  const std::vector<double> truth = reference.ground_truth_matrix(t1, t2);

  const core::MeshProbeConfig probe;  // iterative trend search per pair
  const est::MeshMeasureFn measure = core::make_mesh_measure_fn(mc, probe);
  est::MeshEstimatorConfig ecfg;
  ecfg.max_probe_fraction = fraction;
  est::MeshEstimator est(est::make_path_specs(mc.topology, mc.pairs), ecfg);
  runner::BatchRunner pool(0);

  double w0 = runner::monotonic_seconds();
  const est::MeshReport report = est.estimate(pool, measure);
  const double mesh_s = runner::monotonic_seconds() - w0;

  std::printf("probe set (greedy route cover, %zu of %zu pairs):",
              report.probed.size(), pairs);
  for (std::size_t p : report.probed) std::printf(" %zu", p);
  std::printf("\n\n%-6s %-9s %12s %12s %8s %6s\n", "pair", "kind",
              "estimate", "truth", "err", "conf");

  std::vector<double> inferred_err;
  for (std::size_t p = 0; p < pairs; ++p) {
    const est::MeshPairEstimate& e = report.pairs[p];
    const double err = (e.valid && truth[p] > 0.0)
                           ? (e.estimate_bps - truth[p]) / truth[p]
                           : std::nan("");
    if (!e.measured && e.valid && truth[p] > 0.0)
      inferred_err.push_back(std::abs(err));
    std::printf("%-6zu %-9s %9.2f Mb %9.2f Mb %+7.1f%% %6.2f\n", p,
                e.measured ? "measured" : "inferred", e.estimate_bps / 1e6,
                truth[p] / 1e6, 100.0 * err, e.confidence);
  }

  // The amortization headline: what measuring every pair directly costs
  // on the same worker pool with the same per-pair budget.
  w0 = runner::monotonic_seconds();
  pool.map(pairs, [&](std::size_t p) {
    return measure(p, runner::derive_seed(ecfg.base_seed, p));
  });
  const double all_s = runner::monotonic_seconds() - w0;

  std::sort(inferred_err.begin(), inferred_err.end());
  const double median = inferred_err.empty()
                            ? 0.0
                            : inferred_err[inferred_err.size() / 2];
  std::printf("\nprobed %zu/%zu pairs (%.1f%%), median inferred error "
              "%.1f%%\nmesh %.2f s vs probe-all %.2f s: %.1fx "
              "amortization\n",
              report.probed.size(), pairs, 100.0 * report.probed_fraction(),
              100.0 * median, mesh_s, all_s, all_s / mesh_s);
  return 0;
}
