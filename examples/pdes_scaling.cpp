// Parallel-DES scaling demo: a fig4-style multi-bottleneck path carrying
// a 12,000-flow aggregate in hybrid mode, partitioned into conservative
// time-window domains and run at 1, 2, and 4 worker threads.
//
//   ./pdes_scaling [hops] [flows_per_hop] [hybrid|packet] [domains]
//
// Defaults: 8 hops, 1500 flows per hop, hybrid, 4 domains.  --help prints
// the usage; a malformed argument prints the message and the usage and
// exits 2.
//
// For each thread count the run reports wall-clock time, speedup over
// the serial run, per-domain event counts, and the cross-domain handoff
// total — and checks that the physics (ground truth, per-link counters)
// are bit-identical across thread counts, which is the engine's core
// guarantee (see DESIGN.md "Intra-simulation parallelism").
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/parallel_scenario.hpp"
#include "runner/bench_report.hpp"
#include "runner/cli.hpp"
#include "sim/link.hpp"

using namespace abw;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: pdes_scaling [hops] [flows_per_hop] [hybrid|packet] "
               "[domains]\n");
}

// Positional argument `i` as an integer in [1, max], `fallback` when absent.
std::size_t positive_arg(int argc, char** argv, int i, const char* name,
                         std::size_t fallback, unsigned long long max) {
  if (argc <= i) return fallback;
  const unsigned long long v = runner::parse_uint(name, argv[i], max);
  if (v == 0) throw std::invalid_argument(std::string(name) + ": must be >= 1");
  return static_cast<std::size_t>(v);
}

struct RunResult {
  double wall_s = 0.0;
  double truth_bps = 0.0;
  std::uint64_t bytes_out = 0;  // summed over links: physics fingerprint
  std::uint64_t handoffs = 0;
  std::uint64_t windows = 0;
  std::vector<std::uint64_t> domain_events;
};

RunResult run(std::size_t hops, std::size_t flows, sim::SimMode mode,
              std::size_t domains, std::size_t threads) {
  core::ParallelScenarioConfig cfg;
  cfg.hop_count = hops;
  cfg.capacity_bps = 50e6;
  // 12k flows at ~2.5 kb/s each = 30 Mb/s aggregate per hop; hybrid mode
  // models the Poisson superposition as one exact aggregate source, so
  // the flow count costs nothing per event — the point of hybrid mode.
  // Packet mode instantiates every flow as a real generator instead.
  cfg.cross_rate_bps = 30e6 / static_cast<double>(flows);
  cfg.flows_per_hop = flows;
  cfg.mode = mode;
  cfg.model = core::CrossModel::kPoisson;
  cfg.propagation_delay = 5 * sim::kMillisecond;
  cfg.traffic_horizon = 30 * sim::kSecond;
  cfg.warmup = 500 * sim::kMillisecond;
  cfg.seed = 42;
  cfg.domains = domains;  // plan_partition picks the balanced cuts
  cfg.threads = threads;
  core::ParallelScenario sc(cfg);

  RunResult r;
  const double w0 = runner::monotonic_seconds();
  // A probing session against the loaded path: 10 periodic streams
  // bracketing the 20 Mb/s avail-bw, then run out the clock.
  const sim::SimTime t0 = sc.now();
  for (int k = 0; k < 10; ++k)
    sc.send_periodic_stream(12e6 + 2e6 * k, 1500, 100, sim::kMillisecond);
  sc.run_until(t0 + 10 * sim::kSecond);
  r.wall_s = runner::monotonic_seconds() - w0;

  r.truth_bps = sc.ground_truth(t0, sc.now());
  for (std::size_t g = 0; g < sc.parallel().hop_count(); ++g)
    r.bytes_out += sc.parallel().link(g).stats().bytes_out;
  r.handoffs = sc.parallel().handoffs();
  r.windows = sc.parallel().windows();
  for (std::size_t d = 0; d < sc.parallel().domain_count(); ++d)
    r.domain_events.push_back(sc.parallel().domain(d).stats().events);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--help" || std::string(argv[i]) == "-h") {
      usage(stdout);
      return 0;
    }
  std::size_t hops = 0, flows = 0, domains = 0;
  sim::SimMode mode = sim::SimMode::kHybrid;
  try {
    if (argc > 5) throw std::invalid_argument("too many arguments");
    hops = positive_arg(argc, argv, 1, "hops", 8, 4096);
    flows = positive_arg(argc, argv, 2, "flows_per_hop", 1500, 1000000);
    if (argc > 3) {
      const std::string m = argv[3];
      if (m == "packet") mode = sim::SimMode::kPacket;
      else if (m != "hybrid")
        throw std::invalid_argument("mode: expected hybrid or packet, got '" +
                                    m + "'");
    }
    domains = positive_arg(argc, argv, 4, "domains", 4, 4096);
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "pdes_scaling: %s\n", ex.what());
    usage(stderr);
    return 2;
  }

  std::printf("Conservative parallel DES scaling demo\n");
  std::printf("  %zu hops @ 50 Mb/s, %zu flows/hop (%zu total), %s mode, "
              "%zu domains\n\n",
              hops, flows, hops * flows,
              mode == sim::SimMode::kHybrid ? "hybrid" : "packet", domains);

  RunResult serial;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    if (threads > domains && threads != 1) continue;  // clamped: no new data
    RunResult r = run(hops, flows, mode, domains, threads);
    if (threads == 1) serial = r;
    std::printf("threads=%zu  wall %.3f s  speedup %.2fx  windows %llu  "
                "handoffs %llu\n",
                threads, r.wall_s, serial.wall_s / r.wall_s,
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.handoffs));
    std::printf("  per-domain events:");
    for (std::size_t d = 0; d < r.domain_events.size(); ++d)
      std::printf(" [%zu] %llu", d,
                  static_cast<unsigned long long>(r.domain_events[d]));
    std::printf("\n  ground truth %.2f Mb/s\n", r.truth_bps / 1e6);
    const bool same = r.truth_bps == serial.truth_bps &&
                      r.bytes_out == serial.bytes_out &&
                      r.handoffs == serial.handoffs;
    std::printf("  physics vs serial: %s\n\n",
                same ? "IDENTICAL" : "DIVERGED (bug!)");
    if (!same) return 1;
  }
  std::printf("Per-domain event counts, handoffs, and every link counter\n"
              "are bit-identical at all thread counts: the conservative\n"
              "window protocol trades no determinism for parallelism.\n");
  return 0;
}
