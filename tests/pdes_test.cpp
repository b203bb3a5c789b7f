// Conservative parallel DES correctness suite (sim/domain.hpp,
// sim/partition.hpp, core/parallel_scenario.hpp) plus the vectorized
// FluidQueue bulk-retirement equivalence proofs (sim/fluid.cpp).
//
// The two load-bearing properties:
//
//  * Thread-count invariance: for a FIXED partition, per-link stats,
//    per-packet probe timestamps, per-domain event counts, and handoff
//    totals are bit-identical under 1, 2, and 4 worker threads.
//
//  * Cut invariance: for a FIXED worker-independent seeding scheme
//    (ParallelScenario derives per-hop RNGs from the global hop index),
//    ANY legal partition — including the trivial single-domain one —
//    produces identical physics: LinkStats, StreamResults, ground truth,
//    and the online estimator belief fed from those streams.  This is
//    checked over randomized cut sets, not a hand-picked pair.
//
// Registered under ctest label "tsan": built with -DABW_TSAN=ON this
// suite exercises the two-barrier window engine under ThreadSanitizer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "core/parallel_scenario.hpp"
#include "core/scenario.hpp"
#include "est/online/kalman.hpp"
#include "probe/stream_spec.hpp"
#include "sim/domain.hpp"
#include "sim/fluid.hpp"
#include "sim/link.hpp"
#include "sim/partition.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace abw;

struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }
  void b(bool v) { u64(v ? 1 : 0); }
  void time(sim::SimTime t) { u64(static_cast<std::uint64_t>(t)); }
};

void digest_link(Digest& d, const sim::Link& link) {
  const sim::LinkStats& s = link.stats();
  d.u64(s.packets_in);
  d.u64(s.packets_out);
  d.u64(s.packets_dropped);
  d.u64(s.bytes_in);
  d.u64(s.bytes_out);
}

void digest_stream(Digest& d, const probe::StreamResult& res) {
  d.u64(res.stream_id);
  d.u64(res.duplicate_count);
  d.u64(res.reordered_count);
  for (const auto& p : res.packets) {
    d.u64(p.seq);
    d.time(p.sent);
    d.time(p.received);
    d.b(p.lost);
  }
}

std::vector<sim::LinkConfig> uniform_links(std::size_t hops, sim::SimTime prop) {
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  lc.propagation_delay = prop;
  lc.queue_limit_bytes = 2 << 20;
  return std::vector<sim::LinkConfig>(hops, lc);
}

// ---------------------------------------------------------------------------
// Partition planning

TEST(PartitionPlan, FromCutsComputesLookaheadAndBounds) {
  auto links = uniform_links(8, 5 * sim::kMillisecond);
  links[3].propagation_delay = 2 * sim::kMillisecond;
  auto plan = sim::plan_from_cuts(links, {1, 3, 5});
  EXPECT_EQ(plan.domain_count(), 4u);
  EXPECT_EQ(plan.domain_end, (std::vector<std::size_t>{2, 4, 6, 8}));
  EXPECT_EQ(plan.lookahead, 2 * sim::kMillisecond);  // min cut latency
  EXPECT_EQ(plan.domain_begin(0), 0u);
  EXPECT_EQ(plan.domain_begin(2), 4u);
  EXPECT_EQ(plan.domain_of(0), 0u);
  EXPECT_EQ(plan.domain_of(3), 1u);
  EXPECT_EQ(plan.domain_of(7), 3u);
}

TEST(PartitionPlan, RejectsIllegalCuts) {
  auto links = uniform_links(4, sim::kMillisecond);
  EXPECT_THROW(sim::plan_from_cuts(links, {3}), std::invalid_argument);
  EXPECT_THROW(sim::plan_from_cuts(links, {2, 1}), std::invalid_argument);
  EXPECT_THROW(sim::plan_from_cuts(links, {1, 1}), std::invalid_argument);
  links[1].propagation_delay = 0;
  EXPECT_THROW(sim::plan_from_cuts(links, {1}), std::invalid_argument);
}

TEST(PartitionPlan, AutoPlannerBalancesAndFallsBack) {
  auto links = uniform_links(8, 5 * sim::kMillisecond);
  auto plan = sim::plan_partition(links, 4);
  EXPECT_EQ(plan.domain_count(), 4u);
  EXPECT_EQ(plan.domain_end, (std::vector<std::size_t>{2, 4, 6, 8}));

  // Only one viable cut: falls back to two domains.
  auto sparse = uniform_links(8, 0);
  sparse[4].propagation_delay = 3 * sim::kMillisecond;
  sparse[7].propagation_delay = 3 * sim::kMillisecond;  // final link: not a cut
  auto plan2 = sim::plan_partition(sparse, 4);
  EXPECT_EQ(plan2.domain_count(), 2u);
  EXPECT_EQ(plan2.domain_end, (std::vector<std::size_t>{5, 8}));

  // No viable cut at all: the trivial single-domain plan.
  auto flat = uniform_links(3, 0);
  auto plan3 = sim::plan_partition(flat, 4);
  EXPECT_EQ(plan3.domain_count(), 1u);
  EXPECT_GT(plan3.lookahead, 0);
}

// ---------------------------------------------------------------------------
// Thread-count invariance (fixed partition)

core::ParallelScenarioConfig invariance_config(std::size_t threads) {
  core::ParallelScenarioConfig cfg;
  cfg.hop_count = 8;
  cfg.capacity_bps = 50e6;
  cfg.cross_rate_bps = 20e6;
  cfg.model = core::CrossModel::kPoisson;
  cfg.propagation_delay = 5 * sim::kMillisecond;
  cfg.traffic_horizon = 5 * sim::kSecond;
  cfg.warmup = 200 * sim::kMillisecond;
  cfg.seed = 17;
  cfg.cuts = {1, 3, 5};  // 4 domains
  cfg.threads = threads;
  return cfg;
}

struct InvarianceRun {
  std::uint64_t digest = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t probe_packets = 0;
  std::vector<std::uint64_t> domain_events;
};

InvarianceRun run_invariance(std::size_t threads) {
  core::ParallelScenario sc(invariance_config(threads));
  Digest d;
  InvarianceRun out;
  for (int k = 0; k < 3; ++k) {
    auto res =
        sc.send_periodic_stream(20e6 + 5e6 * k, 1500, 80, sim::kMillisecond);
    out.probe_packets += res.packets.size();
    digest_stream(d, res);
    d.f64(res.output_rate_bps());
  }
  for (std::size_t g = 0; g < sc.parallel().hop_count(); ++g)
    digest_link(d, sc.parallel().link(g));
  d.f64(sc.ground_truth(100 * sim::kMillisecond, sc.now()));
  for (std::size_t dm = 0; dm < sc.parallel().domain_count(); ++dm) {
    const std::uint64_t ev = sc.parallel().domain(dm).stats().events;
    out.domain_events.push_back(ev);
    d.u64(ev);
  }
  d.u64(sc.parallel().windows());
  d.u64(sc.parallel().handoffs());
  out.handoffs = sc.parallel().handoffs();
  out.digest = d.h;
  return out;
}

TEST(ParallelDes, BitIdenticalAcrossWorkerThreadCounts) {
  const InvarianceRun one = run_invariance(1);
  const InvarianceRun two = run_invariance(2);
  const InvarianceRun four = run_invariance(4);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, four.digest);
  EXPECT_EQ(one.domain_events, two.domain_events);
  EXPECT_EQ(one.domain_events, four.domain_events);
}

TEST(ParallelDes, HandoffAccountingIsExact) {
  const InvarianceRun r = run_invariance(2);
  // Cross traffic is one-hop persistent and never crosses a cut; with no
  // drops, every probe packet crosses every one of the 3 cuts exactly
  // once.
  EXPECT_EQ(r.handoffs, r.probe_packets * 3);
  EXPECT_GT(r.probe_packets, 0u);
}

// ---------------------------------------------------------------------------
// Cut invariance (randomized partition boundaries)

struct CutRun {
  std::uint64_t physics_digest = 0;  // links + streams + ground truth
  double kalman_estimate = 0.0;
  double kalman_alpha = 0.0;
};

CutRun run_with_cuts(const std::vector<std::size_t>& cuts, sim::SimMode mode,
                     std::size_t threads) {
  core::ParallelScenarioConfig cfg;
  cfg.hop_count = 6;
  cfg.loaded_hops = {0, 2, 4};
  cfg.capacity_bps = 50e6;
  cfg.cross_rate_bps = 25e6;
  cfg.mode = mode;
  cfg.model = core::CrossModel::kPoisson;
  cfg.propagation_delay = 5 * sim::kMillisecond;
  cfg.traffic_horizon = 5 * sim::kSecond;
  cfg.warmup = 200 * sim::kMillisecond;
  cfg.seed = 29;
  cfg.cuts = cuts;
  if (cuts.empty()) cfg.domains = 1;
  cfg.threads = threads;
  core::ParallelScenario sc(cfg);

  est::online::KalmanTracker kalman;
  Digest d;
  for (int k = 0; k < 4; ++k) {
    auto res =
        sc.send_periodic_stream(18e6 + 6e6 * k, 1500, 60, sim::kMillisecond);
    digest_stream(d, res);
    kalman.feed(res);
  }
  for (std::size_t g = 0; g < sc.parallel().hop_count(); ++g)
    digest_link(d, sc.parallel().link(g));
  d.f64(sc.ground_truth(100 * sim::kMillisecond, sc.now()));

  CutRun out;
  out.physics_digest = d.h;
  out.kalman_estimate = kalman.belief().estimate_bps;
  out.kalman_alpha = kalman.alpha();
  return out;
}

TEST(ParallelDes, AnyLegalCutMatchesTheSingleDomainRun) {
  const CutRun base = run_with_cuts({}, sim::SimMode::kPacket, 1);

  std::mt19937 rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    // Random non-empty ascending subset of the legal cut links {0..4}.
    std::vector<std::size_t> cuts;
    while (cuts.empty()) {
      for (std::size_t c = 0; c < 5; ++c)
        if (rng() % 2) cuts.push_back(c);
    }
    const CutRun got =
        run_with_cuts(cuts, sim::SimMode::kPacket, 1 + trial % 3);
    EXPECT_EQ(got.physics_digest, base.physics_digest)
        << "trial " << trial << " with " << cuts.size() << " cuts";
    EXPECT_EQ(got.kalman_estimate, base.kalman_estimate);
    EXPECT_EQ(got.kalman_alpha, base.kalman_alpha);
  }
}

TEST(ParallelDes, CutInvarianceHoldsInHybridMode) {
  const CutRun base = run_with_cuts({}, sim::SimMode::kHybrid, 1);
  const CutRun one = run_with_cuts({2}, sim::SimMode::kHybrid, 2);
  const CutRun two = run_with_cuts({0, 3}, sim::SimMode::kHybrid, 3);
  EXPECT_EQ(base.physics_digest, one.physics_digest);
  EXPECT_EQ(base.physics_digest, two.physics_digest);
  EXPECT_EQ(base.kalman_estimate, one.kalman_estimate);
  EXPECT_EQ(base.kalman_estimate, two.kalman_estimate);
}

// ---------------------------------------------------------------------------
// Vectorized fluid bulk retirement == scalar, bit for bit

struct FluidOutcome {
  std::uint64_t digest = 0;
  std::uint64_t bulk_packets = 0;
};

// Feeds a synthetic arrival schedule through a FluidQueue in chunks and
// digests everything observable: link counters, meter series, interval
// count, residual backlog.
FluidOutcome run_fluid(bool vectorized, double load_factor,
                       std::size_t queue_limit, bool straddle_horizon,
                       std::uint32_t seed) {
  sim::Simulator simu;
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  lc.propagation_delay = sim::kMillisecond;
  lc.queue_limit_bytes = queue_limit;
  sim::Path path(simu, {lc});
  sim::CountingSink sink;
  path.set_receiver(&sink);
  sim::FluidQueue& fq = path.link(0).enable_fluid();
  fq.set_vectorized(vectorized);
  fq.reset(0);

  std::mt19937 rng(seed);
  std::exponential_distribution<double> gap(1.0);
  const std::uint32_t size_choices[4] = {40, 576, 1500, 1004};
  const double mean_gap_s = 1500.0 * 8.0 / (50e6 * load_factor);

  sim::SimTime t = 0;
  std::vector<sim::SimTime> times;
  std::vector<std::uint32_t> sizes;
  Digest d;
  for (int chunk = 0; chunk < 24; ++chunk) {
    times.clear();
    sizes.clear();
    const std::size_t n = 64 + rng() % 512;
    for (std::size_t i = 0; i < n; ++i) {
      t += sim::from_seconds(gap(rng) * mean_gap_s);
      times.push_back(t);
      sizes.push_back(size_choices[rng() % 4]);
    }
    // Horizon at the chunk end, or pulled back into the chunk to force
    // straddling runs onto the exact per-packet path.
    sim::SimTime record_until = times.back();
    if (straddle_horizon && chunk % 3 == 1)
      record_until = times[n / 2] + (times.back() - times[n / 2]) / 4;
    // Contract: all absorbed arrivals are <= record_until; split the
    // chunk there and advance past the remainder like the pump does.
    std::size_t m = n;
    while (m > 0 && times[m - 1] > record_until) --m;
    if (m == 0) continue;
    fq.absorb(times.data(), sizes.data(), m, record_until);
    t = times[m - 1];
    // Periodically drain to an idle point so both paths cross the
    // carried-backlog code.
    if (chunk % 5 == 4) {
      t += sim::from_seconds(mean_gap_s * 64);
      fq.advance(t);
    }
    d.u64(static_cast<std::uint64_t>(fq.free_at()));
    d.u64(fq.backlog_bytes());
    d.u64(fq.in_system());
  }
  const sim::SimTime end = t + sim::kSecond;
  fq.advance(end);

  digest_link(d, path.link(0));
  const auto& meter = path.link(0).meter();
  d.time(meter.busy_time(0, end));
  d.u64(meter.interval_count());
  for (double a :
       meter.avail_bw_series(0, end, 10 * sim::kMillisecond, false))
    d.f64(a);

  FluidOutcome out;
  out.digest = d.h;
  out.bulk_packets = fq.bulk_packets();
  return out;
}

TEST(FluidSimd, BulkRetirementIsBitEqualToScalar) {
  struct Case {
    double load;
    std::size_t limit;
    bool straddle;
  };
  const Case cases[] = {
      {0.3, 2u << 20, false},  // light load: long idle gaps, short runs
      {0.8, 2u << 20, false},  // heavy load: long runs, carried backlog
      {0.8, 2u << 20, true},   // horizon straddles mid-chunk
      {0.9, 6000, false},      // tiny queue: drop path engages
      {1.2, 2u << 20, false},  // overload: one run per chunk, deep backlog
  };
  std::uint32_t seed = 5;
  for (const Case& c : cases) {
    FluidOutcome scalar = run_fluid(false, c.load, c.limit, c.straddle, seed);
    FluidOutcome simd = run_fluid(true, c.load, c.limit, c.straddle, seed);
    EXPECT_EQ(simd.digest, scalar.digest)
        << "load=" << c.load << " limit=" << c.limit
        << " straddle=" << c.straddle;
    EXPECT_EQ(scalar.bulk_packets, 0u);
    ++seed;
  }
}

TEST(FluidSimd, BulkPathActuallyEngages) {
  FluidOutcome simd = run_fluid(true, 0.5, 2u << 20, false, 42);
  EXPECT_GT(simd.bulk_packets, 0u);
}

// Hybrid scenarios run the same absorb stream through both settings: the
// end-to-end digest (probe timestamps, meters, counters) must agree.
std::uint64_t run_hybrid_scenario(bool vectorized) {
  core::SingleHopConfig cfg;
  cfg.mode = sim::SimMode::kHybrid;
  cfg.model = core::CrossModel::kPoisson;
  cfg.seed = 31;
  auto sc = core::Scenario::single_hop(cfg);
  sc.path().link(0).fluid()->set_vectorized(vectorized);

  Digest d;
  for (int k = 0; k < 6; ++k) {
    auto spec = probe::StreamSpec::periodic(15e6 + 4e6 * k, 1500, 60);
    auto res = sc.session().send_stream(spec, sim::kMillisecond);
    digest_stream(d, res);
    d.f64(res.output_rate_bps());
  }
  digest_link(d, sc.path().link(0));
  d.f64(sc.ground_truth(sim::kSecond, sc.simulator().now()));
  return d.h;
}

TEST(FluidSimd, HybridScenarioDigestMatchesScalar) {
  EXPECT_EQ(run_hybrid_scenario(true), run_hybrid_scenario(false));
}

}  // namespace
