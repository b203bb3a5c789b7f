// Mesh estimation suite (sim/topology.hpp, core/mesh_scenario.hpp,
// est/mesh.hpp).  The load-bearing properties:
//
//  * Degenerate equivalence: a 1-pair chain mesh is bit-identical to the
//    equivalent stand-alone multi-hop Scenario — same link stats, same
//    per-packet probe timestamps, same ground truth.  The per-edge-Path
//    realization adds forwarding hops but zero physics.
//
//  * Flow conservation: on a shared link, what arrives is exactly the sum
//    of the flows routed over it (property-tested over randomized meshes
//    and randomized concurrent stream sets).
//
//  * Sublinear probing: the greedy route-overlap cover probes <= 30% of a
//    256-order fat-tree mesh while covering every route edge, and the
//    shared-bottleneck inference reconstructs unprobed pairs within the
//    accepted error.
//
//  * Jobs invariance: the fanned-out mesh report digests identically for
//    BatchRunner jobs 1, 2, and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/mesh_scenario.hpp"
#include "core/scenario.hpp"
#include "est/mesh.hpp"
#include "probe/stream_spec.hpp"
#include "runner/batch.hpp"
#include "sim/link.hpp"
#include "sim/packet.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

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
};

// ---------------------------------------------------------------------------
// Topology

TEST(Topology, SetRouteValidatesChain) {
  sim::Topology t;
  t.add_nodes(3);
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  const std::size_t e0 = t.add_edge(0, 1, lc);
  const std::size_t e1 = t.add_edge(1, 2, lc);

  EXPECT_THROW(t.add_edge(1, 1, lc), std::invalid_argument);  // self-loop
  EXPECT_THROW(t.set_route(0, 2, {e1}), std::invalid_argument);  // wrong start
  EXPECT_THROW(t.set_route(0, 2, {e0}), std::invalid_argument);  // wrong end
  EXPECT_THROW(t.set_route(0, 2, {e0, e0}), std::invalid_argument);
  EXPECT_EQ(t.route(0, 2), nullptr);

  t.set_route(0, 2, {e0, e1});
  ASSERT_NE(t.route(0, 2), nullptr);
  EXPECT_EQ(*t.route(0, 2), (std::vector<std::size_t>{e0, e1}));
}

TEST(Topology, AutoRouteShortestWithDeterministicTieBreak) {
  // Diamond: 0 -> {1, 2} -> 3.  Two 2-edge routes tie; BFS expands
  // out-edges ascending, so the lexicographically smallest wins.
  sim::Topology t;
  t.add_nodes(4);
  sim::LinkConfig lc;
  lc.capacity_bps = 50e6;
  const std::size_t e0 = t.add_edge(0, 1, lc);
  t.add_edge(0, 2, lc);
  const std::size_t e2 = t.add_edge(1, 3, lc);
  t.add_edge(2, 3, lc);

  ASSERT_TRUE(t.auto_route(0, 3));
  EXPECT_EQ(*t.route(0, 3), (std::vector<std::size_t>{e0, e2}));
  EXPECT_FALSE(t.auto_route(3, 0));  // directed: unreachable
  EXPECT_THROW(t.auto_route_all({{3, 0}}), std::invalid_argument);
}

TEST(Topology, RouteNarrowCapacityAndBaseOwd) {
  sim::Topology t;
  t.add_nodes(3);
  sim::LinkConfig a;
  a.capacity_bps = 50e6;
  a.propagation_delay = 2 * sim::kMillisecond;
  sim::LinkConfig b;
  b.capacity_bps = 10e6;
  b.propagation_delay = 3 * sim::kMillisecond;
  t.add_edge(0, 1, a);
  t.add_edge(1, 2, b);
  t.auto_route_all({{0, 2}});

  EXPECT_DOUBLE_EQ(t.route_narrow_capacity(0, 2), 10e6);
  const sim::SimTime expect = a.propagation_delay + b.propagation_delay +
                              sim::transmission_time(1500, 50e6) +
                              sim::transmission_time(1500, 10e6);
  EXPECT_EQ(t.route_base_owd(0, 2, 1500), expect);
  EXPECT_THROW(t.route_narrow_capacity(2, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MeshEstimator: selection + inference (synthetic, no simulation)

est::MeshPathSpec spec_of(std::vector<std::size_t> edges, double cap = 100.0) {
  est::MeshPathSpec s;
  s.edges = std::move(edges);
  s.narrow_capacity_bps = cap;
  return s;
}

est::MeshMeasurement meas(double a) {
  est::MeshMeasurement m;
  m.valid = true;
  m.avail_bps = a;
  m.low_bps = a;
  m.high_bps = a;
  m.samples = 1;
  return m;
}

TEST(MeshEstimator, GreedyCoverCoversAllEdgesAndStopsEarly) {
  std::vector<est::MeshPathSpec> paths = {
      spec_of({0, 1}), spec_of({1, 2}), spec_of({0, 2}), spec_of({3})};
  // Unbounded budget: greedy stops once every route edge is covered.
  auto sel = est::MeshEstimator::select_probe_set(paths, 1.0);
  EXPECT_EQ(sel, (std::vector<std::size_t>{0, 1, 3}));
  // Budget of one: the highest-gain path only.
  auto one = est::MeshEstimator::select_probe_set(paths, 0.25);
  EXPECT_EQ(one, (std::vector<std::size_t>{0}));
}

TEST(MeshEstimator, InferenceExactUnderSharedBottleneck) {
  // Edge avail-bw: e0 = 10, e1 = 20, e2 = 30.  Measuring paths 0, 1, 3
  // pins each edge exactly; path 2's bottleneck (e0) is shared with
  // measured path 0, so its inference is exact.
  est::MeshEstimator est(
      {spec_of({0, 1}), spec_of({1, 2}), spec_of({0, 2}), spec_of({2})},
      {.max_probe_fraction = 1.0, .base_seed = 1});
  est::MeshReport r =
      est.infer({0, 1, 3}, {meas(10.0), meas(20.0), meas(30.0)});

  EXPECT_DOUBLE_EQ(r.edge_avail_bps[0], 10.0);
  EXPECT_DOUBLE_EQ(r.edge_avail_bps[1], 20.0);
  EXPECT_DOUBLE_EQ(r.edge_avail_bps[2], 30.0);
  EXPECT_EQ(r.route_edges, 3u);
  EXPECT_EQ(r.covered_edges, 3u);

  ASSERT_TRUE(r.pairs[2].valid);
  EXPECT_FALSE(r.pairs[2].measured);
  EXPECT_DOUBLE_EQ(r.pairs[2].estimate_bps, 10.0);
  EXPECT_EQ(r.pairs[2].bottleneck_edge, 0u);
  EXPECT_GT(r.pairs[2].confidence, 0.0);
  EXPECT_LE(r.pairs[2].confidence, 1.0);
  EXPECT_DOUBLE_EQ(r.pairs[2].high_bps, 100.0);  // narrow capacity bracket

  EXPECT_TRUE(r.pairs[0].measured);
  EXPECT_DOUBLE_EQ(r.pairs[0].confidence, 1.0);
  EXPECT_EQ(r.pairs[0].bottleneck_edge, 0u);
}

TEST(MeshEstimator, InvalidMeasurementFallsBackToInference) {
  est::MeshEstimator est({spec_of({0, 1}), spec_of({1})},
                         {.max_probe_fraction = 1.0, .base_seed = 1});
  est::MeshMeasurement bad;  // valid == false
  est::MeshReport r = est.infer({0, 1}, {bad, meas(20.0)});

  // Pair 0's own measurement failed, but e1 is bounded through pair 1;
  // partial-coverage inference still yields an estimate at reduced
  // confidence.
  ASSERT_TRUE(r.pairs[0].valid);
  EXPECT_TRUE(r.pairs[0].measured);
  EXPECT_DOUBLE_EQ(r.pairs[0].estimate_bps, 20.0);
  EXPECT_LT(r.pairs[0].confidence, 1.0);
  EXPECT_EQ(r.covered_edges, 1u);
  EXPECT_EQ(r.route_edges, 2u);
}

// ---------------------------------------------------------------------------
// MeshScenario: degenerate equivalence with the stand-alone Scenario

class RecordingReceiver final : public sim::PacketHandler {
 public:
  RecordingReceiver(sim::Simulator& sim, std::size_t count)
      : sim_(sim), received_(count, 0) {}

  void handle(sim::Packet pkt) override {
    if (pkt.type != sim::PacketType::kProbe || pkt.stream_id != 1) return;
    if (pkt.seq < received_.size() && received_[pkt.seq] == 0)
      received_[pkt.seq] = sim_.now();
  }

  const std::vector<sim::SimTime>& received() const { return received_; }

 private:
  sim::Simulator& sim_;
  std::vector<sim::SimTime> received_;
};

TEST(MeshScenario, DegenerateChainBitMatchesStandaloneScenario) {
  constexpr std::size_t kHops = 3;
  constexpr double kCapacity = 50e6;
  constexpr double kCrossRate = 25e6;
  constexpr std::uint64_t kSeed = 7;
  constexpr sim::SimTime kWarmup = 2 * sim::kSecond;
  constexpr sim::SimTime kEnd = 6 * sim::kSecond;

  sim::LinkConfig lc;
  lc.capacity_bps = kCapacity;
  lc.propagation_delay = sim::kMillisecond;
  lc.queue_limit_bytes = 2 << 20;

  // Mesh side: a 4-node chain, one pair spanning it.
  core::MeshConfig mc;
  for (std::size_t h = 0; h < kHops; ++h) {
    mc.topology.add_node();
    if (h == kHops - 1) mc.topology.add_node();
  }
  for (std::size_t h = 0; h < kHops; ++h) mc.topology.add_edge(h, h + 1, lc);
  mc.pairs = {{0, kHops}};
  mc.edge_cross_rate_bps.assign(kHops, kCrossRate);
  mc.mode = sim::SimMode::kPacket;
  mc.model = core::CrossModel::kPoisson;
  mc.warmup = kWarmup;
  mc.seed = kSeed;
  core::MeshScenario mesh(mc);

  // Stand-alone side: one 3-hop Path, cross sources built with the SAME
  // per-edge seed derivation the mesh uses.
  core::Scenario sc =
      core::Scenario::custom(std::vector<sim::LinkConfig>(kHops, lc), kSeed);
  for (std::size_t h = 0; h < kHops; ++h) {
    core::CrossSpec cspec;
    cspec.model = core::CrossModel::kPoisson;
    cspec.rate_bps = kCrossRate;
    cspec.capacity_bps = kCapacity;
    sc.add_cross_source(
        core::make_cross_generator(
            sc.simulator(), sc.path(), h, /*one_hop=*/true,
            1000 + static_cast<std::uint32_t>(h),
            stats::Rng(runner::derive_seed(kSeed, h)), cspec.model,
            cspec.rate_bps, cspec.packet_size, cspec.trimodal,
            cspec.onoff_peak, cspec.capacity_bps),
        h, /*one_hop=*/true, 1000 + static_cast<std::uint32_t>(h),
        sim::SimMode::kPacket, 600 * sim::kSecond);
  }
  sc.simulator().run_until(kWarmup);

  // Identical probe stream through both, at the same absolute times.
  const probe::StreamSpec pspec = probe::StreamSpec::periodic(30e6, 1500, 60);
  const probe::StreamResult mres =
      mesh.send_stream(0, pspec, sim::kMillisecond);

  RecordingReceiver rx(sc.simulator(), pspec.size());
  sc.path().set_receiver(&rx);
  const sim::SimTime start = sc.simulator().now() + sim::kMillisecond;
  sim::Simulator* sim = &sc.simulator();
  sim::Path* path = &sc.path();
  for (std::size_t k = 0; k < pspec.packets.size(); ++k) {
    const probe::ProbePacketSpec& pp = pspec.packets[k];
    const std::uint32_t sz = pp.size_bytes;
    const auto seq = static_cast<std::uint32_t>(k);
    sim->at(start + pp.offset, [sim, path, sz, seq] {
      sim::Packet pkt;
      pkt.id = sim->next_packet_id();
      pkt.type = sim::PacketType::kProbe;
      pkt.measurement = true;
      pkt.size_bytes = sz;
      pkt.flow_id = 0;
      pkt.stream_id = 1;
      pkt.seq = seq;
      pkt.send_time = sim->now();
      path->inject(0, pkt);
    });
  }

  mesh.run_until(kEnd);
  sc.simulator().run_until(kEnd);

  // Per-packet probe timestamps bit-match.
  ASSERT_EQ(mres.packets.size(), rx.received().size());
  for (std::size_t k = 0; k < mres.packets.size(); ++k) {
    ASSERT_FALSE(mres.packets[k].lost) << "seq " << k;
    EXPECT_EQ(mres.packets[k].received, rx.received()[k]) << "seq " << k;
  }

  // Per-link physics bit-match.
  for (std::size_t h = 0; h < kHops; ++h) {
    const sim::LinkStats& ms = mesh.edge_path(h).link(0).stats();
    const sim::LinkStats& ss = sc.path().link(h).stats();
    EXPECT_EQ(ms.packets_in, ss.packets_in) << "hop " << h;
    EXPECT_EQ(ms.packets_out, ss.packets_out) << "hop " << h;
    EXPECT_EQ(ms.packets_dropped, ss.packets_dropped) << "hop " << h;
    EXPECT_EQ(ms.bytes_in, ss.bytes_in) << "hop " << h;
    EXPECT_EQ(ms.bytes_out, ss.bytes_out) << "hop " << h;
  }

  // Ground truth bit-matches (same meters, same Eq. 3 minimum).
  const double mesh_gt = mesh.pair_ground_truth(0, kWarmup, kEnd);
  const double sc_gt = sc.ground_truth(kWarmup, kEnd);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(mesh_gt),
            std::bit_cast<std::uint64_t>(sc_gt));
}

// ---------------------------------------------------------------------------
// Flow conservation on shared links

TEST(MeshScenario, SharedLinkLoadIsSumOfRoutedFlows) {
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 3; ++iter) {
    core::ParkingLotMeshConfig pc;
    pc.backbone_hops = 4 + static_cast<std::size_t>(rng() % 4);  // 4..7
    pc.sources = 2 + static_cast<std::size_t>(rng() % 3);        // 2..4
    pc.sinks = 2 + static_cast<std::size_t>(rng() % 3);
    pc.util_min = 0.0;  // background off: conservation is exact counts
    pc.util_max = 0.0;
    pc.mode = sim::SimMode::kPacket;
    pc.warmup = sim::kSecond;
    pc.seed = 1 + iter;
    core::MeshScenario mesh(core::parking_lot_mesh(pc));

    // A random subset of pairs probes concurrently.
    std::vector<std::size_t> all(mesh.pair_count());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    std::shuffle(all.begin(), all.end(), rng);
    const std::size_t n = 2 + rng() % (all.size() - 1);
    std::vector<std::size_t> chosen(all.begin(),
                                    all.begin() + std::min(n, all.size()));

    constexpr std::size_t kCount = 40;
    const probe::StreamSpec spec = probe::StreamSpec::periodic(5e6, 1000, kCount);
    auto results = mesh.send_concurrent_streams(chosen, spec, sim::kMillisecond);
    for (const auto& r : results) EXPECT_TRUE(r.complete());

    // Every edge carried exactly the sum of the streams routed over it.
    const sim::Topology& topo = mesh.topology();
    std::vector<std::uint64_t> expected(topo.edge_count(), 0);
    for (std::size_t p : chosen)
      for (std::size_t e : mesh.pair_route(p)) expected[e] += kCount;
    for (std::size_t e = 0; e < topo.edge_count(); ++e) {
      const sim::LinkStats& s = mesh.edge_path(e).link(0).stats();
      EXPECT_EQ(s.packets_in, expected[e]) << "edge " << e << " iter " << iter;
      EXPECT_EQ(s.bytes_in, expected[e] * 1000) << "edge " << e;
      EXPECT_EQ(s.packets_dropped, 0u) << "edge " << e;
    }
  }
}

TEST(MeshScenario, ConcurrentStreamsKeepFewEventsInTheHeap) {
  // Four 2000-packet streams at once over a loaded packet-mode parking
  // lot.  Each stream holds only its next send in the event heap; each
  // edge holds at most its cross source's next arrival, its transmission
  // and its propagation-lane head.
  core::ParkingLotMeshConfig pc;
  pc.mode = sim::SimMode::kPacket;
  pc.warmup = 200 * sim::kMillisecond;
  core::MeshScenario mesh(core::parking_lot_mesh(pc));
  const std::vector<std::size_t> pairs{0, 5, 10, 15};
  auto results = mesh.send_concurrent_streams(
      pairs, probe::StreamSpec::periodic(2e6, 500, 2000), sim::kMillisecond);
  for (const auto& r : results) EXPECT_GT(r.received_count(), 1900u);
  EXPECT_LE(mesh.simulator().peak_event_count(),
            3 * mesh.topology().edge_count() + pairs.size());
}

// ---------------------------------------------------------------------------
// Sublinear probing on the fat-tree mesh

TEST(MeshEstimator, FatTreeProbesSublinearlyAndInfersWithinTolerance) {
  core::FatTreeMeshConfig fc;  // 4 pods x 4 hosts: 192 inter-pod pairs
  core::MeshConfig mc = core::fat_tree_mesh(fc);
  mc.topology.auto_route_all(mc.pairs);

  est::MeshEstimator est(est::make_path_specs(mc.topology, mc.pairs),
                         {.max_probe_fraction = 0.30, .base_seed = 1});
  const auto& probed = est.probe_set();
  ASSERT_FALSE(probed.empty());
  EXPECT_LE(static_cast<double>(probed.size()),
            0.30 * static_cast<double>(mc.pairs.size()));

  // Feed the DESIGN avail-bw of each probed pair (exact measurements) and
  // check the inference reconstructs every unprobed pair within the
  // accepted tolerance.
  auto nominal = [&](std::size_t p) {
    const auto& route = *mc.topology.route(mc.pairs[p].src, mc.pairs[p].dst);
    double a = std::numeric_limits<double>::infinity();
    for (std::size_t e : route)
      a = std::min(a, mc.topology.edge(e).link.capacity_bps -
                          mc.edge_cross_rate_bps[e]);
    return a;
  };
  std::vector<est::MeshMeasurement> results;
  results.reserve(probed.size());
  for (std::size_t p : probed) results.push_back(meas(nominal(p)));
  est::MeshReport r = est.infer(probed, results);

  EXPECT_EQ(r.covered_edges, r.route_edges);  // greedy covered everything
  std::vector<double> errors;
  for (std::size_t p = 0; p < mc.pairs.size(); ++p) {
    ASSERT_TRUE(r.pairs[p].valid) << "pair " << p;
    if (r.pairs[p].measured) continue;
    errors.push_back(std::abs(r.pairs[p].estimate_bps - nominal(p)) /
                     nominal(p));
    EXPECT_GT(r.pairs[p].confidence, 0.0);
  }
  ASSERT_FALSE(errors.empty());
  std::sort(errors.begin(), errors.end());
  EXPECT_LE(errors[errors.size() / 2], 0.20);  // median
  EXPECT_LE(errors.back(), 0.25);              // worst case
}

// ---------------------------------------------------------------------------
// Jobs invariance of the fanned-out mesh report

std::uint64_t digest_report(const est::MeshReport& r) {
  Digest d;
  for (std::size_t p : r.probed) d.u64(p);
  for (const auto& m : r.measurements) {
    d.b(m.valid);
    d.f64(m.avail_bps);
    d.f64(m.low_bps);
    d.f64(m.high_bps);
    d.u64(m.samples);
  }
  for (const auto& e : r.pairs) {
    d.b(e.valid);
    d.b(e.measured);
    d.f64(e.estimate_bps);
    d.f64(e.low_bps);
    d.f64(e.high_bps);
    d.f64(e.confidence);
    d.u64(e.bottleneck_edge);
  }
  for (double v : r.edge_avail_bps) d.f64(v);
  for (std::uint32_t s : r.edge_support) d.u64(s);
  return d.h;
}

TEST(MeshEstimator, ReportBitIdenticalAcrossJobs) {
  core::ParkingLotMeshConfig pc;
  pc.backbone_hops = 4;
  pc.sources = 3;
  pc.sinks = 3;
  pc.mode = sim::SimMode::kHybrid;
  pc.warmup = sim::kSecond;
  pc.seed = 11;
  core::MeshConfig mc = core::parking_lot_mesh(pc);
  mc.topology.auto_route_all(mc.pairs);

  core::MeshProbeConfig probe;
  probe.streams = 3;
  probe.stream_duration = 30 * sim::kMillisecond;
  est::MeshMeasureFn fn = core::make_mesh_measure_fn(mc, probe);

  est::MeshEstimator est(est::make_path_specs(mc.topology, mc.pairs),
                         {.max_probe_fraction = 0.34, .base_seed = 5});

  std::vector<std::uint64_t> digests;
  for (std::size_t jobs : {1u, 2u, 4u}) {
    runner::BatchRunner runner(jobs);
    digests.push_back(digest_report(est.estimate(runner, fn)));
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);

  // And the measurements themselves landed near the design value.
  runner::BatchRunner serial(1);
  est::MeshReport r = est.estimate(serial, fn);
  ASSERT_FALSE(r.probed.empty());
  for (std::size_t k = 0; k < r.probed.size(); ++k) {
    ASSERT_TRUE(r.measurements[k].valid) << "pair " << r.probed[k];
  }
}

}  // namespace
