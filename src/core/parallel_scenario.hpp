// ParallelScenario: a multi-hop measurement setup driven by the
// conservative parallel DES engine (sim/domain.hpp) instead of one
// serial Simulator.
//
// The topology is the paper's Fig. 4 shape scaled up: H identical links,
// each loaded hop carrying independent one-hop-persistent cross traffic,
// partitioned into domains at high-latency links.  Two properties make
// the partitioned run comparable to — and testable against — a serial
// one:
//
//  * Cut-invariant seeding.  Every hop's generator RNG derives from
//    runner::derive_seed(seed, hop) (per flow:
//    derive_seed(derive_seed(seed, hop), flow)) — a function of the
//    GLOBAL hop index only, never of construction order or domain
//    membership.  Any legal partition of the same config therefore
//    builds bit-identical traffic processes, so per-link stats, probe
//    timestamps, and estimator outputs must agree across partitions
//    (pinned by tests/pdes_test.cpp).
//
//  * The conservative window protocol keeps results independent of the
//    worker-thread count for a fixed partition.
//
// Probing: ParallelScenario drives its own streams (probe::ProbeSession
// is bound to a single Simulator).  A probe::StreamEmitter sends into
// domain 0; a sink on the final domain fills the probe::StreamResult
// through the same probe::ReceiverState as ProbeSession (minus receiver
// clock noise, which is orthogonal to the engine under test).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "probe/receiver_state.hpp"
#include "probe/stream_result.hpp"
#include "probe/stream_spec.hpp"
#include "sim/domain.hpp"
#include "sim/node.hpp"
#include "sim/partition.hpp"

namespace abw::core {

/// Parameters for a partitioned multi-hop scenario.
struct ParallelScenarioConfig {
  std::size_t hop_count = 8;
  /// Hops carrying one-hop cross traffic; empty = every hop.
  std::vector<std::size_t> loaded_hops;
  double capacity_bps = 50e6;
  /// Offered cross rate PER FLOW on each loaded hop.
  double cross_rate_bps = 25e6;
  sim::SimMode mode = sim::SimMode::kPacket;
  CrossModel model = CrossModel::kPoisson;
  std::uint32_t cross_packet_size = 1500;
  /// Flows per loaded hop.  Packet mode instantiates each flow as a real
  /// generator; hybrid mode models the superposition as one aggregate
  /// source of flows_per_hop * cross_rate_bps (exact in distribution for
  /// Poisson, a rate-equivalent load model otherwise) to stay inside the
  /// one-fluid-source-per-link envelope.
  std::size_t flows_per_hop = 1;
  sim::SimTime propagation_delay = 5 * sim::kMillisecond;
  std::size_t queue_limit_bytes = 2 << 20;
  sim::SimTime traffic_horizon = 600 * sim::kSecond;
  sim::SimTime warmup = 2 * sim::kSecond;
  std::uint64_t seed = 1;
  /// Explicit cut links (global indices); empty = plan_partition(domains).
  std::vector<std::size_t> cuts;
  /// Automatic planning target when `cuts` is empty.
  std::size_t domains = 2;
  /// Worker threads (0 = one per domain; clamped to the domain count).
  std::size_t threads = 0;
};

/// A ready-to-probe partitioned path: construction plans the partition,
/// builds per-domain traffic with cut-invariant seeds, and runs the
/// warmup in lockstep windows.
class ParallelScenario {
 public:
  explicit ParallelScenario(const ParallelScenarioConfig& cfg);

  ParallelScenario(const ParallelScenario&) = delete;
  ParallelScenario& operator=(const ParallelScenario&) = delete;

  sim::ParallelPath& parallel() { return *ppath_; }
  const sim::ParallelPath& parallel() const { return *ppath_; }
  const sim::PartitionPlan& plan() const { return ppath_->plan(); }
  sim::SimTime now() const { return ppath_->now(); }

  /// Advances the whole partitioned simulation to `t`.
  void run_until(sim::SimTime t) { ppath_->run_until(t); }

  /// Sends one periodic probe stream of `count` packets of `size` bytes
  /// at `rate_bps`, starting `lead_in` after now.  Blocks (running
  /// windows) until every packet arrived or the drain timeout expires.
  probe::StreamResult send_periodic_stream(double rate_bps,
                                           std::uint32_t size,
                                           std::size_t count,
                                           sim::SimTime lead_in);

  /// Configured long-run avail-bw on a loaded hop.
  double nominal_avail_bw() const { return nominal_avail_bw_; }

  /// Measured ground-truth avail-bw over [t1, t2) excluding measurement
  /// traffic (paper Eq. 3, minimum over all global links).
  double ground_truth(sim::SimTime t1, sim::SimTime t2) const {
    return ppath_->cross_avail_bw(t1, t2);
  }

  /// Per-global-link stats plus the engine's pdes.* accounting.
  void snapshot_metrics(obs::MetricsRegistry& m) const;

 private:
  ParallelScenarioConfig cfg_;
  std::unique_ptr<sim::ParallelPath> ppath_;
  CrossTraffic cross_;
  sim::CountingSink sink_;    // the path's receiver, on the final domain
  probe::ReceiverState recv_;  // the stream in flight
  double nominal_avail_bw_ = 0.0;
  std::uint32_t next_stream_id_ = 1;
};

}  // namespace abw::core
