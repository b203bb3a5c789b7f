// Tests for the discrete-event simulator: scheduler ordering, clock
// semantics, link service behaviour, utilization metering (the ground
// truth behind the paper's Eqs. 1-3), and path routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/link.hpp"
#include "sim/node.hpp"
#include "sim/path.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/util_meter.hpp"
#include "sim/fault.hpp"
#include "stats/rng.hpp"

namespace {

using namespace abw::sim;

// --------------------------------------------------------------- time ---

TEST(Time, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_millis(1.0), kMillisecond);
  EXPECT_EQ(from_micros(1.0), kMicrosecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_millis(kMillisecond), 1.0);
}

TEST(Time, TransmissionTime) {
  // 1500 B at 50 Mb/s = 240 us.
  EXPECT_EQ(transmission_time(1500, 50e6), 240 * kMicrosecond);
  // 40 B at 100 Mb/s = 3.2 us.
  EXPECT_EQ(transmission_time(40, 100e6), from_micros(3.2));
}

// ---------------------------------------------------------- scheduler ---

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(30, [&] { order.push_back(3); });
  s.schedule(10, [&] { order.push_back(1); });
  s.schedule(20, [&] { order.push_back(2); });
  while (!s.empty()) s.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) s.schedule(7, [&order, i] { order.push_back(i); });
  while (!s.empty()) s.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, RejectsPast) {
  Scheduler s;
  s.schedule(10, [] {});
  (void)s.pop();
  EXPECT_THROW(s.schedule(5, [] {}), std::logic_error);
  EXPECT_NO_THROW(s.schedule(10, [] {}));  // same time as last pop is fine
}

TEST(Scheduler, PopOnEmptyThrows) {
  Scheduler s;
  EXPECT_THROW(s.pop(), std::logic_error);
}

// next_time() on an empty queue used to read heap_.front() of an empty
// vector (UB); it must throw like pop() does, and keep doing so after the
// queue drains.
TEST(Scheduler, NextTimeOnEmptyThrows) {
  Scheduler s;
  EXPECT_THROW(s.next_time(), std::logic_error);
  s.schedule(10, [] {});
  EXPECT_EQ(s.next_time(), 10);
  (void)s.pop();
  EXPECT_THROW(s.next_time(), std::logic_error);
}

// Regression for the schedule-in-the-past contract: the documented
// invariant ("t must not be earlier than the most recently popped event
// time") must be ENFORCED, not just tracked, including when the violation
// happens from inside a callback mid-simulation and after the queue has
// drained and refilled.
TEST(Scheduler, RejectsPastFromWithinCallback) {
  Scheduler s;
  bool threw = false;
  s.schedule(100, [&] {
    // The clock is at 100 (this event was just popped); asking for an
    // event at 40 would rewrite history.
    try {
      s.schedule(40, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  while (!s.empty()) s.pop().cb();
  EXPECT_TRUE(threw);
}

TEST(Scheduler, PastBoundaryTracksLatestPop) {
  Scheduler s;
  s.schedule(10, [] {});
  s.schedule(30, [] {});
  (void)s.pop();                           // last popped: 10
  EXPECT_NO_THROW(s.schedule(20, [] {}));  // between pops: legal
  (void)s.pop();                           // last popped: 20
  (void)s.pop();                           // last popped: 30
  EXPECT_THROW(s.schedule(29, [] {}), std::logic_error);
  EXPECT_NO_THROW(s.schedule(30, [] {}));  // boundary is inclusive
  // Draining the queue must not reset the enforcement floor.
  (void)s.pop();
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.schedule(29, [] {}), std::logic_error);
}

// Reserved sequence numbers: an event inserted later under a number
// taken earlier pops where it would have popped if scheduled then.
TEST(Scheduler, ReservedEventPopsBeforeLaterTie) {
  Scheduler s;
  std::vector<int> order;
  const std::uint64_t seq = s.reserve_seqs(1);
  s.schedule(7, [&] { order.push_back(2); });  // scheduled after reserving
  s.schedule_reserved(7, seq, [&] { order.push_back(1); });
  s.schedule(7, [&] { order.push_back(3); });
  while (!s.empty()) s.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, ReservedChainMatchesUpFrontScheduling) {
  // Five chain events at times 0, 0, 10, 10, 20, then five plain events
  // at the same times.  Up front: all ten scheduled at once.  Lazy: the
  // chain's numbers are reserved first and each chain event inserts the
  // next, so the heap holds one chain entry at a time.
  const auto time_of = [](int i) { return static_cast<SimTime>(10 * (i / 2)); };
  Scheduler eager;
  std::vector<int> eager_order;
  for (int i = 0; i < 5; ++i)
    eager.schedule(time_of(i), [&eager_order, i] { eager_order.push_back(i); });
  for (int i = 0; i < 5; ++i)
    eager.schedule(time_of(i), [&eager_order, i] { eager_order.push_back(-i); });

  Scheduler lazy;
  std::vector<int> lazy_order;
  const std::uint64_t first = lazy.reserve_seqs(5);
  std::function<void(int)> arm = [&](int i) {
    lazy.schedule_reserved(time_of(i), first + static_cast<std::uint64_t>(i),
                           [&, i] {
                             lazy_order.push_back(i);
                             if (i + 1 < 5) arm(i + 1);
                           });
  };
  arm(0);
  for (int i = 0; i < 5; ++i)
    lazy.schedule(time_of(i), [&lazy_order, i] { lazy_order.push_back(-i); });

  while (!eager.empty()) eager.pop().cb();
  while (!lazy.empty()) lazy.pop().cb();
  EXPECT_EQ(eager_order, (std::vector<int>{0, 1, 0, -1, 2, 3, -2, -3, 4, -4}));
  EXPECT_EQ(lazy_order, eager_order);
  EXPECT_EQ(eager.peak_size(), 10u);
  EXPECT_EQ(lazy.peak_size(), 6u);  // one chain entry + five plain events
}

TEST(Scheduler, ReservedRejectsPastAndUnreserved) {
  Scheduler s;
  const std::uint64_t early = s.reserve_seqs(2);
  s.schedule(10, [] {});
  (void)s.pop();  // last popped: time 10, seq early + 2
  EXPECT_THROW(s.schedule_reserved(5, early, [] {}), std::logic_error);
  // Same time, but the number sorts before the popped event: inserting
  // it would pop out of order.
  EXPECT_THROW(s.schedule_reserved(10, early, [] {}), std::logic_error);
  EXPECT_NO_THROW(s.schedule_reserved(11, early + 1, [] {}));
  // A number that was never handed out.
  EXPECT_THROW(s.schedule_reserved(20, early + 3, [] {}), std::logic_error);
  EXPECT_THROW(s.schedule_reserved(20, early + 1000, [] {}), std::logic_error);
}

TEST(Scheduler, ReserveSeqsChecksOverflow) {
  Scheduler s;
  const std::uint64_t limit = std::uint64_t{1} << 40;  // Entry seq width
  EXPECT_THROW(s.reserve_seqs(limit + 1), std::length_error);
  EXPECT_THROW(s.reserve_seqs(~std::uint64_t{0}), std::length_error);
  // Taking the whole space is legal; the next number of either kind is not.
  EXPECT_EQ(s.reserve_seqs(limit - 1), 0u);
  s.schedule(1, [] {});  // the last number
  EXPECT_THROW(s.schedule(1, [] {}), std::length_error);
  EXPECT_THROW(s.reserve_seqs(1), std::length_error);
  EXPECT_NO_THROW(s.reserve_seqs(0));
}

// ---------------------------------------------------------- simulator ---

TEST(Simulator, AtReservedRejectsPast) {
  Simulator sim;
  const std::uint64_t seq = sim.reserve_seqs(1);
  sim.run_until(100);
  EXPECT_THROW(sim.at_reserved(50, seq, [] {}), std::logic_error);
  int fired = 0;
  sim.at_reserved(100, seq, [&] { ++fired; });
  sim.run_until_idle();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ClockAdvancesBeforeCallback) {
  Simulator sim;
  SimTime seen = -1;
  sim.after(100, [&] { seen = sim.now(); });
  sim.run_until(1000);
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, CallbackSchedulingChains) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.after(10, chain);
  };
  sim.after(10, chain);
  sim.run_until_idle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, RunUntilConditionStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) sim.at(i * 10, [&] { ++count; });
  bool met = sim.run_until_condition(1000, [&] { return count == 3; });
  EXPECT_TRUE(met);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, RunUntilConditionRespectsDeadline) {
  Simulator sim;
  int count = 0;
  sim.at(500, [&] { ++count; });
  bool met = sim.run_until_condition(100, [&] { return count > 0; });
  EXPECT_FALSE(met);
  EXPECT_EQ(count, 0);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.run_until(100);
  EXPECT_THROW(sim.at(50, [] {}), std::logic_error);
  EXPECT_THROW(sim.after(-1, [] {}), std::logic_error);
}

TEST(Simulator, PacketIdsAreUnique) {
  Simulator sim;
  auto a = sim.next_packet_id();
  auto b = sim.next_packet_id();
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------- meter ---

TEST(UtilizationMeter, ExactWindowQueries) {
  UtilizationMeter m(100e6);
  m.add_busy(0, 100);
  m.add_busy(200, 300);
  EXPECT_EQ(m.busy_time(0, 300), 200);
  EXPECT_EQ(m.busy_time(50, 250), 100);   // half of each interval
  EXPECT_EQ(m.busy_time(100, 200), 0);    // the idle gap
  EXPECT_EQ(m.busy_time(250, 1000), 50);
  EXPECT_DOUBLE_EQ(m.utilization(0, 400), 0.5);
  EXPECT_DOUBLE_EQ(m.avail_bw(0, 400), 50e6);
}

TEST(UtilizationMeter, CoalescesBackToBack) {
  UtilizationMeter m(1e6);
  m.add_busy(0, 10);
  m.add_busy(10, 20);  // adjacent: must merge
  EXPECT_EQ(m.interval_count(), 1u);
  EXPECT_EQ(m.busy_time(0, 20), 20);
}

TEST(UtilizationMeter, RejectsOverlapsAndEmpty) {
  UtilizationMeter m(1e6);
  m.add_busy(0, 10);
  EXPECT_THROW(m.add_busy(5, 15), std::logic_error);
  EXPECT_THROW(m.add_busy(20, 20), std::invalid_argument);
  EXPECT_THROW(UtilizationMeter(0.0), std::invalid_argument);
}

TEST(UtilizationMeter, SeriesCoversWindows) {
  UtilizationMeter m(10e6);
  m.add_busy(0, 500);
  auto series = m.avail_bw_series(0, 1000, 250);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_DOUBLE_EQ(series[0], 0.0);      // fully busy
  EXPECT_DOUBLE_EQ(series[3], 10e6);     // fully idle
}

TEST(UtilizationMeter, MeasurementAttributionSeparatesLoads) {
  UtilizationMeter m(10e6);
  m.add_busy(0, 100, /*measurement=*/false);   // cross
  m.add_busy(100, 200, /*measurement=*/true);  // probe (not coalesced)
  m.add_busy(300, 400, /*measurement=*/true);
  EXPECT_EQ(m.interval_count(), 3u);  // attribution change blocks merging
  EXPECT_EQ(m.busy_time(0, 400), 300);
  EXPECT_EQ(m.measurement_busy_time(0, 400), 200);
  // Cross-only utilization: 100 ns busy over 400 ns => A = 0.75 * C.
  EXPECT_DOUBLE_EQ(m.cross_avail_bw(0, 400), 7.5e6);
  // Partial window over a measurement edge interval.
  EXPECT_EQ(m.measurement_busy_time(150, 350), 100);
}

TEST(UtilizationMeter, SameAttributionStillCoalesces) {
  UtilizationMeter m(1e6);
  m.add_busy(0, 10, true);
  m.add_busy(10, 20, true);
  EXPECT_EQ(m.interval_count(), 1u);
  EXPECT_EQ(m.measurement_busy_time(0, 20), 20);
}

TEST(UtilizationMeter, EmptyMeterIsIdle) {
  UtilizationMeter m(5e6);
  EXPECT_DOUBLE_EQ(m.avail_bw(0, 100), 5e6);
}

// Brute-force reference for the prefix-sum window queries: intersect the
// window with every recorded interval directly (equivalent to summing a
// per-nanosecond indicator).  The meter's binary-search + edge-trimming
// fast path must agree exactly on EVERY window, in particular windows that
// partially cover measurement and non-measurement edge intervals and
// windows that fall fully inside one busy interval.
struct RefInterval {
  SimTime start, end;
  bool meas;
};

SimTime ref_busy(const std::vector<RefInterval>& iv, SimTime t1, SimTime t2,
                 bool meas_only) {
  SimTime total = 0;
  for (const auto& i : iv) {
    if (meas_only && !i.meas) continue;
    SimTime lo = std::max(i.start, t1);
    SimTime hi = std::min(i.end, t2);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

TEST(UtilizationMeter, WindowTrimmingMatchesBruteForceExhaustively) {
  // Mixed attribution, an idle gap, and adjacent intervals whose
  // attribution flips (so they stay separate): 5 stored intervals in
  // [2, 28) with edges at every flavor of partial coverage reachable.
  const std::vector<RefInterval> iv = {
      {2, 6, false}, {6, 9, true}, {12, 18, false}, {18, 20, true},
      {24, 28, false}};
  UtilizationMeter m(1e6);
  for (const auto& i : iv) m.add_busy(i.start, i.end, i.meas);
  ASSERT_EQ(m.interval_count(), iv.size());

  for (SimTime t1 = 0; t1 <= 30; ++t1) {
    for (SimTime t2 = t1 + 1; t2 <= 30; ++t2) {
      EXPECT_EQ(m.busy_time(t1, t2), ref_busy(iv, t1, t2, false))
          << "busy_time window [" << t1 << ", " << t2 << ")";
      EXPECT_EQ(m.measurement_busy_time(t1, t2), ref_busy(iv, t1, t2, true))
          << "measurement_busy_time window [" << t1 << ", " << t2 << ")";
      SimTime cross = ref_busy(iv, t1, t2, false) - ref_busy(iv, t1, t2, true);
      double u = static_cast<double>(cross) / static_cast<double>(t2 - t1);
      EXPECT_DOUBLE_EQ(m.cross_avail_bw(t1, t2), 1e6 * (1.0 - u))
          << "cross_avail_bw window [" << t1 << ", " << t2 << ")";
    }
  }
}

// Randomized version of the exhaustive check above: hundreds of intervals
// with random lengths/gaps/attribution, thousands of random windows.  The
// fixed seed keeps it deterministic; the scale exercises prefix-sum
// cancellation and two-pointer paths far beyond the hand-built cases.
TEST(UtilizationMeter, RandomizedQueriesMatchBruteForceReference) {
  abw::stats::Rng rng(0xab5eed);
  UtilizationMeter m(1e8);
  std::vector<RefInterval> iv;
  SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    t += 1 + static_cast<SimTime>(rng.uniform(0.0, 300.0));
    SimTime len = 1 + static_cast<SimTime>(rng.uniform(0.0, 200.0));
    bool meas = rng.bernoulli(0.3);
    m.add_busy(t, t + len, meas);
    iv.push_back({t, t + len, meas});
    t += len;
  }
  const double horizon = static_cast<double>(t);
  for (int q = 0; q < 3000; ++q) {
    SimTime t1 = static_cast<SimTime>(rng.uniform(0.0, horizon));
    SimTime t2 = t1 + 1 + static_cast<SimTime>(rng.uniform(0.0, horizon / 4));
    SimTime busy = ref_busy(iv, t1, t2, false);
    SimTime meas = ref_busy(iv, t1, t2, true);
    ASSERT_EQ(m.busy_time(t1, t2), busy)
        << "busy_time window [" << t1 << ", " << t2 << ")";
    ASSERT_EQ(m.measurement_busy_time(t1, t2), meas)
        << "measurement_busy_time window [" << t1 << ", " << t2 << ")";
    double span = static_cast<double>(t2 - t1);
    double cross_u = static_cast<double>(busy - meas) / span;
    ASSERT_DOUBLE_EQ(m.cross_avail_bw(t1, t2), 1e8 * (1.0 - cross_u))
        << "cross_avail_bw window [" << t1 << ", " << t2 << ")";
  }
}

// The monotone two-pointer series sweep must produce bit-identical doubles
// to issuing one prefix-sum query per window (which the randomized test
// above ties to the brute-force reference).
TEST(UtilizationMeter, SeriesSweepMatchesPerWindowQueries) {
  abw::stats::Rng rng(0x5e71e5);
  UtilizationMeter m(1e8);
  SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    t += 1 + static_cast<SimTime>(rng.uniform(0.0, 300.0));
    SimTime len = 1 + static_cast<SimTime>(rng.uniform(0.0, 200.0));
    m.add_busy(t, t + len, rng.bernoulli(0.3));
    t += len;
  }
  for (SimTime tau : {37, 250, 4001}) {
    for (bool cross : {false, true}) {
      auto series = m.avail_bw_series(0, t, tau, cross);
      ASSERT_EQ(series.size(), static_cast<std::size_t>(t / tau));
      for (std::size_t k = 0; k < series.size(); ++k) {
        SimTime w1 = static_cast<SimTime>(k) * tau, w2 = w1 + tau;
        double expect = cross ? m.cross_avail_bw(w1, w2) : m.avail_bw(w1, w2);
        ASSERT_DOUBLE_EQ(series[k], expect)
            << "tau=" << tau << " cross=" << cross << " window " << k;
      }
    }
  }
}

TEST(UtilizationMeter, WindowFullyInsideOneBusyInterval) {
  UtilizationMeter m(8e6);
  m.add_busy(100, 200, /*measurement=*/false);
  m.add_busy(300, 400, /*measurement=*/true);
  // Both edges of the window trim the SAME stored interval.
  EXPECT_EQ(m.busy_time(130, 170), 40);
  EXPECT_DOUBLE_EQ(m.utilization(130, 170), 1.0);
  EXPECT_DOUBLE_EQ(m.avail_bw(130, 170), 0.0);
  EXPECT_EQ(m.measurement_busy_time(130, 170), 0);
  EXPECT_DOUBLE_EQ(m.cross_avail_bw(130, 170), 0.0);
  // Same, inside the measurement interval: cross avail-bw is full capacity.
  EXPECT_EQ(m.busy_time(320, 380), 60);
  EXPECT_EQ(m.measurement_busy_time(320, 380), 60);
  EXPECT_DOUBLE_EQ(m.cross_avail_bw(320, 380), 8e6);
}

TEST(UtilizationMeter, WindowStraddlingMixedAttributionEdges) {
  UtilizationMeter m(2e6);
  m.add_busy(0, 10, /*measurement=*/true);    // meas edge, partially covered
  m.add_busy(10, 20, /*measurement=*/false);  // cross middle
  m.add_busy(20, 30, /*measurement=*/true);   // meas edge, partially covered
  // Window [5, 25): 5 of each meas edge + all 10 cross.
  EXPECT_EQ(m.busy_time(5, 25), 20);
  EXPECT_EQ(m.measurement_busy_time(5, 25), 10);
  EXPECT_DOUBLE_EQ(m.cross_avail_bw(5, 25), 2e6 * (1.0 - 10.0 / 20.0));
  // Window whose edges land exactly on attribution flips (no trimming).
  EXPECT_EQ(m.busy_time(10, 20), 10);
  EXPECT_EQ(m.measurement_busy_time(10, 20), 0);
  // Window covering only idle time after the last interval.
  EXPECT_EQ(m.busy_time(30, 40), 0);
  EXPECT_EQ(m.measurement_busy_time(30, 40), 0);
}

// --------------------------------------------------------------- link ---

struct Collector final : PacketHandler {
  std::vector<Packet> got;
  Simulator* sim = nullptr;
  std::vector<SimTime> at;
  void handle(Packet pkt) override {
    got.push_back(pkt);
    if (sim) at.push_back(sim->now());
  }
};

TEST(Link, ServiceTimeAndPropagation) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 10e6;            // 1000 B -> 800 us
  cfg.propagation_delay = kMillisecond;
  Link link(sim, "l", cfg);
  Collector sink;
  sink.sim = &sim;
  link.set_next(&sink);

  Packet p;
  p.size_bytes = 1000;
  sim.at(0, [&] { link.handle(p); });
  sim.run_until_idle();
  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(sink.at[0], from_micros(800) + kMillisecond);
}

TEST(Link, FifoOrderPreserved) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 10e6;
  Link link(sim, "l", cfg);
  Collector sink;
  link.set_next(&sink);
  for (std::uint32_t i = 0; i < 10; ++i) {
    Packet p;
    p.seq = i;
    p.size_bytes = 500;
    sim.at(0, [&link, p] { link.handle(p); });
  }
  sim.run_until_idle();
  ASSERT_EQ(sink.got.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sink.got[i].seq, i);
}

TEST(Link, BackToBackSerialization) {
  // Two packets arriving together leave exactly one transmission apart.
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 50e6;
  Link link(sim, "l", cfg);
  Collector sink;
  sink.sim = &sim;
  link.set_next(&sink);
  for (int i = 0; i < 2; ++i) {
    Packet p;
    p.size_bytes = 1500;
    sim.at(0, [&link, p] { link.handle(p); });
  }
  sim.run_until_idle();
  ASSERT_EQ(sink.at.size(), 2u);
  EXPECT_EQ(sink.at[1] - sink.at[0], transmission_time(1500, 50e6));
}

TEST(Link, DropTailOnQueueLimit) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 1e6;
  cfg.queue_limit_bytes = 3000;  // room for two 1500 B packets
  Link link(sim, "l", cfg);
  Collector sink;
  link.set_next(&sink);
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.size_bytes = 1500;
    sim.at(0, [&link, p] { link.handle(p); });
  }
  sim.run_until_idle();
  EXPECT_EQ(link.stats().packets_dropped, 3u);
  EXPECT_EQ(sink.got.size(), 2u);
  EXPECT_EQ(link.stats().packets_in, 5u);
  EXPECT_EQ(link.stats().packets_out, 2u);
}

TEST(Link, MeterMatchesTransmissions) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 8e6;  // 1000 B = 1 ms
  Link link(sim, "l", cfg);
  Collector sink;
  link.set_next(&sink);
  for (int i = 0; i < 4; ++i) {
    Packet p;
    p.size_bytes = 1000;
    sim.at(i * 2 * kMillisecond, [&link, p] { link.handle(p); });
  }
  sim.run_until_idle();
  // 4 ms busy within the 8 ms span -> utilization 0.5.
  EXPECT_DOUBLE_EQ(link.meter().utilization(0, 8 * kMillisecond), 0.5);
  EXPECT_DOUBLE_EQ(link.meter().avail_bw(0, 8 * kMillisecond), 4e6);
}

TEST(Link, ArrivalTapSeesEveryArrival) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 1e6;
  cfg.queue_limit_bytes = 1500;  // second packet will drop
  Link link(sim, "l", cfg);
  Collector sink;
  link.set_next(&sink);
  int taps = 0;
  link.set_arrival_tap([&](const Packet&, SimTime) { ++taps; });
  for (int i = 0; i < 2; ++i) {
    Packet p;
    p.size_bytes = 1500;
    sim.at(0, [&link, p] { link.handle(p); });
  }
  sim.run_until_idle();
  EXPECT_EQ(taps, 2);  // tap fires before the drop decision
  EXPECT_EQ(link.stats().packets_dropped, 1u);
}

namespace {

// Arrival digest of a two-hop chain: a 100 Mb/s link with 1 ms
// propagation feeding a 50 Mb/s link with 3 ms, random sizes and gaps.
// mode 0: clean; 1: reordering + duplication on the first link; 2: those
// faults installed at 100 ms and removed at 250 ms, and the second link's
// capacity stepped to 40 Mb/s at 200 ms.
std::uint64_t chain_arrival_digest(int mode) {
  Simulator simu;
  LinkConfig a;
  a.capacity_bps = 100e6;
  a.propagation_delay = kMillisecond;
  LinkConfig b;
  b.capacity_bps = 50e6;
  b.propagation_delay = 3 * kMillisecond;
  Link first(simu, "a", a);
  Link second(simu, "b", b);
  CountingSink sink;
  first.set_next(&second);
  second.set_next(&sink);

  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  sink.set_on_packet([&](const Packet& p) {
    mix(p.id);
    mix(p.seq);
    mix(static_cast<std::uint64_t>(simu.now()));
  });

  LinkFaults faults;
  faults.reorder_prob = 0.25;
  faults.reorder_extra_max = 2 * kMillisecond;
  faults.duplicate_prob = 0.05;
  if (mode == 1) first.set_faults(faults);
  if (mode == 2) {
    simu.at(100 * kMillisecond, [&] { first.set_faults(faults); });
    simu.at(250 * kMillisecond, [&] { first.set_faults(LinkFaults{}); });
    simu.at(200 * kMillisecond, [&] { second.set_capacity(40e6); });
  }

  abw::stats::Rng rng(42);
  SimTime t = 0;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    t += from_seconds(rng.exponential(150e-6));
    const auto size = static_cast<std::uint32_t>(rng.uniform_int(40, 1500));
    simu.at(t, [&simu, &first, size, i] {
      Packet pkt;
      pkt.id = simu.next_packet_id();
      pkt.size_bytes = size;
      pkt.seq = i;
      pkt.send_time = simu.now();
      first.handle(pkt);
    });
  }
  simu.run_until_idle();
  mix(simu.events_processed());
  return h;
}

}  // namespace

// Pinned arrival digests (packet id, seq, arrival time, plus the event
// count) from the implementation that scheduled one delivery event per
// packet in flight.  A clean link now delivers through its propagation
// lane; a faulty one keeps per-packet events because reordering breaks
// FIFO order.  Both, and a link switching between them mid-run, must
// reproduce the per-packet event order bit for bit.
TEST(Link, PropagationLaneMatchesPinnedArrivals) {
  EXPECT_EQ(chain_arrival_digest(0), 0x92f1d9fb985cd32dull);
}

TEST(Link, ReorderFaultLinkMatchesPinnedArrivals) {
  EXPECT_EQ(chain_arrival_digest(1), 0x477152dcbe0e5558ull);
}

TEST(Link, FaultsToggledMidRunMatchPinnedArrivals) {
  EXPECT_EQ(chain_arrival_digest(2), 0x7526f73ef3f97662ull);
}

TEST(Link, PropagationLaneKeepsReservedTieOrder) {
  // p1's delivery (7 ms) ties with an event X scheduled at 3 ms, after p1
  // left the transmitter (2 ms) but before the lane armed p1 behind p0's
  // delivery (6 ms).  A per-packet delivery event would have been
  // scheduled at 2 ms, ahead of X, so p1 must still be delivered first.
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 8e6;  // 1000 B -> 1 ms
  cfg.propagation_delay = 5 * kMillisecond;
  Link link(sim, "l", cfg);
  std::vector<int> order;
  CountingSink sink;
  sink.set_on_packet([&](const Packet& p) { order.push_back(static_cast<int>(p.seq)); });
  link.set_next(&sink);
  sim.at(0, [&] {
    for (std::uint32_t i = 0; i < 2; ++i) {
      Packet p;
      p.size_bytes = 1000;
      p.seq = i;
      link.handle(p);
    }
  });
  sim.at(3 * kMillisecond,
         [&] { sim.at(7 * kMillisecond, [&] { order.push_back(-1); }); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, -1}));
}

TEST(Link, PropagationLaneKeepsOneDeliveryInTheHeap) {
  // A self-rearming source at line rate into a 10 ms pipe: ~80 packets
  // in flight at once, but only the lane head is in the event heap.
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 100e6;  // 1500 B -> 120 us
  cfg.propagation_delay = 10 * kMillisecond;
  Link link(sim, "l", cfg);
  Collector sink;
  link.set_next(&sink);
  std::uint32_t sent = 0;
  std::function<void()> source = [&] {
    Packet p;
    p.size_bytes = 1500;
    p.seq = sent++;
    link.handle(p);
    if (sent < 2000) sim.after(120 * kMicrosecond, source);
  };
  sim.at(0, source);
  sim.run_until_idle();
  ASSERT_EQ(sink.got.size(), 2000u);
  for (std::uint32_t i = 0; i < 2000; ++i) EXPECT_EQ(sink.got[i].seq, i);
  // Source, transmission and lane head.
  EXPECT_LE(sim.peak_event_count(), 3u);
}

TEST(Link, RejectsBadConfig) {
  Simulator sim;
  LinkConfig bad;
  bad.capacity_bps = 0.0;
  EXPECT_THROW(Link(sim, "x", bad), std::invalid_argument);
}

// --------------------------------------------------------------- path ---

TEST(Path, EndToEndTraversesAllHops) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 10e6;
  Path path(sim, {cfg, cfg, cfg});
  Collector sink;
  path.set_receiver(&sink);
  Packet p;
  p.size_bytes = 1000;
  p.exit_hop = kEndToEnd;
  sim.at(0, [&] { path.inject(0, p); });
  sim.run_until_idle();
  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(path.link(0).stats().packets_out, 1u);
  EXPECT_EQ(path.link(2).stats().packets_out, 1u);
}

TEST(Path, OneHopCrossExitsEarly) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 10e6;
  Path path(sim, {cfg, cfg, cfg});
  Collector sink;
  path.set_receiver(&sink);
  Packet p;
  p.size_bytes = 1000;
  p.exit_hop = 1;  // enters hop 1, leaves after hop 1
  sim.at(0, [&] { path.inject(1, p); });
  sim.run_until_idle();
  EXPECT_EQ(sink.got.size(), 0u);
  EXPECT_EQ(path.cross_sink().packets(), 1u);
  EXPECT_EQ(path.link(1).stats().packets_out, 1u);
  EXPECT_EQ(path.link(2).stats().packets_in, 0u);
}

TEST(Path, AvailBwIsMinimumOverLinks) {
  Simulator sim;
  LinkConfig fast, slow;
  fast.capacity_bps = 100e6;
  slow.capacity_bps = 10e6;
  Path path(sim, {fast, slow});
  Collector sink;
  path.set_receiver(&sink);
  // Idle path: avail-bw = min capacity.
  EXPECT_DOUBLE_EQ(path.avail_bw(0, kSecond), 10e6);
  EXPECT_EQ(path.tight_link(0, kSecond), 1u);
  EXPECT_DOUBLE_EQ(path.narrow_capacity(), 10e6);
}

TEST(Path, BaseOwdSumsHops) {
  Simulator sim;
  LinkConfig cfg;
  cfg.capacity_bps = 10e6;
  cfg.propagation_delay = kMillisecond;
  Path path(sim, {cfg, cfg});
  EXPECT_EQ(path.base_owd(1000),
            2 * (transmission_time(1000, 10e6) + kMillisecond));
}

TEST(Path, RejectsEmptyAndOutOfRange) {
  Simulator sim;
  EXPECT_THROW(Path(sim, {}), std::invalid_argument);
  LinkConfig cfg;
  Path path(sim, {cfg});
  Packet p;
  EXPECT_THROW(path.inject(3, p), std::out_of_range);
}

// -------------------------------------------------------------- demux ---

TEST(TypeDemux, RoutesByType) {
  TypeDemux demux;
  Collector probes, tcp;
  demux.register_handler(PacketType::kProbe, &probes);
  demux.register_handler(PacketType::kTcpData, &tcp);
  Packet p;
  p.type = PacketType::kProbe;
  demux.handle(p);
  p.type = PacketType::kTcpData;
  demux.handle(p);
  p.type = PacketType::kCross;  // unregistered -> fallback
  demux.handle(p);
  EXPECT_EQ(probes.got.size(), 1u);
  EXPECT_EQ(tcp.got.size(), 1u);
  EXPECT_EQ(demux.fallback().packets(), 1u);
}

}  // namespace
