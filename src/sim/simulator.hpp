// The simulation kernel: a clock plus a scheduler plus packet-id issuance.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace abw::sim {

/// Owns simulated time.  All components keep a reference to the Simulator
/// and schedule their work through it.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now()).  Accepts any
  /// `void()` callable; it is constructed directly into a pooled event
  /// slot, and captures up to SmallCallback::kInlineSize bytes are stored
  /// inline (no heap allocation, no callback move).
  template <typename F>
  void at(SimTime t, F&& cb) {
    if (t < now_) throw std::logic_error("Simulator::at: time in the past");
    scheduler_.schedule_emplace(t, std::forward<F>(cb));
  }

  /// Schedules `cb` `delay` nanoseconds from now (delay >= 0).
  template <typename F>
  void after(SimTime delay, F&& cb) {
    if (delay < 0) throw std::logic_error("Simulator::after: negative delay");
    scheduler_.schedule_emplace(now_ + delay, std::forward<F>(cb));
  }

  /// Takes `n` event sequence numbers now (Scheduler::reserve_seqs) and
  /// returns the first; at_reserved() inserts the events later.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    return scheduler_.reserve_seqs(n);
  }

  /// Schedules `cb` at absolute time `t` (>= now()) under a sequence
  /// number from reserve_seqs(): it fires exactly where it would have had
  /// it been scheduled with at() when the number was reserved, provided
  /// it is inserted before any event that sorts after it has fired.
  template <typename F>
  void at_reserved(SimTime t, std::uint64_t seq, F&& cb) {
    if (t < now_)
      throw std::logic_error("Simulator::at_reserved: time in the past");
    scheduler_.schedule_reserved(t, seq, std::forward<F>(cb));
  }

  /// Runs events until the queue is empty or the next event is past `t`;
  /// the clock is left at min(t, last event time processed ... t).
  void run_until(SimTime t);

  /// Conservative-window drain (parallel DES, sim/domain.hpp): runs every
  /// event with time strictly BEFORE `end`, then advances the clock to
  /// `end`.  Events at exactly `end` belong to the next window — the
  /// strict bound is what makes time-window synchronization associative
  /// (a window split into two back-to-back run_window calls executes the
  /// identical event sequence).  Requires end >= now().
  void run_window(SimTime end);

  /// Runs until no events remain.
  void run_until_idle();

  /// Runs events until `done()` returns true, the next event is past
  /// `t_max`, or the queue empties.  `done` is checked after each event,
  /// so it is a template parameter: the check inlines into the drain loop.
  /// Returns true when the predicate was satisfied.
  template <typename Done>
  bool run_until_condition(SimTime t_max, Done&& done) {
    obs::ScopedTimer timer(metrics_, kDrainTimer);
    bool satisfied = done();
    while (!satisfied && !scheduler_.empty() &&
           scheduler_.next_time_unchecked() <= t_max) {
      step();
      satisfied = done();
    }
    if (metrics_) metrics_->counter("sim.events").set(events_processed_);
    return satisfied;
  }

  /// True when no events are pending.
  bool idle() const { return scheduler_.empty(); }

  /// Issues a fresh globally unique packet id.
  std::uint64_t next_packet_id() { return next_packet_id_++; }

  /// Total events processed (for micro-benchmarks and sanity checks).
  std::uint64_t events_processed() const { return events_processed_; }

  /// High-water mark of the event heap (Scheduler::peak_size): events
  /// held back under reserved sequence numbers are not counted.
  std::size_t peak_event_count() const { return scheduler_.peak_size(); }

  /// Pooled callback slots created so far; constant at steady state.
  std::size_t event_pool_capacity() const { return scheduler_.pool_capacity(); }

  /// Pre-sizes the event queue for `n` concurrent events.
  void reserve_events(std::size_t n) { scheduler_.reserve(n); }

  /// Attaches a metrics registry: the drain loops (run_until*) then time
  /// themselves under "sim.drain" and event counts are snapshotted into
  /// "sim.events" on each drain.  nullptr (the default) disables
  /// profiling at the cost of one branch per drain call — never per
  /// event.  Not owned.
  void set_metrics(obs::MetricsRegistry* m) { metrics_ = m; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  // Shared timer key so every drain loop accumulates into one TimerStat.
  static constexpr std::string_view kDrainTimer = "sim.drain";

  // Pop one event, advance the clock, run the callback.  Inline: the
  // drain loops call it once per event.
  void step() {
    scheduler_.pop_and_run([this](SimTime t) {
      now_ = t;
      ++events_processed_;
    });
  }

  Scheduler scheduler_;
  SimTime now_ = 0;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t events_processed_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; nullptr = off
};

}  // namespace abw::sim
