#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace abw::sim {

void Simulator::run_until(SimTime t) {
  obs::ScopedTimer timer(metrics_, kDrainTimer);
  while (!scheduler_.empty() && scheduler_.next_time_unchecked() <= t) step();
  if (now_ < t) now_ = t;
  if (metrics_) metrics_->counter("sim.events").set(events_processed_);
}

void Simulator::run_window(SimTime end) {
  if (end < now_)
    throw std::logic_error("Simulator::run_window: window end in the past");
  obs::ScopedTimer timer(metrics_, kDrainTimer);
  while (!scheduler_.empty() && scheduler_.next_time_unchecked() < end) step();
  now_ = end;
  if (metrics_) metrics_->counter("sim.events").set(events_processed_);
}

void Simulator::run_until_idle() {
  obs::ScopedTimer timer(metrics_, kDrainTimer);
  while (!scheduler_.empty()) step();
  if (metrics_) metrics_->counter("sim.events").set(events_processed_);
}

}  // namespace abw::sim
