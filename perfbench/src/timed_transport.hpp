// TimedTransport: a probe::Transport decorator that times every call an
// estimator makes into the probe layer and counts what it sent.  The
// traced runs wrap each operation's transport in one; the untraced runs
// call the program's transport directly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "probe/transport.hpp"
#include "span.hpp"

namespace perfbench {

/// What one operation sent through its TimedTransport.
struct ProbeCounters {
  std::uint64_t streams = 0;
  std::uint64_t packets = 0;
  std::uint64_t lost = 0;
  /// The tool reached the simulator through sim_session(): some of its
  /// probing bypassed the transport, so its time is not split.
  bool bypass = false;
  std::vector<double> send_ns;        ///< host time of each send_stream
  /// Live transports only, on the transport clock: from the call to the
  /// first probe leaving, minus the lead-in, on the first stream of the
  /// transport (the session handshake happens there) ...
  std::vector<double> hello_ns;
  /// ... and from the last probe leaving to send_stream returning.
  std::vector<double> turnaround_ns;
};

class TimedTransport final : public abw::probe::Transport {
 public:
  TimedTransport(abw::probe::Transport& inner, OpTrace& trace,
                 ProbeCounters& counters)
      : inner_(inner), trace_(trace), counters_(counters) {}

  abw::probe::StreamResult send_stream(const abw::probe::StreamSpec& spec,
                                  abw::sim::SimTime lead_in) override {
    const bool live = inner_.sim_session() == nullptr;
    const bool first = inner_.cost().streams == 0;
    const abw::sim::SimTime called = live ? inner_.now() : 0;
    abw::probe::StreamResult r;
    {
      ScopedSpan span(&trace_, "probe.send_stream");
      const std::int64_t t0 = wall_ns();
      r = inner_.send_stream(spec, lead_in);
      counters_.send_ns.push_back(static_cast<double>(wall_ns() - t0));
    }
    ++counters_.streams;
    counters_.packets += spec.packets.size();
    counters_.lost += r.lost_count();
    if (live && !r.packets.empty()) {
      const abw::sim::SimTime returned = inner_.now();
      abw::sim::SimTime last_sent = r.packets.front().sent;
      for (const auto& p : r.packets) last_sent = std::max(last_sent, p.sent);
      counters_.turnaround_ns.push_back(
          static_cast<double>(returned - last_sent));
      if (first)
        counters_.hello_ns.push_back(
            static_cast<double>(r.packets.front().sent - called - lead_in));
    }
    return r;
  }

  abw::sim::SimTime now() override { return inner_.now(); }

  void wait(abw::sim::SimTime duration) override {
    ScopedSpan span(&trace_, "probe.wait");
    inner_.wait(duration);
  }

  const abw::probe::ProbeCost& cost() const override { return inner_.cost(); }

  std::string_view kind() const override { return inner_.kind(); }

  abw::probe::ProbeSession* sim_session() override {
    abw::probe::ProbeSession* s = inner_.sim_session();
    if (s != nullptr) counters_.bypass = true;
    return s;
  }

 private:
  abw::probe::Transport& inner_;
  OpTrace& trace_;
  ProbeCounters& counters_;
};

}  // namespace perfbench
