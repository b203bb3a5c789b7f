// StreamEmitter: the one send loop behind every simulated probe stream
// (ProbeSession — the simulated Transport — MeshScenario and
// ParallelScenario); probe::ReceiverState is the matching receive path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "probe/stream_result.hpp"
#include "probe/stream_spec.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"

namespace abw::probe {

/// Sends one probe stream into hop 0 of a simulated path.  Construction
/// fills the result's per-packet records (seq, size, send time, lost
/// until it arrives), reserves one event sequence number per packet and
/// schedules the first send; each send then schedules the next under its
/// reserved number.  Event order, packet ids and every RNG draw are those
/// of scheduling every send up front, but the event heap holds one send
/// of the stream at a time instead of all of them.  A spec whose offsets
/// are not sorted schedules every send at construction instead (same
/// numbers, same order).
///
/// Pending sends point at the emitter, the spec and the path, so all
/// three must stay put until the last send fired: drivers run the
/// simulation at least to start + spec.packets.back().offset.
class StreamEmitter {
 public:
  /// Probe packets carry `result.stream_id` and `flow_id`.
  StreamEmitter(sim::Simulator& sim, sim::Path& path, const StreamSpec& spec,
                sim::SimTime start, StreamResult& result,
                std::uint32_t flow_id = 0);

  StreamEmitter(const StreamEmitter&) = delete;
  StreamEmitter& operator=(const StreamEmitter&) = delete;

 private:
  void arm(std::size_t i);   // schedule send i under its reserved number
  void send(std::size_t i);  // inject packet i, then arm i + 1

  sim::Simulator& sim_;
  sim::Path& path_;
  const StreamSpec& spec_;
  sim::SimTime start_;
  std::uint64_t first_seq_;
  std::uint32_t stream_id_;
  std::uint32_t flow_id_;
  bool lazy_;  // offsets sorted: each send arms the next
};

}  // namespace abw::probe
