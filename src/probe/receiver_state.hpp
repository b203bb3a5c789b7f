// ReceiverState: the one receive path of a probing stream — which stream
// is being filled, how many of its packets arrived, dedup by sequence
// number, reorder detection against the highest seq seen.  Every receiving
// endpoint runs it: probe::ProbeSession (the simulated Transport),
// core::MeshScenario (one per stream of a concurrent batch),
// core::ParallelScenario (partitioned path), and the live UDP daemon
// (net/daemon.hpp).
//
// Semantics: a second arrival for an already-received seq counts as a
// duplicate and keeps the FIRST copy's timestamp (real receivers dedup by
// seq the same way); a first arrival behind a higher seq counts as
// reordered.
#pragma once

#include <cstddef>
#include <cstdint>

#include "probe/stream_result.hpp"

namespace abw::probe {

struct ReceiverState {
  StreamResult* result = nullptr;  ///< stream being filled; nullptr = idle
  std::size_t received = 0;        ///< first arrivals so far
  std::int64_t highest_seq_seen = -1;  ///< -1 = nothing received yet

  /// Starts filling `r` (its packets sized, all lost until they arrive).
  void begin(StreamResult& r) {
    result = &r;
    received = 0;
    highest_seq_seen = -1;
  }

  /// Stops accepting: later arrivals are stale.
  void end() { result = nullptr; }

  /// True once every packet of the stream being filled arrived.
  bool complete() const { return received >= result->packets.size(); }

  /// Applies one arrival of (`stream_id`, `seq`).  Returns the packet's
  /// record when this is a first arrival within range of the stream being
  /// filled — the caller stamps `received` against its own clock — or
  /// nullptr when no stream is being filled, the packet belongs to
  /// another stream or is out of range (all ignored), or it is a
  /// duplicate (counted into result->duplicate_count).
  ProbeRecord* accept(std::uint32_t stream_id, std::uint32_t seq) {
    if (result == nullptr || stream_id != result->stream_id) return nullptr;
    if (seq >= result->packets.size()) return nullptr;
    ProbeRecord& rec = result->packets[seq];
    if (!rec.lost) {
      // Fault-injected (or network) duplicate: the seq already arrived.
      // Count it — the stream is degraded — but keep the first copy.
      ++result->duplicate_count;
      return nullptr;
    }
    rec.lost = false;
    ++received;
    // First arrival behind a higher seq = this packet was reordered.
    if (static_cast<std::int64_t>(seq) < highest_seq_seen)
      ++result->reordered_count;
    else
      highest_seq_seen = static_cast<std::int64_t>(seq);
    return &rec;
  }
};

}  // namespace abw::probe
