#include "probe/stream_emitter.hpp"

#include <algorithm>
#include <stdexcept>

namespace abw::probe {

StreamEmitter::StreamEmitter(sim::Simulator& sim, sim::Path& path,
                             const StreamSpec& spec, sim::SimTime start,
                             StreamResult& result, std::uint32_t flow_id)
    : sim_(sim),
      path_(path),
      spec_(spec),
      start_(start),
      first_seq_(0),
      stream_id_(result.stream_id),
      flow_id_(flow_id),
      lazy_(std::is_sorted(spec.packets.begin(), spec.packets.end(),
                           [](const ProbePacketSpec& a,
                              const ProbePacketSpec& b) {
                             return a.offset < b.offset;
                           })) {
  if (spec.packets.empty())
    throw std::invalid_argument("StreamEmitter: empty stream");
  result.packets.resize(spec.packets.size());
  for (std::size_t i = 0; i < spec.packets.size(); ++i) {
    ProbeRecord& r = result.packets[i];
    r.seq = static_cast<std::uint32_t>(i);
    r.size_bytes = spec.packets[i].size_bytes;
    r.sent = start + spec.packets[i].offset;
    r.lost = true;  // cleared on arrival
  }
  first_seq_ = sim_.reserve_seqs(spec.packets.size());
  if (lazy_) {
    arm(0);
  } else {
    for (std::size_t i = 0; i < spec.packets.size(); ++i) arm(i);
  }
}

void StreamEmitter::arm(std::size_t i) {
  sim_.at_reserved(start_ + spec_.packets[i].offset, first_seq_ + i,
                   [this, i] { send(i); });
}

void StreamEmitter::send(std::size_t i) {
  sim::Packet pkt;
  pkt.id = sim_.next_packet_id();
  pkt.type = sim::PacketType::kProbe;
  pkt.measurement = true;  // excluded from cross-traffic ground truth
  pkt.size_bytes = spec_.packets[i].size_bytes;
  pkt.flow_id = flow_id_;
  pkt.stream_id = stream_id_;
  pkt.seq = static_cast<std::uint32_t>(i);
  pkt.send_time = sim_.now();
  path_.inject(0, pkt);
  if (lazy_ && i + 1 < spec_.packets.size()) arm(i + 1);
}

}  // namespace abw::probe
