#include "probe/session.hpp"

#include <stdexcept>

#include "probe/stream_emitter.hpp"

namespace abw::probe {

ProbeSession::ProbeSession(sim::Simulator& sim, sim::Path& path)
    : sim_(sim), path_(path) {
  probe_sink_.set_on_packet([this](const sim::Packet& pkt) {
    on_probe(pkt, sim_.now());
  });
  demux_.register_handler(sim::PacketType::kProbe, &probe_sink_);
  path_.set_receiver(&demux_);
}

StreamResult ProbeSession::send_stream(const StreamSpec& spec, sim::SimTime start) {
  if (spec.packets.empty())
    throw std::invalid_argument("ProbeSession: empty stream");
  if (start < sim_.now())
    throw std::invalid_argument("ProbeSession: start in the past");
  if (active_ != nullptr)
    throw std::logic_error("ProbeSession: a stream is already in flight");

  StreamResult result;
  result.stream_id = next_stream_id_++;

  if (cost_.streams == 0) cost_.first_send = start;
  ++cost_.streams;
  cost_.packets += spec.packets.size();
  for (const ProbePacketSpec& ps : spec.packets) cost_.bytes += ps.size_bytes;

  StreamEmitter emitter(sim_, path_, spec, start, result);

  active_ = &result;
  received_ = 0;
  recv_.reset();

  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kStreamStart;
    e.time = start;
    e.source = "session";
    e.stream_id = result.stream_id;
    e.count = spec.packets.size();
    e.size_bytes = spec.packets.front().size_bytes;
    trace_->emit(e);
  }

  // Hybrid mode: bracket the stream with a packet window so every link's
  // cross traffic is discrete while probes are in flight (sim/hybrid.hpp).
  bool hybrid = path_.hybrid();
  if (hybrid) {
    sim::SimTime open = start - hybrid_guard_;
    path_.open_packet_window(open > sim_.now() ? open : sim_.now());
  }

  sim::SimTime deadline = start + spec.packets.back().offset + drain_timeout_;
  std::size_t want = spec.packets.size();
  sim_.run_until_condition(deadline, [this, want] { return received_ >= want; });

  if (hybrid) path_.close_packet_window();

  active_ = nullptr;
  cost_.last_activity = sim_.now();

  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kStreamEnd;
    e.time = sim_.now();
    e.source = "session";
    e.stream_id = result.stream_id;
    e.count = received_;
    e.seq = result.duplicate_count;        // schema: "dup"
    e.size_bytes = result.reordered_count; // schema: "reordered"
    trace_->emit(e);
  }
  return result;
}

void ProbeSession::set_drain_timeout(sim::SimTime t) {
  if (t < 0) throw std::invalid_argument("ProbeSession: negative drain timeout");
  drain_timeout_ = t;
}

StreamResult ProbeSession::send_stream_now(const StreamSpec& spec,
                                           sim::SimTime lead_in) {
  return send_stream(spec, sim_.now() + lead_in);
}

void ProbeSession::on_probe(const sim::Packet& pkt, sim::SimTime now) {
  if (active_ == nullptr || pkt.stream_id != active_->stream_id) return;  // stale
  ProbeRecord* rec = recv_.accept(*active_, pkt.seq);
  if (rec == nullptr) return;  // out of range, or duplicate (counted)
  // Timestamp against the (possibly unsynchronized, noisy) receiver clock.
  sim::SimTime stamp =
      now + clock_.offset +
      static_cast<sim::SimTime>(clock_.drift_ppm * 1e-6 *
                                static_cast<double>(now));
  if (clock_.jitter_std_seconds > 0.0)
    stamp += sim::from_seconds(clock_rng_.normal() * clock_.jitter_std_seconds);
  if (clock_.quantization > 0)
    stamp -= stamp % clock_.quantization;  // round down to clock ticks
  rec->received = stamp;
  ++received_;
}

}  // namespace abw::probe
