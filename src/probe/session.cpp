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

StreamResult ProbeSession::send_stream(const StreamSpec& spec,
                                       sim::SimTime lead_in) {
  if (spec.packets.empty())
    throw std::invalid_argument("ProbeSession: empty stream");
  if (lead_in < 0)
    throw std::invalid_argument("ProbeSession: negative lead-in");
  if (recv_.result != nullptr)
    throw std::logic_error("ProbeSession: a stream is already in flight");

  const sim::SimTime start = sim_.now() + lead_in;
  StreamResult result;
  result.stream_id = next_stream_id_++;
  cost_.add_stream(spec, start);

  StreamEmitter emitter(sim_, path_, spec, start, result);
  recv_.begin(result);

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
  sim_.run_until_condition(deadline, [this] { return recv_.complete(); });

  if (hybrid) path_.close_packet_window();

  recv_.end();
  cost_.last_activity = sim_.now();

  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kStreamEnd;
    e.time = sim_.now();
    e.source = "session";
    e.stream_id = result.stream_id;
    e.count = recv_.received;
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

void ProbeSession::on_probe(const sim::Packet& pkt, sim::SimTime now) {
  ProbeRecord* rec = recv_.accept(pkt.stream_id, pkt.seq);
  if (rec == nullptr) return;  // stale, out of range, or duplicate (counted)
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
}

}  // namespace abw::probe
