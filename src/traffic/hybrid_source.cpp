#include "traffic/hybrid_source.hpp"

#include <stdexcept>
#include <utility>

namespace abw::traffic {

HybridCrossSource::HybridCrossSource(sim::Simulator& sim, sim::Path& path,
                                     std::size_t entry_hop, bool one_hop,
                                     std::uint32_t flow_id,
                                     std::unique_ptr<Generator> gen)
    : sim_(sim),
      path_(path),
      entry_hop_(entry_hop),
      flow_id_(flow_id),
      exit_hop_(one_hop ? static_cast<std::uint32_t>(entry_hop)
                        : sim::kEndToEnd),
      gen_(std::move(gen)) {
  if (!gen_) throw std::invalid_argument("HybridCrossSource: null generator");
  if (entry_hop >= path.hop_count())
    throw std::invalid_argument("HybridCrossSource: entry_hop out of range");
}

void HybridCrossSource::start(sim::SimTime t0, sim::SimTime t1) {
  if (started_) throw std::logic_error("HybridCrossSource::start called twice");
  started_ = true;
  gen_->begin_stream(t0, t1);
  link_ = &path_.link(entry_hop_);
  fq_ = &link_->enable_fluid();
  fq_->set_identity(flow_id_, exit_hop_);
  fq_->reset(t0 > sim_.now() ? t0 : sim_.now());
  link_->set_fluid_interrupt([this] { on_interrupt(); });
  link_->set_fluid_active(true);
  path_.attach_hybrid(this);
  state_ = State::kFluid;
  chunk_.reserve(kChunk);
}

bool HybridCrossSource::refill() {
  chunk_.clear();
  cursor_ = 0;
  return gen_->fill(chunk_, kChunk) > 0;
}

void HybridCrossSource::pump(sim::SimTime t) {
  for (;;) {
    // Absorb the chunk prefix with arrival times <= t in one call.  A
    // whole-chunk prefix (every sync that covers the chunk, i.e. almost
    // always when pumping a long fluid stretch) is detected from the last
    // element instead of re-scanning times absorb() is about to read.
    std::size_t end = cursor_;
    if (cursor_ < chunk_.size() && chunk_.times[chunk_.size() - 1] <= t) {
      end = chunk_.size();
    } else {
      while (end < chunk_.size() && chunk_.times[end] <= t) ++end;
    }
    if (end > cursor_) {
      fq_->absorb(chunk_.times.data() + cursor_, chunk_.sizes.data() + cursor_,
                  end - cursor_, t);
      cursor_ = end;
    }
    if (cursor_ < chunk_.size() || gen_->stream_done()) break;
    if (!refill()) break;
  }
  fq_->advance(t);
}

void HybridCrossSource::sync(sim::SimTime t) {
  if (state_ != State::kFluid) return;  // the DES is authoritative
  if (t > sim_.now()) t = sim_.now();
  pump(t);
}

void HybridCrossSource::open_window(sim::SimTime start) {
  // window_end_ must stay untouched until the window actually begins:
  // sessions announce the next stream right after the previous one ends
  // (e.g. a send_stream with a long lead-in), and wiping it eagerly
  // would block the PACKET -> FLUID resume for the whole idle gap — the
  // source would stay discrete for the rest of the run.
  sim::SimTime when = start > sim_.now() ? start : sim_.now();
  sim_.at(when, [this] {
    window_end_ = kNoEnd;  // window active until the matching close
    if (state_ == State::kFluid) enter_window();
    // else: still discrete from the last window or a safety interrupt.
  });
}

void HybridCrossSource::close_window() {
  if (window_end_ == kNoEnd) window_end_ = sim_.now();
  // The actual PACKET -> FLUID switch happens lazily in emit_discrete(),
  // at the first arrival that finds the link fully idle.
}

void HybridCrossSource::enter_window() {
  sim::SimTime now = sim_.now();
  pump(now);
  fq_->to_discrete(now);
  link_->set_fluid_active(false);
  state_ = State::kWindow;
  arm_inject();
}

void HybridCrossSource::arm_inject() {
  if (cursor_ == chunk_.size() && (gen_->stream_done() || !refill())) return;
  sim_.at(chunk_.times[cursor_], [this] { emit_discrete(); });
}

void HybridCrossSource::emit_discrete() {
  sim::SimTime now = sim_.now();
  if (window_end_ != kNoEnd && now > window_end_ && !link_->transmitting()) {
    // Window over and the link is idle: resume fluid operation with this
    // very arrival as the first fluid one.  The idle requirement means the
    // meter and stats are fully caught up, so the handover is seamless.
    fq_->reset(now);
    link_->set_fluid_active(true);
    state_ = State::kFluid;
    pump(now);
    return;
  }
  sim::Packet pkt;
  pkt.id = sim_.next_packet_id();
  pkt.type = sim::PacketType::kCross;
  pkt.size_bytes = chunk_.sizes[cursor_];
  pkt.flow_id = flow_id_;
  pkt.seq = seq_++;
  pkt.exit_hop = exit_hop_;
  pkt.send_time = now;
  ++cursor_;
  path_.inject(entry_hop_, pkt);
  arm_inject();
}

void HybridCrossSource::on_interrupt() {
  if (state_ != State::kFluid) return;
  // A discrete packet reached our link outside any announced window (e.g.
  // a stream sent without the session bracket).  Materialize the backlog
  // now and stay discrete for a short safety window.
  enter_window();
  window_end_ = sim_.now() + kSafetyWindow;
}

}  // namespace abw::traffic
