// Workload `live`: an in-process abwd on 127.0.0.1 and closed-loop
// clients over real UDP sockets.
//
// One client thread per CPU but one (the daemon's loop thread takes the
// last).  Each client, until the run's time is up, opens a fresh
// net::UdpTransport that advertises a probe budget and a deadline, runs
// igi and then ptr over it, and closes it: one session.  A
// client sends its next session only after the last report of the
// previous one, so a slower system receives less load.  Traffic crosses
// loopback only; no simulator runs.
//
// Why: the only workload that runs `net`.  igi and ptr spend their time in
// paced trains and report round trips; the other tools spend seconds in
// their own sleeps, which would hide the daemon.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/registry.hpp"
#include "net/daemon.hpp"
#include "net/udp_transport.hpp"
#include "runner/batch.hpp"
#include "span.hpp"
#include "timed_transport.hpp"

namespace perfbench {
namespace {

using namespace abw;

// The tight-link capacity the tools are told.  Loopback is far faster, so
// the path is idle at any probe rate; at 0.9 x 20 Mb/s a 1500 B probe gap
// is 667 us, and a client's paced sender sleeps most of it instead of
// spinning, which keeps the clients and the daemon off each other's CPUs
// (at 50 Mb/s and igi/ptr's 700 B, a busy neighbour on the host moved the
// session latency by 10-20%).
constexpr double kCapacityBps = 20e6;
constexpr std::uint32_t kPacketBytes = 1500;
constexpr std::uint64_t kBudgetPackets = 30000;
constexpr sim::SimTime kDeadline = 8 * sim::kSecond;
constexpr const char* kTools[] = {"igi", "ptr"};
constexpr std::size_t kToolCount = sizeof(kTools) / sizeof(kTools[0]);
// Set-up repetitions before the clients start, and again after they stop.
constexpr int kSetupRepeats = 64;

struct Session {
  bool traced = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  // last report in
  bool threw = false;
  std::string what;
  std::size_t estimates = 0;  // completed estimate() calls
  std::size_t valid = 0;
  std::size_t failed = 0;     // invalid, aborted, or never run
  std::size_t aborts[4] = {};  // by est::AbortReason
  std::uint64_t packets = 0;  // probe packets sent
  std::vector<double> measure_s;
  ProbeCounters probe;  // traced sessions only
};

core::ToolOptions tool_options() {
  core::ToolOptions o;
  o.tight_capacity_bps = kCapacityBps;
  o.min_rate_bps = 0.04 * kCapacityBps;
  o.max_rate_bps = 0.98 * kCapacityBps;
  o.packet_size = kPacketBytes;
  o.limits.max_probe_packets = kBudgetPackets;
  o.limits.deadline = kDeadline;
  return o;
}

Session run_session(std::uint16_t port, std::uint64_t seed, OpTrace* trace) {
  Session s;
  s.start_ns = wall_ns();
  try {
    net::UdpTransportConfig cfg;
    cfg.port = port;
    cfg.advertise_budget_packets = kBudgetPackets;
    cfg.advertise_deadline = kDeadline;
    net::UdpTransport udp(cfg);
    std::optional<TimedTransport> timed;
    if (trace != nullptr) timed.emplace(udp, *trace, s.probe);
    probe::Transport& t = timed ? static_cast<probe::Transport&>(*timed) : udp;
    stats::Rng rng(seed);
    ScopedSpan session(trace, "live.session");
    sim::SimTime last = 0;
    for (const char* name : kTools) {
      auto tool = core::make_estimator(name, tool_options(), rng);
      est::Estimate e;
      {
        ScopedSpan span(trace, "est.estimate");
        e = tool->estimate(t);
      }
      ++s.estimates;
      ++s.aborts[static_cast<std::size_t>(e.abort)];
      if (e.valid && e.abort == est::AbortReason::kNone &&
          e.low_bps >= 0.0 && e.low_bps <= e.high_bps &&
          std::isfinite(e.high_bps))
        ++s.valid;
      else
        ++s.failed;
      const sim::SimTime from = last == 0 ? e.cost.first_send : last;
      s.measure_s.push_back(sim::to_seconds(e.cost.last_activity - from));
      last = e.cost.last_activity;
    }
    s.packets = udp.cost().packets;
    s.end_ns = wall_ns();
  } catch (const std::exception& ex) {
    s.threw = true;
    s.what = ex.what();
    s.end_ns = wall_ns();
  }
  s.failed += kToolCount - s.estimates;
  return s;
}

std::vector<std::pair<const char*, std::uint64_t>> fields(const net::DaemonStats& d) {
  return {{"datagrams_in", d.datagrams_in},
          {"probes_in", d.probes_in},
          {"sessions_admitted", d.sessions_admitted},
          {"sessions_rejected", d.sessions_rejected},
          {"sessions_expired", d.sessions_expired},
          {"aborts_sent", d.aborts_sent},
          {"reports_sent", d.reports_sent},
          {"malformed", d.malformed}};
}

}  // namespace

Outcome run_live(const Options& o) {
  Outcome out;

  // Set-up: bind and start the daemon.  A single one takes some 15 us of
  // socket, bind and thread creation and follows the host's load, so it is
  // repeated many times before the clients start and after they stop, and
  // its median covers two moments of the host's state.  Not while they
  // run: there it would time the contention with the clients (5-6x the
  // idle figure), not the set-up.
  const std::size_t clients = o.cpus > 1 ? o.cpus - 1 : 1;
  // Admission never rejects a client, on any host: room for each client's
  // session and one it has just closed.
  const net::DaemonConfig daemon_cfg{
      .max_sessions = std::max(net::DaemonConfig{}.max_sessions, 2 * clients)};
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const std::int64_t t0 = wall_ns();
    auto d = std::make_unique<net::Daemon>(daemon_cfg);
    d->start();
    setup_s.push_back(ns_to_s(wall_ns() - t0));
    return d;
  };
  std::unique_ptr<net::Daemon> daemon;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon) daemon->stop();
    daemon = set_up();
  }
  const std::uint16_t port = daemon->port();

  SpanLog spans;
  std::vector<std::vector<Session>> done(clients);
  std::atomic<bool> stop{false};
  const net::DaemonStats before = daemon->stats();
  const std::int64_t t_start = wall_ns();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        for (std::uint64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
          // In a traced run, untraced and traced sessions alternate.
          const bool traced = o.trace && n % 2 == 1;
          const std::uint64_t op = n * clients + c + 1;
          const std::uint64_t seed = runner::derive_seed(o.seed, op);
          Session s;
          if (traced) {
            OpTrace trace(op);
            s = run_session(port, seed, &trace);
            spans.add(trace);
          } else {
            s = run_session(port, seed, nullptr);
          }
          s.traced = traced;
          done[c].push_back(std::move(s));
        }
      });
    std::this_thread::sleep_for(std::chrono::duration<double>(o.seconds));
    stop.store(true);
  }  // joins: every client finishes its session in flight
  const std::int64_t t_end = wall_ns();
  const net::DaemonStats after = daemon->stats();
  daemon->stop();
  for (int rep = 0; rep < kSetupRepeats; ++rep) set_up()->stop();

  std::vector<double> latency_ms, traced_ms, untraced_ms, measure_s;
  double estimates = 0, sessions = 0, packets = 0;
  std::vector<const Session*> traced;
  for (const auto& list : done)
    for (const Session& s : list) {
      if (s.threw) out.errors.push_back("session threw: " + s.what);
      sessions += 1;
      estimates += static_cast<double>(s.estimates);
      packets += static_cast<double>(s.packets);
      out.attempted += kToolCount;
      out.failed += s.failed;
      const double ms = ns_to_s(s.end_ns - s.start_ns) * 1e3;
      (s.traced ? traced_ms : untraced_ms).push_back(ms);
      measure_s.insert(measure_s.end(), s.measure_s.begin(), s.measure_s.end());
      if (s.traced) traced.push_back(&s);
      else latency_ms.push_back(ms);
    }

  // Output checks against the daemon's own counters.
  const auto b = fields(before), a = fields(after);
  auto delta = [&](std::size_t i) {
    return static_cast<double>(a[i].second - b[i].second);
  };
  expect_equal(out, "daemon sessions_admitted vs sessions opened",
               static_cast<std::uint64_t>(delta(2)),
               static_cast<std::uint64_t>(sessions));
  expect_equal(out, "daemon sessions_rejected", static_cast<std::uint64_t>(delta(3)),
               std::uint64_t{0});
  expect_equal(out, "daemon malformed", static_cast<std::uint64_t>(delta(7)),
               std::uint64_t{0});
  if (delta(1) > packets)
    out.errors.push_back("daemon received more probes than clients sent");

  const double window_s = ns_to_s(t_end - t_start);
  out.e2e["throughput_per_s"] = estimates / window_s;
  out.e2e["latency_p50_ms"] = quantile(latency_ms, 0.50);
  out.layer["latency_p95_ms"] = quantile(latency_ms, 0.95);
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["peak_rss_mb"] = peak_rss_mb();
  out.notes.push_back("live: " + std::to_string(clients) + " clients, " +
                      std::to_string(static_cast<long>(sessions)) +
                      " sessions over loopback, " +
                      std::to_string(latency_ms.size()) +
                      " untraced latency samples");
  out.layer["probe_pkts_per_op"] = packets / estimates;
  out.layer["measure_s_median"] = median(measure_s);
  out.layer["fail_ratio"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  if (o.trace) {
    double ops = 0, valid = 0, streams = 0, sent = 0, lost = 0;
    double aborts[4] = {};
    std::vector<double> send_ns, hello_ns, turnaround_ns;
    for (const Session* s : traced) {
      ops += static_cast<double>(s->estimates);
      valid += static_cast<double>(s->valid);
      for (std::size_t i = 0; i < 4; ++i)
        aborts[i] += static_cast<double>(s->aborts[i]);
      streams += static_cast<double>(s->probe.streams);
      sent += static_cast<double>(s->probe.packets);
      lost += static_cast<double>(s->probe.lost);
      send_ns.insert(send_ns.end(), s->probe.send_ns.begin(), s->probe.send_ns.end());
      hello_ns.insert(hello_ns.end(), s->probe.hello_ns.begin(), s->probe.hello_ns.end());
      turnaround_ns.insert(turnaround_ns.end(), s->probe.turnaround_ns.begin(),
                           s->probe.turnaround_ns.end());
    }
    const SpanTotals est_spans = spans.totals("est.estimate");
    const SpanTotals send = spans.totals("probe.send_stream");
    const SpanTotals wait = spans.totals("probe.wait");
    auto& L = out.layer;
    L["probe.streams"] = streams / ops;
    L["probe.pkts"] = sent / ops;
    L["probe.send_busy_s"] = ns_to_s(send.busy_ns) / ops;
    L["probe.send_p50_us"] = quantile(send_ns, 0.50) * 1e-3;
    L["probe.send_p95_us"] = quantile(send_ns, 0.95) * 1e-3;
    L["probe.wait_busy_s"] = ns_to_s(wait.busy_ns) / ops;
    L["probe.loss_ratio"] = sent > 0 ? lost / sent : 0.0;
    L["est.busy_s"] = ns_to_s(est_spans.busy_ns) / ops;
    L["est.self_s"] = ns_to_s(est_spans.self_ns) / ops;
    L["est.self_share"] = est_spans.busy_ns > 0
                              ? static_cast<double>(est_spans.self_ns) /
                                    static_cast<double>(est_spans.busy_ns)
                              : 0.0;
    L["est.valid_ratio"] = valid / ops;
    L["est.aborts.probe-budget"] =
        aborts[static_cast<int>(est::AbortReason::kProbeBudgetExhausted)] / ops;
    L["est.aborts.deadline"] =
        aborts[static_cast<int>(est::AbortReason::kDeadline)] / ops;
    L["est.aborts.insufficient-data"] =
        aborts[static_cast<int>(est::AbortReason::kInsufficientData)] / ops;
    L["net.hello_ms"] = median(hello_ns) * 1e-6;
    L["net.turnaround_p50_ms"] = quantile(turnaround_ns, 0.50) * 1e-6;
    L["net.turnaround_p95_ms"] = quantile(turnaround_ns, 0.95) * 1e-6;
    L["net.wait_s"] = ns_to_s(wait.busy_ns) / ops;
    for (std::size_t i = 0; i < a.size(); ++i)
      L[std::string("net.daemon.") + a[i].first] = delta(i) / estimates;
    L["net.delivery_ratio"] = packets > 0 ? delta(1) / packets : 0.0;
    L["obs.trace_overhead_ratio"] = median(traced_ms) / median(untraced_ms);
    if (!o.trace_out.empty() && !spans.write_jsonl(o.trace_out))
      out.errors.push_back("cannot write " + o.trace_out);
  }
  return out;
}

}  // namespace perfbench
