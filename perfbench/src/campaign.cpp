// Workload `campaign`: the paper's tool comparison on its single-hop path.
//
// Every registry tool runs on every cross-traffic configuration under a
// few scenario seeds derived from the run's seed; each (tool, config,
// seed) cell builds a fresh packet-level Scenario (Ct 50 Mb/s, A 25 Mb/s)
// and runs one estimate.  The timed cells go through a one-job
// BatchRunner, round after round until the run's time is up; every round
// must reproduce the first one bit for bit, and so must a rerun on one
// job per CPU.
//
// Why: the packet-level scheduler, links and traffic generators do most
// of the work here, and the fluid path none.  The trimodal (40/576/1500 B)
// cells put the per-packet cost at the smallest sizes in the mix.
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.hpp"
#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "runner/batch.hpp"
#include "span.hpp"
#include "timed_transport.hpp"

namespace perfbench {
namespace {

using namespace abw;

constexpr double kCapacityBps = 50e6;
constexpr double kCrossBps = 25e6;
// Scenario seeds per round: with 9 tools x 5 configs, 180 distinct cells.
// A round takes a few seconds on one job, so a run holds several rounds and
// overruns its time by little.
constexpr std::size_t kScenarioSeeds = 4;
// Timed jobs.  On a shared host, one job per CPU measures the neighbours:
// a round waits for its slowest worker, and two busy CPUs elsewhere cut
// one-job-per-CPU throughput by a third but one job's by a few percent.
constexpr std::size_t kJobs = 1;

struct CrossConfig {
  core::CrossModel model;
  bool trimodal;
};

constexpr CrossConfig kConfigs[] = {
    {core::CrossModel::kCbr, false},
    {core::CrossModel::kPoisson, false},
    {core::CrossModel::kPoisson, true},
    {core::CrossModel::kParetoOnOff, false},
    {core::CrossModel::kFgn, false},
};
constexpr std::size_t kConfigCount = sizeof(kConfigs) / sizeof(kConfigs[0]);

struct Cell {
  std::size_t tool = 0;
  std::size_t config = 0;
  std::uint64_t seed = 0;
};

struct CellResult {
  // The estimate: what the digests compare.
  bool valid = false;
  est::AbortReason abort = est::AbortReason::kNone;
  double low_bps = 0.0;
  double high_bps = 0.0;
  bool threw = false;
  std::string what;
  // Deterministic by-products.
  double error = std::numeric_limits<double>::quiet_NaN();  // valid only
  std::uint64_t packets = 0;
  double measure_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t peak_queue = 0;
  // Host time of the whole cell.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;  // span operation id (traced cells)
  ProbeCounters probe;   // traced cells only

  bool failed() const {
    return threw || !valid || abort != est::AbortReason::kNone;
  }
};

core::SingleHopConfig scenario_config(const Cell& c) {
  core::SingleHopConfig cfg;
  cfg.capacity_bps = kCapacityBps;
  cfg.cross_rate_bps = kCrossBps;
  cfg.mode = sim::SimMode::kPacket;
  cfg.model = kConfigs[c.config].model;
  cfg.trimodal_cross_sizes = kConfigs[c.config].trimodal;
  cfg.seed = c.seed;
  return cfg;
}

core::ToolOptions tool_options() {
  core::ToolOptions o;
  o.tight_capacity_bps = kCapacityBps;
  o.min_rate_bps = 0.04 * kCapacityBps;
  o.max_rate_bps = 0.98 * kCapacityBps;
  return o;
}

CellResult run_cell(const Cell& cell, const std::vector<std::string>& tools,
                    OpTrace* trace) {
  CellResult r;
  r.start_ns = wall_ns();
  try {
    ScopedSpan cell_span(trace, "campaign.cell");
    std::optional<core::Scenario> sc;
    {
      ScopedSpan build(trace, "core.scenario_build");
      sc.emplace(core::Scenario::single_hop(scenario_config(cell)));
    }
    auto tool = core::make_estimator(tools[cell.tool], tool_options(), sc->rng());
    est::Estimate e;
    if (trace != nullptr) {
      TimedTransport timed(sc->transport(), *trace, r.probe);
      ScopedSpan span(trace, "est.estimate");
      e = tool->estimate(timed);
    } else {
      e = tool->estimate(sc->transport());
    }
    r.valid = e.valid;
    r.abort = e.abort;
    r.low_bps = e.low_bps;
    r.high_bps = e.high_bps;
    r.packets = e.cost.packets;
    r.measure_s = sim::to_seconds(e.cost.elapsed());
    r.events = sc->simulator().events_processed();
    r.peak_queue = sc->simulator().peak_event_count();
    if (e.valid && e.cost.last_activity > e.cost.first_send) {
      // Truth over the estimate's own measurement window (Eq. 3).
      const double truth =
          sc->ground_truth(e.cost.first_send, e.cost.last_activity);
      if (truth > 0.0) r.error = std::abs(e.point_bps() - truth) / truth;
    }
  } catch (const std::exception& ex) {
    r.threw = true;
    r.what = ex.what();
  }
  r.end_ns = wall_ns();
  return r;
}

std::uint64_t digest(const std::vector<CellResult>& cells, std::size_t begin,
                     std::size_t end) {
  Digest d;
  for (std::size_t i = begin; i < end; ++i) {
    const CellResult& c = cells[i];
    d.add(static_cast<std::uint64_t>(c.valid));
    d.add(static_cast<std::uint64_t>(c.abort));
    d.add(c.low_bps);
    d.add(c.high_bps);
  }
  return d.h;
}

// The metrics that must repeat exactly: a seeded simulation has no noise.
struct Deterministic {
  double error_median = 0.0;
  double probe_pkts_per_op = 0.0;
  double measure_s_median = 0.0;
  double sim_events = 0.0;
};

Deterministic deterministic(const std::vector<CellResult>& cells) {
  Deterministic d;
  std::vector<double> errors, measure;
  double packets = 0.0, events = 0.0;
  for (const CellResult& c : cells) {
    if (!std::isnan(c.error)) errors.push_back(c.error);
    measure.push_back(c.measure_s);
    packets += static_cast<double>(c.packets);
    events += static_cast<double>(c.events);
  }
  const auto n = static_cast<double>(cells.size());
  d.error_median = median(errors);
  d.probe_pkts_per_op = packets / n;
  d.measure_s_median = median(measure);
  d.sim_events = events / n;
  return d;
}

// What the checks and metrics need from one round.  run_campaign keeps
// the cells themselves only for the first round and the traced rounds, so
// memory does not grow with the number of rounds an untraced run completes.
struct Round {
  bool traced = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t digest = 0;
  Deterministic det;
  std::size_t cell_count = 0;
  std::size_t failed = 0;
  std::vector<CellResult> cells;
};

void check_round(Outcome& out, const Round& first, const Round& r,
                 const std::string& label) {
  expect_equal(out, label + " digest", first.digest, r.digest);
  expect_equal(out, label + " error_median", first.det.error_median,
               r.det.error_median);
  expect_equal(out, label + " probe_pkts_per_op", first.det.probe_pkts_per_op,
               r.det.probe_pkts_per_op);
  expect_equal(out, label + " measure_s_median", first.det.measure_s_median,
               r.det.measure_s_median);
  expect_equal(out, label + " sim.events", first.det.sim_events,
               r.det.sim_events);
}

// Per-layer metrics from the traced rounds.
void layer_metrics(Outcome& out, const std::vector<const Round*>& traced,
                   const SpanLog& spans) {
  double ops = 0, valid = 0, streams = 0, packets = 0, lost = 0;
  double aborts_budget = 0, aborts_deadline = 0, aborts_data = 0;
  double events_timed = 0, peak = 0;
  double task_busy = 0, start_wait = 0, round_wall = 0;
  std::vector<double> send_ns;
  std::unordered_set<std::uint64_t> bypass;
  for (const Round* rd : traced) {
    round_wall += ns_to_s(rd->end_ns - rd->start_ns);
    for (const CellResult& c : rd->cells) {
      ops += 1;
      valid += c.valid ? 1 : 0;
      aborts_budget += c.abort == est::AbortReason::kProbeBudgetExhausted;
      aborts_deadline += c.abort == est::AbortReason::kDeadline;
      aborts_data += c.abort == est::AbortReason::kInsufficientData;
      streams += static_cast<double>(c.probe.streams);
      packets += static_cast<double>(c.probe.packets);
      lost += static_cast<double>(c.probe.lost);
      peak = std::max(peak, static_cast<double>(c.peak_queue));
      task_busy += ns_to_s(c.end_ns - c.start_ns);
      start_wait += ns_to_s(c.start_ns - rd->start_ns);
      send_ns.insert(send_ns.end(), c.probe.send_ns.begin(),
                     c.probe.send_ns.end());
      if (c.probe.bypass) {
        bypass.insert(c.op);
        continue;
      }
      events_timed += static_cast<double>(c.events);
      // The decorator must see every packet the probe layer accounts.
      expect_equal(out, "traced packets vs ProbeCost", c.probe.packets,
                   c.packets);
    }
  }
  // A tool that bypassed the transport spent part of its "self" time
  // driving the simulator: left out of the self split and ns/event.
  const auto timed = [&](std::uint64_t op) { return !bypass.count(op); };
  const double timed_ops = ops - static_cast<double>(bypass.size());
  const SpanTotals build = spans.totals("core.scenario_build");
  const SpanTotals est_all = spans.totals("est.estimate");
  const SpanTotals send = spans.totals("probe.send_stream");
  const SpanTotals wait = spans.totals("probe.wait");
  const SpanTotals est_timed = spans.totals("est.estimate", timed);
  const std::int64_t sim_ns = spans.totals("core.scenario_build", timed).busy_ns +
                              spans.totals("probe.send_stream", timed).busy_ns +
                              spans.totals("probe.wait", timed).busy_ns;

  auto& L = out.layer;
  L["core.scenario_build_s"] = ns_to_s(build.busy_ns) / ops;
  L["sim.ns_per_event"] =
      events_timed > 0 ? static_cast<double>(sim_ns) / events_timed : 0.0;
  L["sim.peak_queue"] = peak;
  L["probe.streams"] = streams / ops;
  L["probe.pkts"] = packets / ops;
  L["probe.send_busy_s"] = ns_to_s(send.busy_ns) / ops;
  L["probe.send_p50_us"] = quantile(send_ns, 0.50) * 1e-3;
  L["probe.send_p95_us"] = quantile(send_ns, 0.95) * 1e-3;
  L["probe.wait_busy_s"] = ns_to_s(wait.busy_ns) / ops;
  L["probe.loss_ratio"] = packets > 0 ? lost / packets : 0.0;
  L["probe.bypass_ops"] = static_cast<double>(bypass.size()) / ops;
  L["est.busy_s"] = ns_to_s(est_all.busy_ns) / ops;
  L["est.self_s"] = timed_ops > 0 ? ns_to_s(est_timed.self_ns) / timed_ops : 0.0;
  L["est.self_share"] = est_timed.busy_ns > 0
                            ? static_cast<double>(est_timed.self_ns) /
                                  static_cast<double>(est_timed.busy_ns)
                            : 0.0;
  L["est.valid_ratio"] = valid / ops;
  L["est.aborts.probe-budget"] = aborts_budget / ops;
  L["est.aborts.deadline"] = aborts_deadline / ops;
  L["est.aborts.insufficient-data"] = aborts_data / ops;
  L["runner.tasks"] = 1.0;
  L["runner.task_busy_s"] = task_busy / ops;
  L["runner.start_wait_s"] = start_wait / ops;
  L["runner.utilization"] = task_busy / (round_wall * static_cast<double>(kJobs));
}

}  // namespace

Outcome run_campaign(const Options& o) {
  Outcome out;
  std::vector<std::string> tools;
  for (const core::ToolInfo& t : core::available_tool_info())
    tools.push_back(t.name);

  // Set-up: plan the cells, then build one scenario per cross config so
  // allocator pools and lazily built tables are warm before timing.  It
  // is repeated after every round, so its median covers the host's state
  // over the whole run, not one moment.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const std::int64_t t0 = wall_ns();
    std::vector<Cell> plan;
    for (std::size_t s = 0; s < kScenarioSeeds; ++s)
      for (std::size_t c = 0; c < kConfigCount; ++c)
        for (std::size_t t = 0; t < tools.size(); ++t)
          plan.push_back({t, c, runner::derive_seed(o.seed, s)});
    for (std::size_t c = 0; c < kConfigCount; ++c)
      (void)core::Scenario::single_hop(scenario_config({0, c, o.seed}));
    setup_s.push_back(ns_to_s(wall_ns() - t0));
    return plan;
  };
  const std::vector<Cell> cells = set_up();

  runner::BatchRunner pool(kJobs);
  SpanLog spans;
  std::vector<Round> rounds;
  std::vector<double> latency_ms;  // untraced cells
  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  // Untraced rounds only, or untraced and traced rounds alternating.
  for (std::size_t k = 0;; ++k) {
    const bool traced = o.trace && k % 2 == 1;
    Round rd;
    rd.traced = traced;
    rd.start_ns = wall_ns();
    rd.cells = pool.map(cells.size(), [&](std::size_t i) {
      if (!traced) return run_cell(cells[i], tools, nullptr);
      OpTrace trace(k * cells.size() + i + 1);
      CellResult r = run_cell(cells[i], tools, &trace);
      r.op = trace.op();
      spans.add(trace);
      return r;
    });
    rd.end_ns = wall_ns();
    rd.digest = digest(rd.cells, 0, rd.cells.size());
    rd.det = deterministic(rd.cells);
    rd.cell_count = rd.cells.size();
    for (const CellResult& c : rd.cells) {
      rd.failed += c.failed() ? 1 : 0;
      if (!traced) latency_ms.push_back(ns_to_s(c.end_ns - c.start_ns) * 1e3);
    }
    if (k > 0 && !traced) std::vector<CellResult>().swap(rd.cells);
    rounds.push_back(std::move(rd));
    (void)set_up();
    const bool pair_done = !o.trace || k % 2 == 1;
    if (wall_ns() >= deadline && pair_done) break;
  }
  // Before the checks below, whose rerun on one job per CPU holds several
  // scenarios at once.
  out.e2e["peak_rss_mb"] = peak_rss_mb();

  // Output checks: every round, traced or not, and a rerun of the first
  // scenario seed on one job per CPU must reproduce the first round exactly.
  for (std::size_t k = 1; k < rounds.size(); ++k)
    check_round(out, rounds[0], rounds[k],
                std::string(rounds[k].traced ? "traced" : "untraced") +
                    " round " + std::to_string(k));
  const std::size_t per_seed = kConfigCount * tools.size();
  {
    runner::BatchRunner wide(o.cpus);
    const std::vector<CellResult> rerun = wide.map(
        per_seed, [&](std::size_t i) { return run_cell(cells[i], tools, nullptr); });
    expect_equal(out, "jobs=nproc rerun digest", digest(rounds[0].cells, 0, per_seed),
                 digest(rerun, 0, per_seed));
  }
  for (const CellResult& c : rounds[0].cells) {
    if (c.threw) out.errors.push_back("cell threw: " + c.what);
    if (c.valid && !(c.low_bps >= 0.0 && c.low_bps <= c.high_bps &&
                     std::isfinite(c.high_bps)))
      out.errors.push_back("malformed estimate range");
  }

  // End-to-end metrics from the untraced rounds.  Throughput is the median
  // round's, so a stall on the host moves one round, not the result.
  std::vector<double> round_rate;
  for (const Round& rd : rounds) {
    out.attempted += rd.cell_count;
    out.failed += rd.failed;
    if (rd.traced) continue;
    round_rate.push_back(static_cast<double>(rd.cell_count) /
                         ns_to_s(rd.end_ns - rd.start_ns));
  }
  out.e2e["throughput_per_s"] = median(round_rate);
  out.e2e["latency_p50_ms"] = quantile(latency_ms, 0.50);
  out.layer["latency_p95_ms"] = quantile(latency_ms, 0.95);
  out.e2e["setup_s"] = median(setup_s);
  out.notes.push_back("campaign: " + std::to_string(cells.size()) +
                      " cells per round, " + std::to_string(rounds.size()) +
                      " rounds, " + std::to_string(latency_ms.size()) +
                      " untraced latency samples, jobs " +
                      std::to_string(kJobs));

  const Deterministic& d = rounds[0].det;
  out.layer["error_median"] = d.error_median;
  out.layer["probe_pkts_per_op"] = d.probe_pkts_per_op;
  out.layer["measure_s_median"] = d.measure_s_median;
  out.layer["fail_ratio"] = static_cast<double>(rounds[0].failed) /
                            static_cast<double>(cells.size());
  out.layer["sim.events"] = d.sim_events;

  if (o.trace) {
    std::vector<const Round*> traced;
    double traced_s = 0, untraced_s = 0;
    for (const Round& rd : rounds) {
      (rd.traced ? traced_s : untraced_s) += ns_to_s(rd.end_ns - rd.start_ns);
      if (rd.traced) traced.push_back(&rd);
    }
    layer_metrics(out, traced, spans);
    out.layer["obs.trace_overhead_ratio"] = traced_s / untraced_s;
    if (!o.trace_out.empty() && !spans.write_jsonl(o.trace_out))
      out.errors.push_back("cannot write " + o.trace_out);
  }
  return out;
}

}  // namespace perfbench
