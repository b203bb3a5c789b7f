// Workload `mesh`: resolving the 256-pair parking-lot mesh.
//
// 16 sources x 16 sinks over an 8-link backbone whose utilization rises
// 0.50 -> 0.60 along the chain, cross traffic in SimMode::kHybrid.  A few
// meshes are seeded from the run's seed; MeshEstimator resolves them in
// turn over a one-job BatchRunner until the run's time is up, and a rerun
// on one job per CPU must reproduce them.  Ground truth is computed after
// the timed phase.
//
// Why: fluid cross traffic, MeshScenario's own forwarder, inference and
// the runner (16 probed pairs per resolution) do the work.  The packet
// scheduler, probe::Transport and est::Estimator do little, so a gain
// there should not show here.
#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/mesh_scenario.hpp"
#include "est/mesh.hpp"
#include "runner/batch.hpp"
#include "span.hpp"

namespace perfbench {
namespace {

using namespace abw;

// Distinct meshes per run, resolved in turn.  Their resolutions differ in
// cost; with few meshes the median resolution jumps between them.
constexpr std::size_t kMeshes = 8;
constexpr double kMaxProbeFraction = 0.30;
// Ground-truth window after warmup (as bench/micro_mesh does).
constexpr sim::SimTime kTruthWindow = 4 * sim::kSecond;
// Timed jobs.  On a shared host, one job per CPU measures the neighbours:
// a resolution waits for its slowest worker, and two busy CPUs elsewhere
// cut one-job-per-CPU throughput by a third but one job's by a few percent.
constexpr std::size_t kJobs = 1;

core::MeshConfig mesh_config(std::uint64_t seed) {
  core::ParkingLotMeshConfig pc;
  pc.backbone_hops = 8;
  pc.sources = 16;
  pc.sinks = 16;
  pc.backbone_capacity_bps = 50e6;
  pc.access_capacity_bps = 200e6;
  pc.util_min = 0.50;
  pc.util_max = 0.60;
  pc.mode = sim::SimMode::kHybrid;
  pc.model = core::CrossModel::kPoisson;
  pc.warmup = sim::kSecond;
  pc.seed = seed;
  core::MeshConfig mc = core::parking_lot_mesh(pc);
  mc.topology.auto_route_all(mc.pairs);
  return mc;
}

struct Mesh {
  core::MeshConfig cfg;
  std::unique_ptr<est::MeshEstimator> estimator;
  est::MeshMeasureFn measure;
  std::int64_t construct_ns = 0;  // MeshEstimator construction (selection)
};

Mesh build_mesh(std::uint64_t seed) {
  Mesh m;
  m.cfg = mesh_config(seed);
  std::vector<est::MeshPathSpec> specs =
      est::make_path_specs(m.cfg.topology, m.cfg.pairs);
  const std::int64_t t0 = wall_ns();
  m.estimator = std::make_unique<est::MeshEstimator>(
      std::move(specs),
      est::MeshEstimatorConfig{.max_probe_fraction = kMaxProbeFraction,
                               .base_seed = runner::derive_seed(seed, 1)});
  m.construct_ns = wall_ns() - t0;
  m.measure = core::make_mesh_measure_fn(m.cfg, core::MeshProbeConfig{});
  return m;
}

std::uint64_t digest(const est::MeshReport& r) {
  Digest d;
  for (const est::MeshPairEstimate& p : r.pairs) {
    d.add(static_cast<std::uint64_t>(p.valid));
    d.add(static_cast<std::uint64_t>(p.measured));
    d.add(p.estimate_bps);
    d.add(p.low_bps);
    d.add(p.high_bps);
  }
  for (std::size_t p : r.probed) d.add(static_cast<std::uint64_t>(p));
  return d.h;
}

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

// What the checks and metrics need from one resolution.  run_mesh keeps
// the full report only for each mesh's first resolution, so memory does
// not grow with the number of resolutions a run completes.
struct Resolution {
  std::size_t mesh = 0;
  bool traced = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t digest = 0;
  std::size_t pairs = 0;
  std::size_t invalid = 0;
  std::vector<Interval> measures;  // traced: each measure call
  std::int64_t infer_ns = 0;       // traced: MeshEstimator::infer alone
  bool infer_matches = true;       // traced: infer() reproduced the report
};

Resolution resolve(Mesh& m, std::size_t index, runner::BatchRunner& pool,
                   SpanLog* spans, std::uint64_t op, est::MeshReport& report) {
  Resolution r;
  r.mesh = index;
  r.traced = spans != nullptr;
  const auto summarize = [&] {
    r.digest = digest(report);
    r.pairs = report.pairs.size();
    for (const est::MeshPairEstimate& e : report.pairs)
      r.invalid += e.valid ? 0 : 1;
  };
  if (spans == nullptr) {
    r.start_ns = wall_ns();
    report = m.estimator->estimate(pool, m.measure);
    r.end_ns = wall_ns();
    summarize();
    return r;
  }
  std::mutex mu;
  const est::MeshMeasureFn timed = [&](std::size_t pair, std::uint64_t seed) {
    OpTrace trace(op);
    est::MeshMeasurement result;
    Interval iv;
    {
      ScopedSpan span(&trace, "mesh.measure");
      iv.start = wall_ns();
      result = m.measure(pair, seed);
      iv.end = wall_ns();
    }
    spans->add(trace);
    std::lock_guard<std::mutex> lock(mu);
    r.measures.push_back(iv);
    return result;
  };
  OpTrace trace(op);
  {
    ScopedSpan span(&trace, "mesh.estimate");
    r.start_ns = wall_ns();
    report = m.estimator->estimate(pool, timed);
    r.end_ns = wall_ns();
  }
  summarize();
  {
    ScopedSpan span(&trace, "mesh.infer");
    const std::int64_t t0 = wall_ns();
    const est::MeshReport again =
        m.estimator->infer(report.probed, report.measurements);
    r.infer_ns = wall_ns() - t0;
    r.infer_matches = digest(again) == r.digest;
  }
  spans->add(trace);
  return r;
}

}  // namespace

Outcome run_mesh(const Options& o) {
  Outcome out;

  // Set-up: topology, routes, path specs, MeshEstimator (probe-set
  // selection) and the measurement function, for every mesh of the run.
  // It is repeated after every cycle over the meshes, so its median covers
  // the host's state over the whole run, not one moment.
  std::vector<double> setup_s, select_s;
  const auto set_up = [&] {
    const std::int64_t t0 = wall_ns();
    std::vector<Mesh> built;
    for (std::size_t k = 0; k < kMeshes; ++k)
      built.push_back(build_mesh(runner::derive_seed(o.seed, k)));
    setup_s.push_back(ns_to_s(wall_ns() - t0));
    std::int64_t sel = 0;
    for (const Mesh& m : built) sel += m.construct_ns;
    select_s.push_back(ns_to_s(sel) / static_cast<double>(kMeshes));
    return built;
  };
  std::vector<Mesh> meshes = set_up();
  runner::BatchRunner pool(kJobs);

  SpanLog spans;
  std::vector<Resolution> res;
  std::vector<est::MeshReport> first_reports;  // each mesh's first resolution
  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  for (std::size_t k = 0;; ++k) {
    // In a traced run, untraced and traced cycles over the meshes
    // alternate, so each mesh gets both.
    const bool traced = o.trace && (k / kMeshes) % 2 == 1;
    est::MeshReport report;
    res.push_back(resolve(meshes[k % kMeshes], k % kMeshes, pool,
                          traced ? &spans : nullptr, k + 1, report));
    if (k < kMeshes) first_reports.push_back(std::move(report));
    if ((k + 1) % kMeshes != 0) continue;
    (void)set_up();
    const bool pair_done = !o.trace || (k + 1) % (2 * kMeshes) == 0;
    if (wall_ns() >= deadline && pair_done) break;
  }
  // Before the checks below, whose rerun on one job per CPU holds several
  // scenarios at once.
  out.e2e["peak_rss_mb"] = peak_rss_mb();

  // Output checks: every resolution of a mesh, traced or not, and a rerun
  // of the first mesh on one job per CPU reproduce its first resolution.
  std::vector<std::uint64_t> first(kMeshes);
  for (std::size_t k = 0; k < kMeshes; ++k) first[k] = res[k].digest;
  for (std::size_t k = kMeshes; k < res.size(); ++k)
    expect_equal(out,
                 std::string(res[k].traced ? "traced" : "untraced") +
                     " resolution " + std::to_string(k) + " digest",
                 first[res[k].mesh], res[k].digest);
  for (const Resolution& r : res)
    if (!r.infer_matches)
      out.errors.push_back("MeshEstimator::infer disagrees with estimate");
  {
    runner::BatchRunner wide(o.cpus);
    expect_equal(out, "jobs=nproc rerun digest", first[0],
                 digest(meshes[0].estimator->estimate(wide, meshes[0].measure)));
  }

  // Ground truth after the timed phase: each mesh's Eq. 3 matrix over a
  // steady-state window.
  std::vector<double> errors;
  double pairs = 0, invalid = 0;
  for (std::size_t k = 0; k < kMeshes; ++k) {
    const core::MeshConfig& mc = meshes[k].cfg;
    core::MeshScenario reference(mc);
    const sim::SimTime t1 = mc.warmup;
    const sim::SimTime t2 = t1 + kTruthWindow;
    reference.run_until(t2);
    const std::vector<double> truth = reference.ground_truth_matrix(t1, t2);
    const est::MeshReport& rep = first_reports[k];
    for (std::size_t p = 0; p < rep.pairs.size(); ++p) {
      const est::MeshPairEstimate& e = rep.pairs[p];
      pairs += 1;
      invalid += e.valid ? 0 : 1;
      if (e.valid && !(e.estimate_bps >= 0.0 &&
                       e.estimate_bps <= reference.pair_narrow_capacity(p)))
        out.errors.push_back("mesh estimate outside [0, narrow capacity]");
      if (e.measured) continue;
      // An unresolvable pair counts as total error.
      errors.push_back(e.valid && truth[p] > 0.0
                           ? std::abs(e.estimate_bps - truth[p]) / truth[p]
                           : 1.0);
    }
  }

  // Throughput is the median cycle's (each mesh resolved once), so a stall
  // on the host moves one cycle, not the result.
  std::vector<double> latency_ms, cycle_rate;
  double cycle_pairs = 0, cycle_s = 0, traced_s = 0, untraced_s = 0;
  for (std::size_t k = 0; k < res.size(); ++k) {
    const Resolution& r = res[k];
    const double s = ns_to_s(r.end_ns - r.start_ns);
    (r.traced ? traced_s : untraced_s) += s;
    out.attempted += r.pairs;
    out.failed += r.invalid;
    if (r.traced) continue;
    latency_ms.push_back(s * 1e3);
    cycle_pairs += static_cast<double>(r.pairs);
    cycle_s += s;
    if ((k + 1) % kMeshes == 0) {
      cycle_rate.push_back(cycle_pairs / cycle_s);
      cycle_pairs = cycle_s = 0;
    }
  }
  out.e2e["throughput_per_s"] = median(cycle_rate);
  out.e2e["latency_p50_ms"] = quantile(latency_ms, 0.50);
  out.layer["latency_p95_ms"] = quantile(latency_ms, 0.95);
  out.e2e["setup_s"] = median(setup_s);
  out.notes.push_back("mesh: " + std::to_string(kMeshes) + " meshes x " +
                      std::to_string(res[0].pairs) + " pairs, " +
                      std::to_string(res.size()) + " resolutions, " +
                      std::to_string(latency_ms.size()) +
                      " untraced latency samples, jobs " +
                      std::to_string(kJobs));

  double probed = 0;
  for (std::size_t k = 0; k < kMeshes; ++k)
    probed += first_reports[k].probed_fraction();
  out.layer["error_median"] = median(errors);
  out.layer["mesh.probe_fraction"] = probed / static_cast<double>(kMeshes);
  out.layer["fail_ratio"] = invalid / pairs;

  if (o.trace) {
    double ops = 0, calls = 0, busy = 0, wait = 0, wall = 0, infer = 0;
    std::vector<double> measure_ms;
    for (const Resolution& r : res) {
      if (!r.traced) continue;
      ops += 1;
      wall += ns_to_s(r.end_ns - r.start_ns);
      infer += ns_to_s(r.infer_ns);
      for (const Interval& iv : r.measures) {
        calls += 1;
        busy += ns_to_s(iv.end - iv.start);
        wait += ns_to_s(iv.start - r.start_ns);
        measure_ms.push_back(ns_to_s(iv.end - iv.start) * 1e3);
      }
    }
    auto& L = out.layer;
    L["mesh.measure_calls"] = calls / ops;
    L["mesh.measure_busy_s"] = busy / ops;
    L["mesh.measure_p50_ms"] = quantile(measure_ms, 0.50);
    L["mesh.select_s"] = median(select_s);
    L["mesh.infer_s"] = infer / ops;
    L["runner.tasks"] = calls / ops;
    L["runner.task_busy_s"] = busy / calls;
    L["runner.start_wait_s"] = wait / calls;
    L["runner.utilization"] = busy / (wall * static_cast<double>(kJobs));
    L["obs.trace_overhead_ratio"] = traced_s / untraced_s;
    if (!o.trace_out.empty() && !spans.write_jsonl(o.trace_out))
      out.errors.push_back("cannot write " + o.trace_out);
  }
  return out;
}

}  // namespace perfbench
