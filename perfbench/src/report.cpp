// Metric definitions, the result line, and the small shared helpers.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the names and units of BENCHMARK.json (run.py checks).
const std::vector<MetricDef> kEndToEnd = {
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"core.scenario_build_s", "s/op"},
    {"sim.events", "count/op"},
    {"sim.ns_per_event", "ns"},
    {"sim.peak_queue", "count"},
    {"probe.streams", "count/op"},
    {"probe.pkts", "count/op"},
    {"probe.send_busy_s", "s/op"},
    {"probe.send_p50_us", "us"},
    {"probe.send_p95_us", "us"},
    {"probe.wait_busy_s", "s/op"},
    {"probe.loss_ratio", "ratio"},
    {"probe.bypass_ops", "ratio"},
    {"est.busy_s", "s/op"},
    {"est.self_s", "s/op"},
    {"est.self_share", "ratio"},
    {"est.valid_ratio", "ratio"},
    {"est.aborts.probe-budget", "ratio"},
    {"est.aborts.deadline", "ratio"},
    {"est.aborts.insufficient-data", "ratio"},
    {"mesh.measure_calls", "count/op"},
    {"mesh.measure_busy_s", "s/op"},
    {"mesh.measure_p50_ms", "ms"},
    {"mesh.select_s", "s"},
    {"mesh.infer_s", "s/op"},
    {"mesh.probe_fraction", "ratio"},
    {"runner.tasks", "count/op"},
    {"runner.task_busy_s", "s/task"},
    {"runner.start_wait_s", "s/task"},
    {"runner.utilization", "ratio"},
    {"net.hello_ms", "ms"},
    {"net.turnaround_p50_ms", "ms"},
    {"net.turnaround_p95_ms", "ms"},
    {"net.wait_s", "s/op"},
    {"net.daemon.datagrams_in", "count/op"},
    {"net.daemon.probes_in", "count/op"},
    {"net.daemon.sessions_admitted", "count/op"},
    {"net.daemon.sessions_rejected", "count/op"},
    {"net.daemon.sessions_expired", "count/op"},
    {"net.daemon.aborts_sent", "count/op"},
    {"net.daemon.reports_sent", "count/op"},
    {"net.daemon.malformed", "count/op"},
    {"net.delivery_ratio", "ratio"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"host.calibration_ms", "ms"},
    {"latency_p95_ms", "ms"},
    {"error_median", "ratio"},
    {"probe_pkts_per_op", "count/op"},
    {"measure_s_median", "s"},
    {"fail_ratio", "ratio"},
};

// All digits a double carries, and never NaN/Inf (callers check).
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[i];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double calibration_ms() {
  // Dependent pseudo-random walk over a 256 KiB table: integer and cache
  // work only, no program code, a fixed amount, little memory (the run's
  // peak RSS is a metric).
  std::vector<std::uint32_t> table(1u << 16);
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<std::uint32_t>(i * 2654435761u);
  std::vector<double> ms;
  std::uint32_t x = 1;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = wall_ns();
    for (int i = 0; i < (1 << 22); ++i) {
      x = table[(x ^ static_cast<std::uint32_t>(i)) & (table.size() - 1)] + x * 3u;
      table[x & (table.size() - 1)] ^= x;
    }
    ms.push_back(ns_to_s(wall_ns() - t0) * 1e3);
  }
  if (x == 0) std::printf(" ");  // keeps the walk observable
  return median(ms);
}

void expect_equal(Outcome& out, const std::string& what, double a, double b) {
  if (std::memcmp(&a, &b, sizeof a) != 0)
    out.errors.push_back(what + ": " + number(a) + " != " + number(b));
}

void expect_equal(Outcome& out, const std::string& what, std::uint64_t a,
                  std::uint64_t b) {
  if (a != b)
    out.errors.push_back(what + ": " + std::to_string(a) +
                         " != " + std::to_string(b));
}

int finish(const Options& o, Outcome& out) {
  // Per-layer metrics of layers this workload never entered read 0.
  const std::map<std::string, double> measured = out.layer;
  for (const MetricDef& d : kPerLayer) out.layer.try_emplace(d.name, 0.0);
  for (const auto& [name, v] : out.layer)
    if (std::none_of(kPerLayer.begin(), kPerLayer.end(),
                     [&](const MetricDef& d) { return name == d.name; }))
      out.errors.push_back("undeclared per-layer metric " + name);
  for (const MetricDef& d : kEndToEnd)
    if (!out.e2e.count(d.name))
      out.errors.push_back(std::string("missing end-to-end metric ") + d.name);
  for (const auto* set : {&out.e2e, &out.layer})
    for (const auto& [name, v] : *set)
      if (!std::isfinite(v)) out.errors.push_back("non-finite metric " + name);

  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  std::printf("%-32s %22s  %s\n", "end-to-end metric", "value", "unit");
  for (const MetricDef& d : kEndToEnd)
    if (out.e2e.count(d.name))
      std::printf("%-32s %22.6f  %s\n", d.name, out.e2e[d.name], d.unit);
  std::printf("%-32s %22s  %s\n", "per-layer metric", "value", "unit");
  for (const MetricDef& d : kPerLayer)
    if (o.trace || measured.count(d.name))
      std::printf("%-32s %22.6f  %s\n", d.name, out.layer[d.name], d.unit);
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  std::fflush(stdout);

  if (!out.errors.empty()) {
    for (const std::string& e : out.errors)
      std::fprintf(stderr, "perfbench: output check failed: %s\n", e.c_str());
    return 1;
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }

  const auto& defs = o.trace ? kPerLayer : kEndToEnd;
  auto& values = o.trace ? out.layer : out.e2e;
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
            number(values[defs[i].name]) + ", \"unit\": \"" + defs[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace perfbench
