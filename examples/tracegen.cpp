// tracegen — synthesize, persist, and analyze packet traces.
//
//   tracegen synth out.csv [seconds] [hurst] [utilization]
//       Generate a self-similar OC-3 trace (the NLANR substitute) and
//       save it as CSV.
//   tracegen analyze in.csv
//       Load a trace and print the avail-bw analysis the paper's
//       definitions section calls for: mean, Var[A_tau] across scales,
//       Hurst estimate, variation ranges, autocorrelation.
//
// The CSV format is the library's portable trace interchange
// (trace/trace_io.hpp); analyze accepts traces recorded off simulated
// links just as well as synthesized ones.
//
// With no command it runs synth + analyze on a temporary file.  --help
// prints the usage; a malformed argument prints the message and the usage
// and exits 2; a trace file that cannot be written or read exits 1.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/report.hpp"
#include "runner/cli.hpp"
#include "stats/acf.hpp"
#include "stats/hurst.hpp"
#include "stats/moments.hpp"
#include "trace/availbw_process.hpp"
#include "trace/synthetic_trace.hpp"
#include "trace/trace_io.hpp"

using namespace abw;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: tracegen synth out.csv [seconds] [hurst] [utilization]\n"
               "       tracegen analyze in.csv\n"
               "       tracegen              (synth + analyze round trip)\n");
}

// parse_real over the open interval (0, 1).
double open_unit(const char* name, const std::string& v) {
  const double x = runner::parse_real(name, v, 0.0, 1.0);
  if (x == 0.0 || x == 1.0)
    throw std::invalid_argument(std::string(name) +
                                ": expected a number in (0, 1), got '" + v + "'");
  return x;
}

// The synth arguments after the output path; throws std::invalid_argument.
trace::SyntheticTraceConfig synth_config(int argc, char** argv) {
  if (argc < 3) throw std::invalid_argument("synth: missing output file");
  if (argc > 6) throw std::invalid_argument("synth: too many arguments");
  trace::SyntheticTraceConfig cfg;
  // Capped at 10 minutes: an OC-3 trace grows by ~15k packets per second.
  if (argc > 3)
    cfg.duration = sim::from_seconds(runner::parse_real("seconds", argv[3], 0.01, 600.0));
  if (argc > 4) cfg.hurst = open_unit("hurst", argv[4]);
  if (argc > 5) cfg.mean_utilization = open_unit("utilization", argv[5]);
  return cfg;
}

int synth(const char* path, const trace::SyntheticTraceConfig& cfg) {
  stats::Rng rng(2026);
  trace::PacketTrace tr = trace::synthesize_selfsimilar_trace(cfg, rng);
  trace::save_trace_csv(tr, path);
  std::printf("wrote %zu packets (%.1f s at %s, util %s, H=%.2f) to %s\n",
              tr.size(), sim::to_seconds(tr.end_time() - tr.start_time()),
              core::mbps(tr.capacity_bps()).c_str(),
              core::pct(tr.mean_utilization()).c_str(), cfg.hurst, path);
  return 0;
}

int analyze(const char* path) {
  trace::PacketTrace tr = trace::load_trace_csv(path);
  std::printf("trace: %zu packets over %.1f s on a %s link, mean util %s\n\n",
              tr.size(), sim::to_seconds(tr.end_time() - tr.start_time()),
              core::mbps(tr.capacity_bps()).c_str(),
              core::pct(tr.mean_utilization()).c_str());

  trace::AvailBwProcess proc(tr);
  std::printf("mean avail-bw: %s\n\n", core::mbps(proc.mean_avail_bw()).c_str());

  core::Table table({"tau", "stddev A_tau", "5th-95th pct range"});
  for (double tau_ms : {1.0, 10.0, 100.0}) {
    sim::SimTime tau = sim::from_millis(tau_ms);
    auto [lo, hi] = proc.variation_range(tau, 0.05);
    char t[16];
    std::snprintf(t, sizeof t, "%.0f ms", tau_ms);
    // Appended, not `"[" + s`: GCC 12 reports a false -Wrestrict there.
    table.row({t, core::mbps(proc.stddev_at(tau), 2),
               std::string("[").append(core::mbps(lo)).append(", ")
                   .append(core::mbps(hi)).append("]")});
  }
  table.print(std::cout);

  auto series = proc.series(sim::kMillisecond);
  if (series.size() >= 64) {
    std::printf("\nHurst (variance-time): %.2f\n",
                stats::hurst_variance_time(series));
    std::printf("autocorrelation at lags 1/4/16: %.2f / %.2f / %.2f\n",
                stats::autocorrelation(series, 1),
                stats::autocorrelation(series, 4),
                stats::autocorrelation(series, 16));
    std::printf("Ljung-Box serial correlation (20 lags): %s\n",
                stats::is_autocorrelated(series, 20) ? "significant"
                                                     : "not significant");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--help" || std::string(argv[i]) == "-h") {
      usage(stdout);
      return 0;
    }
  const std::string cmd = argc > 1 ? argv[1] : "";
  trace::SyntheticTraceConfig cfg;
  try {
    if (cmd == "synth") {
      cfg = synth_config(argc, argv);
    } else if (cmd == "analyze") {
      if (argc != 3) throw std::invalid_argument("analyze: expected one input file");
    } else if (!cmd.empty()) {
      throw std::invalid_argument("unknown command '" + cmd + "'");
    }
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "tracegen: %s\n", ex.what());
    usage(stderr);
    return 2;
  }

  try {
    if (cmd == "synth") return synth(argv[2], cfg);
    if (cmd == "analyze") return analyze(argv[2]);
    // No command: demonstrate the full round trip through a temp file.
    std::printf("(no command given; demonstrating synth + analyze round trip)\n\n");
    const char* path = "/tmp/abw_tracegen_demo.csv";
    cfg.duration = 10 * sim::kSecond;
    synth(path, cfg);
    std::printf("\n");
    return analyze(path);
  } catch (const std::runtime_error& ex) {  // unwritable or malformed file
    std::fprintf(stderr, "tracegen: %s\n", ex.what());
    return 1;
  }
}
