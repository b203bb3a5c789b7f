// abw_perfbench: runs one benchmark workload and prints its metrics.
//
//   abw_perfbench --workload campaign|mesh|live --seed N --seconds S
//                 --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with no instrumentation in
// the way; --trace 1 runs the same workload with spans and counters
// around every layer call and reports the per-layer metrics.  The last
// line of standard output is the result object; any output-check
// mismatch exits 1 without it.  perfbench/run.py builds and runs this.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;

int usage(const char* why) {
  std::fprintf(stderr,
               "abw_perfbench: %s\nusage: abw_perfbench --workload "
               "campaign|mesh|live --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

std::size_t host_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// The host and build every result is tied to: results from different
// fingerprints are not comparable (perfbench/compare.py refuses them).
void print_fingerprint(std::size_t cpus) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf(
      "fingerprint {\"cpu\": \"%s\", \"nproc\": %zu, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"optimized\": %s, "
      "\"ndebug\": %s}\n",
      json_escape(cpu_model()).c_str(), cpus, json_escape(compiler).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      optimized ? "true" : "false", ndebug ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        o.workload = v;
      } else if (arg == "--seed") {
        o.seed = std::stoull(v, &used);
        have_seed = used == v.size();
        if (!have_seed) return usage("bad --seed");
      } else if (arg == "--seconds") {
        o.seconds = std::stod(v, &used);
        if (used != v.size() || !(o.seconds > 0.0) || o.seconds > 60.0)
          return usage("--seconds must be in (0, 60]");
      } else if (arg == "--trace") {
        if (v != "0" && v != "1") return usage("--trace must be 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (arg == "--trace-out") {
        o.trace_out = v;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_trace)
    return usage("--workload, --seed and --trace are required");

  o.cpus = host_cpus();
  print_fingerprint(o.cpus);
  std::fflush(stdout);

  const double calib_before = perfbench::calibration_ms();
  perfbench::Outcome out;
  try {
    if (o.workload == "campaign")
      out = perfbench::run_campaign(o);
    else if (o.workload == "mesh")
      out = perfbench::run_mesh(o);
    else if (o.workload == "live")
      out = perfbench::run_live(o);
    else
      return usage(("unknown workload " + o.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abw_perfbench: %s: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  // Before and after the run: a drift within the run shows as a gap.
  const double calib_after = perfbench::calibration_ms();
  std::printf("calibration_ms before %.4f after %.4f\n", calib_before,
              calib_after);
  out.layer["host.calibration_ms"] = (calib_before + calib_after) / 2.0;
  return perfbench::finish(o, out);
}
