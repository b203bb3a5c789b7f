// Shared pieces of the abw benchmark: options, the outcome a workload
// returns, clocks, quantiles and the result digest.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where a traced run writes its spans ("" = nowhere)
  std::size_t cpus = 1;   ///< the host's CPU count
};

/// Host clock in nanoseconds (steady).
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// What one workload run reports.  `e2e` must hold every end-to-end
/// metric; `layer` holds the per-layer metrics the workload exercised
/// (report.cpp fills the rest with 0: that layer did no work).
struct Outcome {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check failures.  Any entry makes the run exit nonzero.
  std::vector<std::string> errors;
  /// Free-form lines printed before the metric table (sample counts, ...).
  std::vector<std::string> notes;
};

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Median of `v` (nearest-rank); 0 for an empty sample.
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The process's peak resident set, in MB.
double peak_rss_mb();

/// Time of a fixed integer-and-memory kernel that runs no program code:
/// it tracks the host's speed, so a slower host can be told apart from
/// slower code.  Median of five repetitions.
double calibration_ms();

/// FNV-1a over 64-bit words: the digest every output check compares.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;

  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
};

/// Records a mismatch in `out` when `a != b` (exact comparison: used for
/// digests and for metrics that must repeat bit for bit).
void expect_equal(Outcome& out, const std::string& what, double a, double b);
void expect_equal(Outcome& out, const std::string& what, std::uint64_t a,
                  std::uint64_t b);

/// Checks the outcome, prints the metric table and, when every output
/// check passed, the result line.  Returns the process exit code.
int finish(const Options& o, Outcome& out);

Outcome run_campaign(const Options& o);
Outcome run_mesh(const Options& o);
Outcome run_live(const Options& o);

}  // namespace perfbench
