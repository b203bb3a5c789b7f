#include "runner/cli.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

namespace abw::runner {

namespace {

std::size_t parse_positive(const std::string& s, const char* what) {
  const unsigned long long v =
      parse_uint(what, s, std::numeric_limits<std::size_t>::max());
  if (v == 0)
    throw std::invalid_argument(std::string(what) + ": want a positive integer, got: " + s);
  return static_cast<std::size_t>(v);
}

}  // namespace

std::size_t default_jobs() {
  if (const char* env = std::getenv("ABW_JOBS"); env && *env)
    return parse_positive(env, "ABW_JOBS");
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

std::size_t parse_jobs_flag(int argc, char** argv, std::size_t fallback) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--jobs" || arg == "-j") {
      if (i + 1 >= argc)
        throw std::invalid_argument("--jobs: missing value");
      return parse_positive(argv[i + 1], "--jobs");
    }
    if (arg.rfind("--jobs=", 0) == 0)
      return parse_positive(arg.substr(7), "--jobs");
  }
  return fallback;
}

std::string parse_string_flag(int argc, char** argv, const std::string& name,
                              const std::string& fallback) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == flag) {
      if (i + 1 >= argc)
        throw std::invalid_argument(flag + ": missing value");
      return argv[i + 1];
    }
    if (arg.rfind(flag + "=", 0) == 0) {
      std::string value = arg.substr(flag.size() + 1);
      if (value.empty())
        throw std::invalid_argument(flag + ": missing value");
      return value;
    }
  }
  return fallback;
}

unsigned long long parse_uint(const char* flag, const std::string& v,
                              unsigned long long max) {
  std::size_t used = 0;
  unsigned long long n = 0;
  try {
    if (!v.empty() && v[0] >= '0' && v[0] <= '9') n = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;  // out of range
  }
  if (used == 0 || used != v.size() || n > max)
    throw std::invalid_argument(std::string(flag) + ": expected an integer in [0, " +
                                std::to_string(max) + "], got '" + v + "'");
  return n;
}

double parse_real(const char* flag, const std::string& v, double lo, double hi) {
  std::size_t used = 0;
  double x = 0.0;
  try {
    x = std::stod(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size() || !std::isfinite(x) || x < lo || x > hi) {
    char range[64];
    std::snprintf(range, sizeof(range), "[%g, %g]", lo, hi);
    throw std::invalid_argument(std::string(flag) + ": expected a number in " +
                                range + ", got '" + v + "'");
  }
  return x;
}

double parse_seconds(const char* flag, const std::string& v) {
  return parse_real(flag, v, 0.0, 1e9);
}

std::size_t jobs_from_cli(int argc, char** argv) {
  try {
    return parse_jobs_flag(argc, argv, default_jobs());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "abw", e.what());
    std::exit(2);
  }
}

}  // namespace abw::runner
