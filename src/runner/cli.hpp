// Shared CLI helpers for the benches and examples: one home for the
// `--jobs N` / `--jobs=N` / `-j N` flag, the ABW_JOBS environment
// variable, and strict number parsing, so every binary parses them
// identically and a malformed value is an error message, not an abort.
#pragma once

#include <cstddef>
#include <string>

namespace abw::runner {

/// Number of parallel jobs to use by default: the ABW_JOBS environment
/// variable when set to a positive integer, else hardware_concurrency()
/// (at least 1).
std::size_t default_jobs();

/// Parses a trailing `--jobs N` / `--jobs=N` / `-j N` flag from argv.
/// Returns `fallback` when absent; throws std::invalid_argument on a
/// malformed value.
std::size_t parse_jobs_flag(int argc, char** argv, std::size_t fallback);

/// CLI front end for the benches/examples: parse_jobs_flag over
/// default_jobs(), but a malformed --jobs or ABW_JOBS prints the error to
/// stderr and exits 2 instead of propagating (no aborting on a typo).
std::size_t jobs_from_cli(int argc, char** argv);

/// Parses a `--name VALUE` / `--name=VALUE` string flag from argv (pass
/// `name` without the leading dashes).  Returns `fallback` when absent;
/// throws std::invalid_argument when the value is missing.  Used by the
/// observability flags (`--trace=FILE`, `--metrics=FILE`).
std::string parse_string_flag(int argc, char** argv, const std::string& name,
                              const std::string& fallback);

/// The whole of `v` as an integer in [0, max]; throws
/// std::invalid_argument naming `flag` otherwise (std::stoul alone
/// accepts "12abc", wraps "-1", and throws messages naming no flag).
unsigned long long parse_uint(const char* flag, const std::string& v,
                              unsigned long long max);

/// The whole of `v` as a finite number in [lo, hi]; throws
/// std::invalid_argument naming `flag` otherwise.
double parse_real(const char* flag, const std::string& v, double lo, double hi);

/// parse_real over [0, 1e9]: a duration in seconds.
double parse_seconds(const char* flag, const std::string& v);

}  // namespace abw::runner
