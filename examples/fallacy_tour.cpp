// A guided tour of the ten fallacies and pitfalls: runs each of the
// paper's misconceptions as a miniature experiment and reports whether
// this library's simulated network exhibits the same effect.
//
// Usage:  fallacy_tour [id]      (no argument = run all ten)
//
// --help prints the usage; a malformed id prints the message and the
// usage and exits 2.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/fallacies.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace abw::core;
  constexpr std::uint64_t kSeed = 20041025;  // the paper's IMC date

  auto usage = [](std::FILE* out) {
    std::fprintf(out, "usage: fallacy_tour [id in 1..%d]\n", kFallacyCount);
  };
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--help" || std::string(argv[i]) == "-h") {
      usage(stdout);
      return 0;
    }
  int only = 0;
  try {
    if (argc > 2) throw std::invalid_argument("too many arguments");
    if (argc > 1) {
      only = static_cast<int>(abw::runner::parse_uint("id", argv[1], kFallacyCount));
      if (only == 0) throw std::invalid_argument("id: must be >= 1");
    }
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "fallacy_tour: %s\n", ex.what());
    usage(stderr);
    return 2;
  }

  std::printf("Ten Fallacies and Pitfalls on End-to-End Available Bandwidth\n"
              "Estimation (Jain & Dovrolis, IMC 2004) — live demonstrations\n");

  int failures = 0;
  for (int id = 1; id <= kFallacyCount; ++id) {
    if (only != 0 && id != only) continue;
    FallacyResult r = run_fallacy(id, kSeed);
    std::printf("\n%2d. [%s] %s\n", r.id, to_string(r.kind), r.title.c_str());
    std::printf("    %s\n", r.evidence.c_str());
    std::printf("    => %s\n", r.demonstrated ? "reproduced" : "NOT reproduced");
    if (!r.demonstrated) ++failures;
  }

  if (failures == 0) {
    std::printf("\nAll demonstrations reproduced the paper's claims.\n");
  } else {
    std::printf("\n%d demonstration(s) did not reproduce — inspect above.\n",
                failures);
  }
  return failures == 0 ? 0 : 1;
}
