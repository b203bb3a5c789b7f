// abwd — the live measurement daemon (net/daemon.hpp) as a standalone
// binary: the receiver half every live abwprobe run talks to.
//
//   abwd --port=9877
//   abwd --port=9877 --bind=0.0.0.0 --max-sessions=128 --trace=abwd.jsonl
//
// Runs until SIGINT/SIGTERM, then prints a final stats line.  One daemon
// serves many concurrent measurement sessions over its single socket;
// per-session probe budgets and deadlines are whatever each client
// advertised in its hello (enforced server-side).
//
// Flags (a malformed value prints the usage and exits 2):
//   --port=N           UDP port (default 9877; 0 = ephemeral, printed)
//   --bind=ADDR        bind address          (default 127.0.0.1)
//   --max-sessions=N   admission cap         (default 64)
//   --idle-timeout=S   session GC, seconds   (default 30)
//   --trace=FILE       JSONL session-event trace (obs/)
//   --help             print the usage and exit
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "net/daemon.hpp"
#include "obs/trace.hpp"
#include "runner/cli.hpp"

using namespace abw;
using runner::parse_seconds;
using runner::parse_uint;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: abwd [--port=N] [--bind=ADDR] [--max-sessions=N] "
               "[--idle-timeout=S] [--trace=FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  net::DaemonConfig cfg;
  cfg.port = 9877;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    auto eat = [&](const char* key, std::string& out) {
      std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        out = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    std::string v;
    try {
      if (eat("--port", v))
        cfg.port = static_cast<std::uint16_t>(parse_uint("--port", v, 65535));
      else if (eat("--bind", v)) cfg.bind_host = v;
      else if (eat("--max-sessions", v))
        cfg.max_sessions = static_cast<std::size_t>(parse_uint(
            "--max-sessions", v, std::numeric_limits<std::uint32_t>::max()));
      else if (eat("--idle-timeout", v))
        cfg.idle_timeout = sim::from_seconds(parse_seconds("--idle-timeout", v));
      else if (eat("--trace", v)) trace_path = v;
      else
        throw std::invalid_argument("unknown flag: " + arg);
    } catch (const std::invalid_argument& ex) {
      std::fprintf(stderr, "abwd: %s\n", ex.what());
      usage(stderr);
      return 2;
    }
  }

  try {
    net::Daemon daemon(cfg);
    std::unique_ptr<obs::JsonlTraceSink> trace;
    if (!trace_path.empty()) {
      trace = std::make_unique<obs::JsonlTraceSink>(trace_path);
      daemon.set_trace(trace.get());
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    daemon.start();
    std::printf("abwd listening on %s:%u (max %zu sessions)\n",
                cfg.bind_host.c_str(), daemon.port(), cfg.max_sessions);
    std::fflush(stdout);

    while (g_stop == 0 && daemon.running()) ::usleep(100000);

    daemon.stop();
    if (trace) daemon.set_trace(nullptr);
    net::DaemonStats s = daemon.stats();
    std::printf(
        "abwd stats: %llu datagrams, %llu probes, %llu sessions admitted "
        "(%llu rejected, %llu expired), %llu reports, %llu aborts\n",
        static_cast<unsigned long long>(s.datagrams_in),
        static_cast<unsigned long long>(s.probes_in),
        static_cast<unsigned long long>(s.sessions_admitted),
        static_cast<unsigned long long>(s.sessions_rejected),
        static_cast<unsigned long long>(s.sessions_expired),
        static_cast<unsigned long long>(s.reports_sent),
        static_cast<unsigned long long>(s.aborts_sent));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 2;
  }
  return 0;
}
