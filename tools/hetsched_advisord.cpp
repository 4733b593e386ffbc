// hetsched_advisord — the resident advisor daemon (docs/SERVER.md).
//
//   hetsched_advisord [--socket=PATH] [--tcp=PORT]
//                     [--model=FILE | --plan=basic|nl|ns] [--mpi=121|122]
//                     [--threads=K] [--max-frame=BYTES]
//                     [--prewarm=N1,N2,...] [--dump-prefix=PATH]
//                     [--refit-interval=SECONDS]
//                     [--trace-out=FILE] [--metrics-out=FILE]
//
// Fits (or loads) a model once, then serves advise/estimate queries
// over the hsp/1 wire protocol until told to stop. At least one of
// --socket / --tcp is required (--tcp=0 picks an ephemeral port).
//
// Signals: SIGHUP re-reads --model (or refits the plan) and publishes
// the fresh snapshot atomically — readers are never blocked and
// in-flight requests finish on the old model; SIGUSR1 dumps the flight
// recorder and a metrics snapshot to timestamped
// <dump-prefix><epoch>.{flight,metrics}.json files (the no-network
// fallback to the `flight`/`metrics` wire ops — see docs/SERVER.md §7);
// SIGTERM/SIGINT drain open connections, flush the --metrics-out /
// --report-out / --trace-out artifacts, and exit 0. The `reload`
// protocol op does the same as SIGHUP, remotely.
#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/model_builder.hpp"
#include "core/model_io.hpp"
#include "measure/plan.hpp"
#include "measure/runner.hpp"
#include "obs/io.hpp"
#include "server/net.hpp"
#include "server/service.hpp"
#include "support/error.hpp"

using namespace hetsched;

namespace {

/// Upper bounds of the numeric flags (docs/SERVER.md §7).
constexpr std::size_t kMaxThreads = 256;
constexpr double kMaxRefitIntervalS = 7 * 86400.0;  // one week

int usage() {
  std::cerr << "usage: hetsched_advisord [--socket=PATH] [--tcp=PORT] "
               "[--model=FILE | --plan=basic|nl|ns] [--mpi=121|122] "
               "[--threads=K] [--max-frame=BYTES] "
               "[--prewarm=N1,N2,...] [--dump-prefix=PATH] "
               "[--refit-interval=SECONDS] "
            << obs::cli_help() << "\n";
  return 2;
}

struct Options {
  std::string socket_path;
  int tcp_port = -1;
  std::string model_path;
  std::string plan = "ns";
  std::string mpi = "122";
  std::size_t threads = 0;
  std::size_t max_frame = server::kDefaultMaxPayload;
  std::vector<int> prewarm;
  std::string dump_prefix = "hetsched_advisord.";
  double refit_interval_s = 0;  // 0 = no background refits
};

/// `text`, the whole of it, as a number in [lo, hi]: false for an empty
/// token, a sign an unsigned type cannot take, trailing bytes, NaN, an
/// overflow or a value out of range, so that "x" is refused rather than
/// read as 0 and "-1" rather than wrapped to SIZE_MAX.
template <typename T>
bool parse_number(std::string_view text, T lo, T hi, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !(lo <= v && v <= hi)) return false;
  out = v;
  return true;
}

/// SIGUSR1 handler body: write the flight recorder and a full metrics
/// snapshot to <prefix><unix-epoch-seconds>.{flight,metrics}.json.
void dump_introspection(const server::Service& service,
                        const std::string& prefix) {
  const std::string stamp = std::to_string(
      static_cast<long long>(std::time(nullptr)));
  const std::string flight_path = prefix + stamp + ".flight.json";
  const std::string metrics_path = prefix + stamp + ".metrics.json";
  {
    std::ofstream out(flight_path);
    out << service.flight_json(service.options().flight_capacity) << "\n";
  }
  {
    std::ofstream out(metrics_path);
    out << service.metrics_json() << "\n";
  }
  std::cerr << "hetsched_advisord: dumped " << flight_path << " and "
            << metrics_path << "\n";
}

std::shared_ptr<const server::ModelSnapshot> build_snapshot(
    const Options& opts) {
  const cluster::ClusterSpec spec = cluster::paper_cluster(
      opts.mpi == "121" ? cluster::mpich_121() : cluster::mpich_122());
  core::Estimator est = [&] {
    if (!opts.model_path.empty()) {
      std::ifstream in(opts.model_path);
      if (!in) throw Error("cannot open model file " + opts.model_path);
      return core::load_estimator(spec, in);
    }
    measure::MeasurementPlan plan = measure::ns_plan();
    if (opts.plan == "basic") plan = measure::basic_plan();
    if (opts.plan == "nl") plan = measure::nl_plan();
    measure::Runner runner(spec);
    return core::ModelBuilder(spec).build(runner.run_plan(plan));
  }();
  auto snap = std::make_shared<const server::ModelSnapshot>(
      std::move(est), core::ConfigSpace::paper_eval());
  for (const int n : opts.prewarm) snap->batch_for(n);
  return snap;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string_view value =
        std::string_view(arg).substr(arg.find('=') + 1);
    bool valid = true;
    if (obs::consume_arg(arg)) {
      continue;
    } else if (arg.rfind("--socket=", 0) == 0) {
      opts.socket_path = value;
    } else if (arg.rfind("--tcp=", 0) == 0) {
      valid = parse_number(value, 0, 65535, opts.tcp_port);
    } else if (arg.rfind("--model=", 0) == 0) {
      opts.model_path = value;
    } else if (arg.rfind("--plan=", 0) == 0) {
      opts.plan = value;
      valid = value == "basic" || value == "nl" || value == "ns";
    } else if (arg.rfind("--mpi=", 0) == 0) {
      opts.mpi = value;
      valid = value == "121" || value == "122";
    } else if (arg.rfind("--threads=", 0) == 0) {
      valid = parse_number<std::size_t>(value, 0, kMaxThreads, opts.threads);
    } else if (arg.rfind("--max-frame=", 0) == 0) {
      valid = parse_number<std::size_t>(value, 1, 0xffffffffu, opts.max_frame);
    } else if (arg.rfind("--prewarm=", 0) == 0) {
      // Comma-separated problem sizes, each within the protocol's n.
      for (std::size_t at = 0; valid && at <= value.size();) {
        const std::size_t comma = std::min(value.find(',', at), value.size());
        int n = 0;
        valid = parse_number(value.substr(at, comma - at), 1, 1 << 30, n);
        opts.prewarm.push_back(n);
        at = comma + 1;
      }
    } else if (arg.rfind("--dump-prefix=", 0) == 0) {
      opts.dump_prefix = value;
    } else if (arg.rfind("--refit-interval=", 0) == 0) {
      valid = parse_number(value, 0.0, kMaxRefitIntervalS,
                           opts.refit_interval_s);
    } else {
      valid = false;
    }
    if (!valid) return usage();
  }
  if (opts.socket_path.empty() && opts.tcp_port < 0) return usage();

  // Block the control signals before any thread exists, so every thread
  // inherits the mask and only the sigwait loop below receives them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGHUP);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  try {
    std::cerr << "hetsched_advisord: "
              << (opts.model_path.empty()
                      ? "fitting " + opts.plan + " plan models"
                      : "loading " + opts.model_path)
              << "...\n";
    server::ServiceOptions sopts;
    sopts.threads = opts.threads;
    sopts.refit_interval_us =
        static_cast<std::uint64_t>(opts.refit_interval_s * 1e6);
    server::Service service(build_snapshot(opts), sopts);
    service.set_reload_handler([opts] { return build_snapshot(opts); });

    server::ServerOptions net;
    net.unix_path = opts.socket_path;
    net.tcp_port = opts.tcp_port;
    net.max_payload = opts.max_frame;
    server::Server srv(service, net);
    srv.start();

    std::cout << "hetsched_advisord: ready";
    if (!opts.socket_path.empty())
      std::cout << " unix=" << opts.socket_path;
    if (srv.tcp_port() >= 0) std::cout << " tcp=127.0.0.1:" << srv.tcp_port();
    std::cout << " candidates=" << service.snapshot()->candidates() << "\n"
              << std::flush;

    for (;;) {
      int sig = 0;
      if (sigwait(&sigs, &sig) != 0) continue;
      if (sig == SIGHUP) {
        try {
          service.swap_snapshot(build_snapshot(opts));
          std::cerr << "hetsched_advisord: model reloaded\n";
        } catch (const std::exception& e) {
          std::cerr << "hetsched_advisord: reload failed (keeping current "
                       "model): "
                    << e.what() << "\n";
        }
        continue;
      }
      if (sig == SIGUSR1) {
        try {
          dump_introspection(service, opts.dump_prefix);
        } catch (const std::exception& e) {
          std::cerr << "hetsched_advisord: dump failed: " << e.what() << "\n";
        }
        continue;
      }
      std::cerr << "hetsched_advisord: draining...\n";
      break;
    }
    srv.stop();
    // Flush the --trace-out/--metrics-out/--report-out artifacts as
    // part of the drain, not from atexit: a supervisor watching the
    // files sees them complete the moment the process exits, and an
    // exit path that skips atexit handlers can no longer lose them.
    const int written = obs::flush_outputs();
    if (written > 0)
      std::cerr << "hetsched_advisord: flushed " << written
                << " obs artifact(s)\n";
  } catch (const std::exception& e) {
    std::cerr << "hetsched_advisord: fatal: " << e.what() << "\n";
    return 1;
  }
  obs::flush_outputs();  // no-op when the drain path already ran
  return 0;
}
