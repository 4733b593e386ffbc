// perfbench_host — serves the large-cold workload's four-kind cluster.
//
//   perfbench_host --socket=PATH
//
// hetsched_advisord only serves the paper cluster, so this host makes
// the daemon's own calls on the four-kind cluster: fit the plan, build
// the snapshot (build_snapshot), start a server::Server on a Unix socket,
// print a ready line, then serve until SIGTERM or SIGINT. The pool is
// kServerPoolThreads wide, as the daemon runs for the other workloads.
#include <csignal>
#include <iostream>
#include <string>

#include "common.hpp"
#include "server/net.hpp"
#include "server/service.hpp"

using namespace perfbench;

int main(int argc, char** argv) {
  std::string socket_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else {
      std::cerr << "usage: perfbench_host --socket=PATH\n";
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::cerr << "perfbench_host: --socket is required\n";
    return 2;
  }

  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  try {
    server::ServiceOptions sopts;
    sopts.threads = kServerPoolThreads;
    server::Service service(build_snapshot(served_model(Workload::kLargeCold)),
                            sopts);
    server::ServerOptions net;
    net.unix_path = socket_path;
    server::Server srv(service, net);
    srv.start();
    std::cout << "perfbench_host: ready unix=" << socket_path
              << " candidates=" << service.snapshot()->candidates() << "\n"
              << std::flush;
    int sig = 0;
    while (sigwait(&sigs, &sig) != 0) {
    }
    srv.stop();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_host: fatal: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
