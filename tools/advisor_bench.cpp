// advisor_bench — the socket load of the server smoke check.
//
//   advisor_bench --connect=unix:PATH|HOST:PORT
//
// Sends kRounds batches of kBatch pipelined, cached `advise` requests
// to a running hetsched_advisord and exits 1 on the first answer that
// is not `ok` (or when the connection fails). server_smoke_check
// (cmake/run_server_check.cmake) runs it in the background while it
// scrapes the daemon and probes the health SLO. It measures nothing:
// the advisor's speed is measured by perfbench/run.py (docs/SERVER.md
// §8).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "server/client.hpp"

using namespace hetsched;

namespace {

constexpr std::size_t kBatch = 64;
// Long enough to outlast the scrape and the health probe, which start
// on the load line: on a 4-vCPU guest the load ran about 110 ms past
// it and the two about 30 ms. At 31 batches it ended before the scrape
// did, so the probe timed an idle daemon.
constexpr std::size_t kRounds = 312;

std::string advise_request(std::size_t id) {
  return "{\"hsp\":1,\"id\":" + std::to_string(id) +
         ",\"op\":\"advise\",\"n\":6400,\"top\":3}";
}

bool answered_ok(const std::string& response) {
  if (response.find("\"ok\":true") != std::string::npos) return true;
  std::fprintf(stderr, "advisor_bench: request failed: %s\n",
               response.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string flag = "--connect=";
  if (argc != 2 || std::string(argv[1]).rfind(flag, 0) != 0) {
    std::fprintf(stderr,
                 "usage: advisor_bench --connect=unix:PATH|HOST:PORT\n");
    return 2;
  }
  const std::string address = argv[1] + flag.size();
  try {
    server::Client client(address);
    // The first answer fills the cache entry every later request hits.
    if (!answered_ok(client.roundtrip(advise_request(0)))) return 1;
    std::printf("advisor_bench: load against %s (%zu batches of %zu)\n",
                address.c_str(), kRounds, kBatch);
    // Flushed: server_smoke_check starts its scrape on this line.
    std::fflush(stdout);
    std::vector<std::string> requests(kBatch);
    std::size_t sent = 1;
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (std::string& req : requests) req = advise_request(sent++);
      for (const std::string& resp : client.roundtrip_batch(requests))
        if (!answered_ok(resp)) return 1;
    }
    std::printf("advisor_bench: %zu answers, all ok\n", sent);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "advisor_bench: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
