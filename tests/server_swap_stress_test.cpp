// Snapshot hot-swap under fire: reader threads hammer the service with
// a fixed request mix while the main thread flips the published model
// between two snapshots hundreds of times. Every single response must
// be byte-identical to what a quiet service would say on model A or on
// model B — nothing torn, nothing interleaved, no response mixing the
// two models. Runs under the `stress` label so the TSan CI leg
// exercises the atomic snapshot slot and the sharded cache together.
#include "server/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server_test_util.hpp"

namespace hetsched::server {
namespace {

std::vector<std::string> request_mix() {
  std::vector<std::string> reqs;
  for (const int n : {1000, 1500, 2200, 3100}) {
    reqs.push_back("{\"hsp\":1,\"id\":1,\"op\":\"advise\",\"n\":" +
                   std::to_string(n) + ",\"top\":3}");
    reqs.push_back("{\"hsp\":1,\"id\":2,\"op\":\"estimate\",\"n\":" +
                   std::to_string(n) +
                   ",\"config\":[[\"alpha\",2,1],[\"beta\",2,2]]}");
  }
  reqs.push_back("{\"hsp\":1,\"id\":3,\"op\":\"hello\"}");
  return reqs;
}

TEST(SwapStress, EveryResponseBelongsWhollyToOneModel) {
  const auto snap_a = testutil::reference_snapshot();
  const auto snap_b = testutil::alternate_snapshot();
  const std::vector<std::string> reqs = request_mix();

  // Quiet oracles: the full answer set of each model, computed on
  // dedicated services that never swap.
  std::vector<std::string> expect_a, expect_b;
  {
    Service quiet_a(snap_a), quiet_b(snap_b);
    for (const auto& r : reqs) {
      expect_a.push_back(quiet_a.handle_payload(r));
      expect_b.push_back(quiet_b.handle_payload(r));
      ASSERT_NE(expect_a.back(), expect_b.back())
          << "fixture models must disagree on every request: " << r;
    }
  }

  Service service(snap_a);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checked{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  constexpr int kReaders = 8;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t r = i++ % reqs.size();
        const std::string resp = service.handle_payload(reqs[r]);
        if (resp != expect_a[r] && resp != expect_b[r]) {
          failures.fetch_add(1);
          ADD_FAILURE() << "torn response for " << reqs[r] << ":\n"
                        << resp;
          stop.store(true);
          return;
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Pace the swaps on reader progress: each one waits until the readers
  // have checked a few more responses, so every swap lands among live
  // requests however the host schedules the threads. A stall fails the
  // test at the deadline instead of hanging it.
  constexpr std::uint64_t kChecksPerSwap = 3;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::uint64_t seen = 0;
  for (int swap = 0; swap < 400 && !stop.load(); ++swap) {
    while (checked.load(std::memory_order_relaxed) < seen + kChecksPerSwap &&
           !stop.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "readers stalled after " << swap << " swaps";
        stop.store(true);
        break;
      }
      std::this_thread::yield();
    }
    if (stop.load()) break;
    seen = checked.load(std::memory_order_relaxed);
    service.swap_snapshot(swap % 2 == 0 ? snap_b : snap_a);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  // The readers must have gotten real work done while swapping.
  EXPECT_GT(checked.load(), 1000u);
  EXPECT_EQ(service.counters().snapshot_swaps, 400u);
}

}  // namespace
}  // namespace hetsched::server
