// Introspection under fire: request threads, snapshot swaps and
// scrapers all hammer one Service concurrently. The assertions are
// deliberately coarse (valid JSON, monotone counters) — the real
// payload of this test is the interleaving itself, which TSan checks
// for data races on the flight ring's seqlock slots, the per-op
// fine histograms and the observation ledger. Run it under
// -fsanitize=thread to audit the lock-free introspection paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "server/service.hpp"
#include "server_test_util.hpp"

namespace hetsched::server {
namespace {

namespace json = hetsched::obs::json;

TEST(ObsStress, ScrapersRaceRequestsAndSnapshotSwaps) {
  ServiceOptions options;
  options.flight_capacity = 64;  // small ring → constant wrap-around
  options.refit.drift_min_count = 4;
  Service service(testutil::reference_snapshot(), options);
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  // Request threads: a mix of cache hits/misses, errors and observes,
  // each thread observing its own ledger class.
  static const char* const kConfigs[] = {
      "[[\"alpha\",2,1]]", "[[\"beta\",1,1]]", "[[\"alpha\",1,2]]",
      "[[\"alpha\",2,1],[\"beta\",2,2]]"};
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&service, &stop, t] {
      const std::string est =
          "{\"hsp\":1,\"id\":1,\"op\":\"estimate\",\"n\":" +
          std::to_string(1000 + 100 * t) +
          ",\"config\":[[\"alpha\",2,1]]}";
      const std::string observe =
          "{\"hsp\":1,\"id\":2,\"op\":\"observe\",\"n\":1600,"
          "\"config\":" +
          std::string(kConfigs[t]) + ",\"measured\":100.0}";
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        service.handle_payload(est);
        service.handle_payload(observe);
        if (i % 7 == 0)
          service.handle_payload("{\"hsp\":1,\"id\":3,\"op\":\"nope\"}");
      }
    });
  // Snapshot swapper: the introspection ops must tolerate the model
  // changing identity underneath them.
  workers.emplace_back([&service, &stop] {
    bool alt = true;
    while (!stop.load(std::memory_order_relaxed)) {
      service.swap_snapshot(alt ? testutil::alternate_snapshot()
                                : testutil::reference_snapshot());
      alt = !alt;
    }
  });
  // Connection churn feeding the health gauge.
  workers.emplace_back([&service, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      service.connection_opened();
      service.connection_closed();
    }
  });
  // Scrapers: both the wire ops and the daemon's dump entry points.
  std::atomic<std::uint64_t> scrapes{0};
  for (int t = 0; t < 2; ++t)
    workers.emplace_back([&service, &stop, &scrapes, t] {
      std::uint64_t last_total = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const json::Value health = json::parse(service.health_json());
        const std::string status = health.find("status")->as_string();
        EXPECT_TRUE(status == "ok" || status == "degraded") << status;

        const json::Value flight = json::parse(service.flight_json(64));
        const double total = flight.find("total")->as_number();
        EXPECT_GE(total, static_cast<double>(last_total));
        last_total = static_cast<std::uint64_t>(total);
        // Whole records only: every element has the full member set.
        for (const auto& r : flight.find("records")->as_array()) {
          EXPECT_NE(r.find("seq"), nullptr);
          EXPECT_NE(r.find("op"), nullptr);
          EXPECT_NE(r.find("fingerprint"), nullptr);
        }

        if (t == 0) {
          const json::Value metrics = json::parse(service.metrics_json());
          EXPECT_EQ(metrics.find("schema")->as_string(),
                    "hetsched.metrics.v1");
        } else {
          json::parse(service.handle_payload(
              "{\"hsp\":1,\"id\":4,\"op\":\"metrics\","
              "\"scope\":\"service\"}"));
        }
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Run until every scraper produced a healthy number of snapshots (or
  // a generous time cap, so a wedged build still terminates).
  for (int spin = 0;
       scrapes.load(std::memory_order_relaxed) < 200 && spin < 4000; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  stop.store(true);
  for (auto& w : workers) w.join();

  EXPECT_GE(scrapes.load(), 2u);
  const Service::Counters c = service.counters();
  EXPECT_GT(c.requests, 0u);
  EXPECT_GT(c.errors, 0u);  // the "nope" requests
  // The final quiescent documents are still well-formed. The ledger
  // scores only what the published model priced, so anywhere between
  // none and all four stress classes are listed, depending on timing.
  const json::Value flight = json::parse(service.flight_json(64));
  EXPECT_EQ(flight.find("schema")->as_string(), "hetsched.flight.v1");
  EXPECT_LE(json::parse(service.health_json())
                .find("calib")
                ->find("classes")
                ->as_object()
                .size(),
            4u);
}

}  // namespace
}  // namespace hetsched::server
