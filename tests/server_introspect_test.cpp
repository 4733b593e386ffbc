// Live introspection of server::Service: the `metrics`, `health`,
// `flight` and `observe` wire ops plus the C++ entry points the daemon
// uses for SIGUSR1 dumps (flight_json/metrics_json/health_json).
//
// The calibration-ledger tests are the acceptance criterion for the
// `observe` op: a doctored stream of predicted-vs-measured pairs with
// large errors must flip `health` to "degraded", and an accurate stream
// must not.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "obs/fine_hist.hpp"
#include "obs/hooks.hpp"
#include "obs/json.hpp"
#include "server/service.hpp"
#include "server_test_util.hpp"

namespace hetsched::server {
namespace {

namespace json = hetsched::obs::json;

json::Value ok_result(const std::string& response) {
  const json::Value doc = json::parse(response);
  EXPECT_TRUE(doc.find("ok") && doc.find("ok")->as_bool()) << response;
  const json::Value* result = doc.find("result");
  EXPECT_NE(result, nullptr) << response;
  return *result;  // cheap: arrays/objects are shared_ptr-backed
}

/// The error code of a failed response; "" (after a failed assertion
/// that prints the response) when it carries none.
std::string error_code(const std::string& response) {
  const json::Value doc = json::parse(response);
  EXPECT_TRUE(doc.find("ok") && !doc.find("ok")->as_bool()) << response;
  const json::Value* error = doc.find("error");
  const json::Value* code = error != nullptr ? error->find("code") : nullptr;
  return code != nullptr ? code->as_string() : std::string();
}

std::string observe_req(double measured,
                        const std::string& config = "[[\"alpha\",2,1]]") {
  return "{\"hsp\":1,\"id\":1,\"op\":\"observe\",\"n\":1600,"
         "\"config\":" +
         config + ",\"measured\":" + json_number(measured) +
         "}";  // exact, so rel_err checks can be EQ
}

TEST(Introspect, MetricsScopeSelectsTheDocument) {
  Service service(testutil::reference_snapshot());
  // Default is process scope: stats + per-op histograms + registry.
  const json::Value process =
      ok_result(service.handle_payload("{\"hsp\":1,\"id\":1,\"op\":\"metrics\"}"));
  EXPECT_EQ(process.find("schema")->as_string(), "hetsched.metrics.v1");
  EXPECT_EQ(process.find("scope")->as_string(), "process");
  EXPECT_NE(process.find("stats"), nullptr);
  EXPECT_NE(process.find("ops"), nullptr);
  EXPECT_NE(process.find("process"), nullptr);

  // Service scope drops the registry — this is the scope the golden
  // transcripts pin, because it is identical in both HETSCHED_OBS legs.
  const json::Value svc = ok_result(service.handle_payload(
      "{\"hsp\":1,\"id\":2,\"op\":\"metrics\",\"scope\":\"service\"}"));
  EXPECT_EQ(svc.find("scope")->as_string(), "service");
  EXPECT_EQ(svc.find("process"), nullptr);

  EXPECT_EQ(error_code(service.handle_payload(
                "{\"hsp\":1,\"id\":3,\"op\":\"metrics\",\"scope\":\"pod\"}")),
            "bad-request");
}

#if HETSCHED_OBS_ACTIVE
TEST(Introspect, ProcessMetricsCarryTheBatchSizeHistogram) {
  // perfbench's server.net.frames_per_batch divides these two members of
  // a process-scope `metrics` answer and reads a missing path as 0, so a
  // renamed section or member would zero it silently; the path is pinned
  // here.
  Service service(testutil::reference_snapshot());
  const std::string ping = "{\"hsp\":1,\"id\":1,\"op\":\"ping\"}";
  service.handle_batch({ping});  // registers server.batch_size
  const auto batch_size = [&service](const char* member) {
    const json::Value result = ok_result(
        service.handle_payload("{\"hsp\":1,\"id\":2,\"op\":\"metrics\"}"));
    const json::Value* v = &result;
    for (const char* key :
         {"process", "histograms", "server.batch_size", member}) {
      v = v->find(key);
      if (v == nullptr) {
        ADD_FAILURE() << "metrics answer has no " << key;
        return 0.0;
      }
    }
    return v->as_number();
  };
  const double count0 = batch_size("count"), sum0 = batch_size("sum");
  for (const std::size_t size : {1, 3, 16})
    service.handle_batch(std::vector<std::string>(size, ping));
  EXPECT_DOUBLE_EQ(batch_size("count") - count0, 3.0);
  EXPECT_DOUBLE_EQ(batch_size("sum") - sum0, 20.0);
}
#endif  // HETSCHED_OBS_ACTIVE

TEST(Introspect, PerOpHistogramsCountAnsweredRequestsOnly) {
  testutil::reset_fake_clock();
  ServiceOptions options;
  options.now_us = &testutil::fake_now_us;
  Service service(testutil::reference_snapshot(), options);
  service.handle_payload("{\"hsp\":1,\"id\":1,\"op\":\"ping\"}");
  service.handle_payload("{\"hsp\":1,\"id\":2,\"op\":\"ping\"}");
  service.handle_payload(
      "{\"hsp\":1,\"id\":3,\"op\":\"estimate\",\"n\":1600,"
      "\"config\":[[\"alpha\",2,1]]}");
  service.handle_payload("not json at all");

  const json::Value result = ok_result(service.handle_payload(
      "{\"hsp\":1,\"id\":4,\"op\":\"metrics\",\"scope\":\"service\"}"));
  const json::Value* ops = result.find("ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_DOUBLE_EQ(ops->find("ping")->find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(ops->find("estimate")->find("count")->as_number(), 1.0);
  // The unparseable request lands in the "?" bucket.
  EXPECT_DOUBLE_EQ(ops->find("?")->find("count")->as_number(), 1.0);
  // A request records AFTER its response is built, so the first metrics
  // call cannot see itself — and never sees ops with zero traffic.
  EXPECT_EQ(ops->find("metrics"), nullptr);
  EXPECT_EQ(ops->find("advise"), nullptr);
  // Under the fake clock every request reads the clock twice → 1 ms, so
  // ping's p99 must sit inside the 1 ms sub-bucket.
  const std::size_t ms_bin = obs::FineHistogram::bin_index(0.001);
  const double p99 = ops->find("ping")->find("p99_s")->as_number();
  EXPECT_GE(p99, obs::FineHistogram::bin_lower(ms_bin));
  EXPECT_LT(p99, obs::FineHistogram::bin_upper(ms_bin));
}

TEST(Introspect, HealthTracksConnectionsAndDraining) {
  Service service(testutil::reference_snapshot());
  json::Value h =
      ok_result(service.handle_payload("{\"hsp\":1,\"id\":1,\"op\":\"health\"}"));
  EXPECT_EQ(h.find("status")->as_string(), "ok");
  EXPECT_DOUBLE_EQ(h.find("open_connections")->as_number(), 0.0);
  EXPECT_FALSE(h.find("draining")->as_bool());
  EXPECT_NE(h.find("model_fingerprint"), nullptr);
  EXPECT_DOUBLE_EQ(h.find("cache")->find("hit_rate")->as_number(), 0.0);
  // A request records AFTER its answer is built, so the first health
  // sees an empty flight recorder...
  EXPECT_DOUBLE_EQ(h.find("flight")->find("recorded")->as_number(), 0.0);

  service.connection_opened();
  service.connection_opened();
  service.connection_closed();
  service.set_draining(true);
  h = ok_result(service.handle_payload("{\"hsp\":1,\"id\":2,\"op\":\"health\"}"));
  EXPECT_EQ(h.find("status")->as_string(), "draining");
  EXPECT_TRUE(h.find("draining")->as_bool());
  EXPECT_DOUBLE_EQ(h.find("open_connections")->as_number(), 1.0);
  // ...and the second one sees exactly the first.
  EXPECT_DOUBLE_EQ(h.find("flight")->find("recorded")->as_number(), 1.0);

  service.set_draining(false);
  h = ok_result(service.handle_payload("{\"hsp\":1,\"id\":3,\"op\":\"health\"}"));
  EXPECT_EQ(h.find("status")->as_string(), "ok");
}

TEST(Introspect, ObserveComputesRelativeErrorAgainstTheModel) {
  Service service(testutil::reference_snapshot());
  cluster::Config config;
  config.usage.push_back(cluster::KindUsage{"alpha", 2, 1});
  const double predicted =
      testutil::make_estimator(1.0).estimate(config, 1600);

  const double measured = predicted / 1.25;  // model over-predicts by 25%
  const json::Value r =
      ok_result(service.handle_payload(observe_req(measured)));
  // `family` is the breakdown provenance of the observed config.
  EXPECT_EQ(r.find("family")->as_string(), "measured");
  EXPECT_DOUBLE_EQ(r.find("predicted")->as_number(), predicted);
  EXPECT_DOUBLE_EQ(r.find("measured")->as_number(), measured);
  EXPECT_DOUBLE_EQ(r.find("rel_err")->as_number(),
                   (predicted - measured) / measured);
  EXPECT_EQ(r.find("class")->as_string(), "pt:alpha/1");
  EXPECT_DOUBLE_EQ(r.find("count")->as_number(), 1.0);
  EXPECT_FALSE(r.find("degraded")->as_bool());  // below min_count

  // A `family` member is ignored like any unknown member: the sample
  // lands in its configuration's class.
  const json::Value pilot = ok_result(service.handle_payload(
      "{\"hsp\":1,\"id\":2,\"op\":\"observe\",\"n\":1600,"
      "\"config\":[[\"alpha\",2,1]],\"measured\":" +
      json_number(measured) + ",\"family\":\"pilot\"}"));
  EXPECT_EQ(pilot.find("family")->as_string(), "measured");
  EXPECT_EQ(pilot.find("class")->as_string(), "pt:alpha/1");
  EXPECT_DOUBLE_EQ(pilot.find("count")->as_number(), 2.0);
}

TEST(Introspect, ObserveRejectsMalformedRequests) {
  Service service(testutil::reference_snapshot());
  EXPECT_EQ(error_code(service.handle_payload(
                "{\"hsp\":1,\"id\":1,\"op\":\"observe\","
                "\"config\":[[\"alpha\",2,1]],\"measured\":1.5}")),
            "bad-request");  // missing n
  EXPECT_EQ(error_code(service.handle_payload(
                "{\"hsp\":1,\"id\":2,\"op\":\"observe\",\"n\":1600,"
                "\"measured\":1.5}")),
            "bad-request");  // missing config
  EXPECT_EQ(error_code(service.handle_payload(
                "{\"hsp\":1,\"id\":3,\"op\":\"observe\",\"n\":1600,"
                "\"config\":[[\"alpha\",2,1]]}")),
            "bad-request");  // missing measured
  EXPECT_EQ(error_code(service.handle_payload(observe_req(0.0))),
            "bad-request");  // measured must be > 0
  EXPECT_EQ(error_code(service.handle_payload(observe_req(-2.0))),
            "bad-request");
  EXPECT_EQ(error_code(service.handle_payload(
                "{\"hsp\":1,\"id\":4,\"op\":\"observe\",\"n\":1600,"
                "\"config\":[[\"gamma\",1,1]],\"measured\":1.5}")),
            "uncovered");  // unknown PE kind
  EXPECT_EQ(error_code(service.handle_payload(
                "{\"hsp\":1,\"id\":5,\"op\":\"observe\",\"n\":1600,"
                "\"config\":[[\"alpha\",2,1]],\"measured\":\"fast\"}")),
            "bad-request");
}

TEST(Introspect, ObserveBoundsTheClassSet) {
  // The buffer keeps at most 64 class windows; give the model 70 N-T
  // classes, alpha[1xm] for m = 1..70.
  core::Estimator est = testutil::make_estimator(1.0);
  for (int m = 3; m <= 70; ++m)
    est.add_nt(core::NtKey{"alpha", 1, m},
               core::NtModel({0, 0, 0, 300.0}, {0, 0, 0.5}));
  Service service(std::make_shared<const ModelSnapshot>(
      std::move(est), testutil::reference_space()));
  const auto observe_m = [&service](int m) {
    return ok_result(service.handle_payload(
        observe_req(100.0, "[[\"alpha\",1," + std::to_string(m) + "]]")));
  };
  for (int m = 1; m <= 64; ++m) {
    const json::Value r = observe_m(m);
    EXPECT_EQ(r.find("class")->as_string(),
              "nt:alpha/1/" + std::to_string(m));
    EXPECT_DOUBLE_EQ(r.find("count")->as_number(), 1.0);
    EXPECT_FALSE(r.find("dropped")->as_bool());
  }
  // The 65th class is answered (the sample's own error is still
  // useful) but not buffered: count stays 0 and the drop is flagged.
  const json::Value dropped = observe_m(65);
  EXPECT_EQ(dropped.find("class")->as_string(), "nt:alpha/1/65");
  EXPECT_TRUE(dropped.find("dropped")->as_bool());
  EXPECT_DOUBLE_EQ(dropped.find("count")->as_number(), 0.0);
  EXPECT_FALSE(dropped.find("degraded")->as_bool());
  const double own = std::fabs(dropped.find("rel_err")->as_number());
  EXPECT_EQ(dropped.find("mean_abs_rel_err")->as_number(), own);
  EXPECT_EQ(dropped.find("max_abs_rel_err")->as_number(), own);
  // Not buffered means not counted: repeating the class does not
  // accumulate.
  EXPECT_DOUBLE_EQ(observe_m(65).find("count")->as_number(), 0.0);
  EXPECT_EQ(service.observation_count(), 64u);
  // Existing classes keep accepting observations past the cap.
  const json::Value again = observe_m(3);
  EXPECT_DOUBLE_EQ(again.find("count")->as_number(), 2.0);
  EXPECT_FALSE(again.find("dropped")->as_bool());
}

// Acceptance criterion: a doctored observe stream whose measurements
// disagree with the model past the threshold flips health to
// "degraded"; a recovering stream of accurate observations flips it
// back once the running mean drops below the threshold.
TEST(Introspect, DoctoredObserveStreamFlipsHealthToDegraded) {
  ServiceOptions options;
  options.refit.drift_threshold = 0.25;
  options.refit.drift_min_count = 3;
  Service service(testutil::reference_snapshot(), options);
  cluster::Config config;
  config.usage.push_back(cluster::KindUsage{"alpha", 2, 1});
  const double predicted =
      testutil::make_estimator(1.0).estimate(config, 1600);

  // Two wildly wrong observations: |rel_err| = 1.0, but below
  // min_count, so health must still say ok.
  for (int i = 0; i < 2; ++i)
    ok_result(service.handle_payload(observe_req(predicted / 2.0)));
  json::Value h =
      ok_result(service.handle_payload("{\"hsp\":1,\"id\":1,\"op\":\"health\"}"));
  EXPECT_EQ(h.find("status")->as_string(), "ok");

  // The third one crosses min_count with mean |rel_err| 1.0 > 0.25.
  const json::Value third =
      ok_result(service.handle_payload(observe_req(predicted / 2.0)));
  EXPECT_TRUE(third.find("degraded")->as_bool());
  h = ok_result(service.handle_payload("{\"hsp\":1,\"id\":2,\"op\":\"health\"}"));
  EXPECT_EQ(h.find("status")->as_string(), "degraded");
  const json::Value* cls =
      h.find("calib")->find("classes")->find("pt:alpha/1");
  ASSERT_NE(cls, nullptr);
  EXPECT_DOUBLE_EQ(cls->find("count")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(cls->find("mean_abs_rel_err")->as_number(), 1.0);
  EXPECT_TRUE(cls->find("degraded")->as_bool());

  // Draining outranks degraded in the status precedence.
  service.set_draining(true);
  h = ok_result(service.handle_payload("{\"hsp\":1,\"id\":3,\"op\":\"health\"}"));
  EXPECT_EQ(h.find("status")->as_string(), "draining");
  service.set_draining(false);

  // Dilute with exact observations until the running mean sinks below
  // the threshold: 3 * 1.0 / (3 + k) <= 0.25 at k = 9.
  for (int i = 0; i < 9; ++i)
    ok_result(service.handle_payload(observe_req(predicted)));
  h = ok_result(service.handle_payload("{\"hsp\":1,\"id\":4,\"op\":\"health\"}"));
  EXPECT_EQ(h.find("status")->as_string(), "ok");
}

TEST(Introspect, AccurateObserveStreamStaysHealthy) {
  ServiceOptions options;
  options.refit.drift_threshold = 0.25;
  options.refit.drift_min_count = 3;
  Service service(testutil::reference_snapshot(), options);
  cluster::Config config;
  config.usage.push_back(cluster::KindUsage{"alpha", 2, 1});
  const double predicted =
      testutil::make_estimator(1.0).estimate(config, 1600);
  for (int i = 0; i < 8; ++i)
    ok_result(service.handle_payload(observe_req(predicted * 1.1)));
  const json::Value h =
      ok_result(service.handle_payload("{\"hsp\":1,\"id\":1,\"op\":\"health\"}"));
  EXPECT_EQ(h.find("status")->as_string(), "ok");
}

TEST(Introspect, FlightOpReplaysRecentRequestsWithOutcomes) {
  testutil::reset_fake_clock();
  ServiceOptions options;
  options.now_us = &testutil::fake_now_us;
  options.flight_capacity = 8;
  Service service(testutil::reference_snapshot(), options);
  const std::string est =
      "{\"hsp\":1,\"id\":1,\"op\":\"estimate\",\"n\":1600,"
      "\"config\":[[\"alpha\",2,1]]}";
  service.handle_payload(est);  // miss
  service.handle_payload(est);  // hit
  service.handle_payload("{\"hsp\":1,\"id\":2,\"op\":\"nope\"}");  // error

  const json::Value flight = ok_result(
      service.handle_payload("{\"hsp\":1,\"id\":3,\"op\":\"flight\"}"));
  EXPECT_EQ(flight.find("schema")->as_string(), "hetsched.flight.v1");
  EXPECT_DOUBLE_EQ(flight.find("capacity")->as_number(), 8.0);
  EXPECT_DOUBLE_EQ(flight.find("total")->as_number(), 3.0);
  const auto& recs = flight.find("records")->as_array();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].find("op")->as_string(), "estimate");
  EXPECT_EQ(recs[0].find("cache")->as_string(), "miss");
  EXPECT_EQ(recs[0].find("error")->as_string(), "");
  EXPECT_DOUBLE_EQ(recs[0].find("n")->as_number(), 1600.0);
  EXPECT_EQ(recs[1].find("cache")->as_string(), "hit");
  EXPECT_EQ(recs[2].find("op")->as_string(), "?");
  EXPECT_EQ(recs[2].find("error")->as_string(), "unknown-op");

  // `count` trims to the newest records; an invalid count is rejected.
  const json::Value one = ok_result(service.handle_payload(
      "{\"hsp\":1,\"id\":4,\"op\":\"flight\",\"count\":1}"));
  ASSERT_EQ(one.find("records")->as_array().size(), 1u);
  EXPECT_EQ(one.find("records")->as_array()[0].find("op")->as_string(),
            "flight");
  EXPECT_EQ(error_code(service.handle_payload(
                "{\"hsp\":1,\"id\":5,\"op\":\"flight\",\"count\":-1}")),
            "bad-request");
}

TEST(Introspect, DaemonEntryPointsMirrorTheWireOps) {
  Service service(testutil::reference_snapshot());
  service.handle_payload("{\"hsp\":1,\"id\":1,\"op\":\"ping\"}");
  // The SIGUSR1 dump path and the wire ops serve the same documents.
  const json::Value flight = json::parse(service.flight_json(128));
  EXPECT_EQ(flight.find("schema")->as_string(), "hetsched.flight.v1");
  EXPECT_DOUBLE_EQ(flight.find("total")->as_number(), 1.0);
  const json::Value metrics = json::parse(service.metrics_json());
  EXPECT_EQ(metrics.find("scope")->as_string(), "process");
  EXPECT_NE(metrics.find("process"), nullptr);
  const json::Value health = json::parse(service.health_json());
  EXPECT_EQ(health.find("status")->as_string(), "ok");
}

TEST(Introspect, HealthAnswersWellUnderTheScrapeBudget) {
  // The scrape SLO in cmake/run_server_check.cmake is a 10 ms health
  // p99 over the wire; the in-process handler must sit far below that
  // so the budget is spent on transport, not on rendering the answer.
  Service service(testutil::reference_snapshot());
  // Give health something to report: traffic, cache hits and every
  // class window of the reference space full (the eight single-kind
  // classes and mix, 64 observations each), so it walks the whole
  // ledger.
  for (int i = 0; i < 50; ++i)
    service.handle_payload(
        "{\"hsp\":1,\"id\":1,\"op\":\"estimate\",\"n\":" +
        std::to_string(1000 + 100 * (i % 5)) +
        ",\"config\":[[\"alpha\",2,1]]}");
  for (const char* config :
       {"[[\"alpha\",1,1]]", "[[\"alpha\",1,2]]", "[[\"alpha\",2,1]]",
        "[[\"alpha\",2,2]]", "[[\"beta\",1,1]]", "[[\"beta\",1,2]]",
        "[[\"beta\",2,1]]", "[[\"beta\",2,2]]",
        "[[\"alpha\",2,1],[\"beta\",1,2]]"})
    for (int i = 0; i < 64; ++i)
      ok_result(service.handle_payload(observe_req(100.0 + i, config)));
  ASSERT_EQ(service.observation_count(), 9u * 64u);
  ASSERT_EQ(json::parse(service.health_json())
                .find("calib")
                ->find("classes")
                ->as_object()
                .size(),
            9u);
  obs::FineHistogram lat;
  const std::string req = "{\"hsp\":1,\"id\":1,\"op\":\"health\"}";
  for (int i = 0; i < 500; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    service.handle_payload(req);
    lat.record(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count());
  }
  EXPECT_LT(lat.quantile(0.99), 0.010) << "health p99 over 10 ms";
}

}  // namespace
}  // namespace hetsched::server
