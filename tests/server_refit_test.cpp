// End-to-end online refinement (docs/SERVER.md §4.10): a family whose
// live measurements shifted away from the fitted model must close the
// loop — observations buffered through `observe`, a refit pass fitting
// and publishing a better model (or downgrading an unfittable class to
// `drifted` and naming the cells a re-measure campaign must cover),
// and the published model measurably shrinking the error on the very
// stream that exposed it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/refit.hpp"
#include "measure/plan.hpp"
#include "obs/json.hpp"
#include "server/service.hpp"
#include "server_test_util.hpp"

namespace hetsched::server {
namespace {

namespace json = hetsched::obs::json;

std::string observe_req(int n, double measured) {
  return "{\"hsp\":1,\"id\":1,\"op\":\"observe\",\"n\":" +
         std::to_string(n) +
         ",\"config\":[[\"beta\",1,1]],\"measured\":" +
         std::to_string(measured) + ",\"family\":\"fleet\"}";
}

const char* kEstimateReq =
    "{\"hsp\":1,\"id\":2,\"op\":\"estimate\",\"n\":2000,"
    "\"config\":[[\"beta\",1,1]]}";

const json::Value* result_of(const json::Value& doc) {
  EXPECT_TRUE(doc.find("ok") && doc.find("ok")->as_bool());
  return doc.find("result");
}

// The acceptance-criterion path: a shifted family is observed at
// enough distinct sizes for a refit, the `refit` op hot-swaps the
// fitted candidate, the estimate's provenance says so, and the mean
// |relative error| of the observation stream drops.
TEST(OnlineRefit, ShiftedFamilyIsRefittedHotSwappedAndErrorDrops) {
  Service service(testutil::reference_snapshot());
  // Reference model prices beta[1x1] at a flat 594.7 s; the cluster
  // now takes 750 s — a ~20.7% miss, below the drift threshold but
  // well worth a refit.
  const double kMeasured = 750.0;
  double pre_abs_rel = 0.0;
  for (int n = 400; n <= 3200; n += 400) {
    const json::Value doc =
        json::parse(service.handle_payload(observe_req(n, kMeasured)));
    pre_abs_rel = result_of(doc)->find("mean_abs_rel_err")->as_number();
  }
  EXPECT_NEAR(pre_abs_rel, (kMeasured - 594.7) / kMeasured, 1e-9);

  const std::string before_fp =
      json::parse(service.handle_payload(
                      "{\"hsp\":1,\"id\":3,\"op\":\"hello\"}"))
          .find("result")
          ->find("model_fingerprint")
          ->as_string();

  const json::Value refit = json::parse(
      service.handle_payload("{\"hsp\":1,\"id\":4,\"op\":\"refit\"}"));
  const json::Value* rr = result_of(refit);
  EXPECT_GE(rr->find("accepted")->as_number(), 1.0);
  EXPECT_TRUE(rr->find("swapped")->as_bool());
  EXPECT_NE(rr->find("model_fingerprint")->as_string(), before_fp);

  // The published model serves the refined coefficients.
  const json::Value est =
      json::parse(service.handle_payload(kEstimateReq));
  EXPECT_EQ(result_of(est)->find("provenance")->as_string(), "refined");
  EXPECT_NEAR(result_of(est)->find("t")->as_number(), kMeasured,
              1e-6 * kMeasured);

  // Replaying the same stream against the refined model: the mean
  // |relative error| collapses (the swap reset the family, so the
  // post-refit statistics are the new model's own).
  double post_abs_rel = 1.0;
  for (int n = 400; n <= 3200; n += 400) {
    const json::Value doc =
        json::parse(service.handle_payload(observe_req(n, kMeasured)));
    post_abs_rel = result_of(doc)->find("mean_abs_rel_err")->as_number();
  }
  EXPECT_LT(post_abs_rel, pre_abs_rel / 100);
}

// A class that drifted but cannot be refitted (every observation at
// one problem size — no basis for a fit) is downgraded to `drifted`
// provenance, and the refit report names exactly the (kind, n) cells
// a re-measure campaign must cover.
TEST(OnlineRefit, UnfittableDriftDowngradesProvenanceAndPlansRemeasure) {
  Service service(testutil::reference_snapshot());
  for (int i = 0; i < 8; ++i)
    (void)service.handle_payload(observe_req(2000, 1189.4));  // 2x miss

  const json::Value refit = json::parse(
      service.handle_payload("{\"hsp\":1,\"id\":4,\"op\":\"refit\"}"));
  const json::Value* rr = result_of(refit);
  EXPECT_EQ(rr->find("accepted")->as_number(), 0.0);
  EXPECT_TRUE(rr->find("swapped")->as_bool());  // provenance-only swap
  const auto& drifted = rr->find("drifted")->as_array();
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_EQ(drifted[0].find("class")->as_string(), "nt:beta/1/1");

  const json::Value est =
      json::parse(service.handle_payload(kEstimateReq));
  EXPECT_EQ(result_of(est)->find("provenance")->as_string(), "drifted");

  // Rebuild the drift report from the wire document — what an operator
  // sidecar would do — and turn it into a targeted measurement plan.
  core::DriftClass dc;
  dc.key = drifted[0].find("class")->as_string();
  dc.is_nt = true;
  dc.kind = "beta";
  dc.m = 1;
  for (const auto& v : drifted[0].find("ns")->as_array())
    dc.ns.push_back(static_cast<int>(v.as_number()));
  for (const auto& v : drifted[0].find("pe_counts")->as_array())
    dc.pe_counts.push_back(static_cast<int>(v.as_number()));
  core::DriftReport report;
  report.classes.push_back(dc);
  const auto plans = measure::remeasure_plan(report, /*repeats=*/2);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].name, "remeasure:nt:beta/1/1");
  EXPECT_EQ(plans[0].ns, std::vector<int>{2000});
  ASSERT_EQ(plans[0].sweeps.size(), 1u);
  EXPECT_EQ(plans[0].sweeps[0].kind, "beta");
  EXPECT_EQ(plans[0].sweeps[0].pe_counts, std::vector<int>{1});
  EXPECT_EQ(plans[0].sweeps[0].procs_per_pe, std::vector<int>{1});

  // A second pass must not republish: the class is already tagged
  // drifted, nothing new was accepted, the snapshot stays put.
  const json::Value again = json::parse(
      service.handle_payload("{\"hsp\":1,\"id\":5,\"op\":\"refit\"}"));
  EXPECT_FALSE(result_of(again)->find("swapped")->as_bool());
  EXPECT_EQ(result_of(again)->find("model_fingerprint")->as_string(),
            rr->find("model_fingerprint")->as_string());
}

// A refit can publish an N-T model whose computation part is negative
// at a size it then observes (a fitted cubic crossing zero below its
// data). The measured total is split by the clamped predicted parts,
// so the observation is buffered — ObservationBuffer admits only
// non-negative parts — instead of failing the request as `internal`.
TEST(OnlineRefit, NegativePredictedPartStillBuffersTheObservation) {
  core::Estimator est = testutil::make_estimator(1.0);
  // beta[1x1]: Tai = -50 s, Tci = 300 s, total 250 s at every N.
  est.add_nt(core::NtKey{"beta", 1, 1},
             core::NtModel({0, 0, 0, -50.0}, {0, 0, 300.0}));
  Service service(std::make_shared<const ModelSnapshot>(
      std::move(est), testutil::reference_space()));
  const core::Estimator::Breakdown bd =
      service.snapshot()->estimator().breakdown(
          cluster::Config{{cluster::KindUsage{"beta", 1, 1}}}, 2000);
  ASSERT_LT(bd.kinds.at(0).tai, 0.0);
  ASSERT_EQ(bd.total, 250.0);

  for (std::size_t i = 1; i <= 3; ++i) {
    const std::string resp = service.handle_payload(observe_req(2000, 260.0));
    const json::Value doc = json::parse(resp);
    ASSERT_TRUE(doc.find("ok")->as_bool()) << resp;
    EXPECT_EQ(service.observation_count(), i);
  }
}

// The background cadence: with refit_interval_us set, the service
// refits on its own while request threads keep hammering it. The test
// carries the `stress` label so the TSan leg audits the refit thread
// against the observe path and the snapshot slot.
TEST(OnlineRefit, BackgroundCadencePublishesWithoutAnExplicitOp) {
  ServiceOptions options;
  options.refit_interval_us = 2000;  // 2 ms cadence
  Service service(testutil::reference_snapshot(), options);
  const std::string before_fp =
      json::parse(service.handle_payload(kEstimateReq))
          .find("result")
          ->find("t")
          ->as_number() == 594.7
          ? "ref"
          : "other";
  EXPECT_EQ(before_fp, "ref");

  std::atomic<bool> stop{false};
  std::thread estimator_thread([&service, &stop] {
    while (!stop.load(std::memory_order_relaxed))
      (void)service.handle_payload(kEstimateReq);
  });

  for (int n = 400; n <= 3200; n += 400)
    (void)service.handle_payload(observe_req(n, 750.0));

  // Wait (bounded) for a background pass to publish the refined model.
  bool refined = false;
  for (int spin = 0; spin < 4000 && !refined; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const json::Value est =
        json::parse(service.handle_payload(kEstimateReq));
    refined =
        result_of(est)->find("provenance")->as_string() == "refined";
  }
  stop.store(true);
  estimator_thread.join();
  EXPECT_TRUE(refined) << "background refit never published";
  const json::Value est = json::parse(service.handle_payload(kEstimateReq));
  EXPECT_NEAR(result_of(est)->find("t")->as_number(), 750.0, 1e-3);
}

}  // namespace
}  // namespace hetsched::server
