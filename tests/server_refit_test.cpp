// End-to-end online refinement (docs/SERVER.md §4.10): a family whose
// live measurements shifted away from the fitted model must close the
// loop — observations buffered through `observe`, a refit pass fitting
// and publishing a better model (or downgrading an unfittable class to
// `drifted` and naming the cells a re-measure campaign must cover),
// and the published model measurably shrinking the error on the very
// stream that exposed it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/model_builder.hpp"
#include "core/refit.hpp"
#include "measure/plan.hpp"
#include "measure/runner.hpp"
#include "obs/json.hpp"
#include "server/service.hpp"
#include "server_test_util.hpp"
#include "support/rng.hpp"

namespace hetsched::server {
namespace {

namespace json = hetsched::obs::json;

std::string observe_req(int n, double measured) {
  return "{\"hsp\":1,\"id\":1,\"op\":\"observe\",\"n\":" +
         std::to_string(n) +
         ",\"config\":[[\"beta\",1,1]],\"measured\":" +
         std::to_string(measured) + "}";
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
  // |relative error| collapses (the ledger scores only what the new
  // model priced, so the post-refit statistics are its own).
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

// The ledger is keyed by the model that priced each observation, so a
// drift-only publish, which changes provenance but not the fingerprint,
// keeps the evidence: `health` must stay degraded while `estimate`
// answers `drifted`, or the two answers contradict each other.
TEST(OnlineRefit, DriftOnlyPublishKeepsHealthDegraded) {
  Service service(testutil::reference_snapshot());
  for (int i = 0; i < 8; ++i)
    (void)service.handle_payload(observe_req(2000, 1189.4));  // 2x miss
  const auto status = [&service] {
    return json::parse(service.health_json()).find("status")->as_string();
  };
  EXPECT_EQ(status(), "degraded");
  const std::uint64_t before = service.snapshot()->fingerprint();

  const json::Value refit = json::parse(
      service.handle_payload("{\"hsp\":1,\"id\":4,\"op\":\"refit\"}"));
  ASSERT_TRUE(result_of(refit)->find("swapped")->as_bool());
  ASSERT_EQ(service.snapshot()->fingerprint(), before);  // drift only
  EXPECT_EQ(result_of(json::parse(service.handle_payload(kEstimateReq)))
                ->find("provenance")
                ->as_string(),
            "drifted");
  EXPECT_EQ(status(), "degraded");
  const json::Value health = json::parse(service.health_json());
  const json::Value* cls =
      health.find("calib")->find("classes")->find("nt:beta/1/1");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->find("count")->as_number(), 8.0);
  EXPECT_TRUE(cls->find("degraded")->as_bool());
}

// A configuration of two kinds refines no single model: its observation
// is counted in the `mix` class window, which `health` lists and no
// refit reads, so the refit document is the same with or without it.
TEST(OnlineRefit, MixedObserveIsCountedInMixAndLeftOutOfRefits) {
  Service plain(testutil::reference_snapshot());
  Service mixed(testutil::reference_snapshot());
  for (int n = 400; n <= 3200; n += 400) {
    (void)plain.handle_payload(observe_req(n, 700.0));
    (void)mixed.handle_payload(observe_req(n, 700.0));
  }
  const json::Value mix = json::parse(mixed.handle_payload(
      "{\"hsp\":1,\"id\":1,\"op\":\"observe\",\"n\":2000,"
      "\"config\":[[\"alpha\",2,1],[\"beta\",1,2]],\"measured\":140.0}"));
  EXPECT_EQ(result_of(mix)->find("class")->as_string(), "mix");
  EXPECT_EQ(result_of(mix)->find("count")->as_number(), 1.0);
  EXPECT_FALSE(result_of(mix)->find("dropped")->as_bool());
  EXPECT_EQ(mixed.observation_count(), plain.observation_count() + 1);
  const json::Value health = json::parse(mixed.health_json());
  ASSERT_NE(health.find("calib")->find("classes")->find("mix"), nullptr);

  const std::string refit = "{\"hsp\":1,\"id\":2,\"op\":\"refit\"}";
  const std::string expected = plain.handle_payload(refit);
  EXPECT_EQ(mixed.handle_payload(refit), expected);
  EXPECT_NE(expected.find("\"accepted\":1"), std::string::npos) << expected;
}

// `health` and detect_drift read one statistic and one rule: over class
// windows priced only by the published model, health's per-class mean
// |relative error| and degraded set equal detect_drift's, to the bit.
TEST(OnlineRefit, HealthAndDetectDriftAgreeToTheBit) {
  Service service(testutil::reference_snapshot());
  Rng rng(20261020);
  const char* const configs[] = {"[[\"alpha\",1,1]]", "[[\"alpha\",2,2]]",
                                 "[[\"beta\",1,2]]", "[[\"beta\",2,1]]"};
  // Per class a different error scale: some past the 0.25 threshold,
  // some under it, one below drift_min_count.
  const double scales[] = {1.1, 1.6, 0.5, 1.3};
  const int counts[] = {12, 9, 20, 5};
  for (int c = 0; c < 4; ++c)
    for (int i = 0; i < counts[c]; ++i) {
      const int n = 500 * static_cast<int>(1 + rng.uniform_index(12));
      const std::string cfg = configs[c];
      const std::string est = service.handle_payload(
          "{\"hsp\":1,\"id\":1,\"op\":\"estimate\",\"n\":" +
          std::to_string(n) + ",\"config\":" + cfg + "}");
      const double t = result_of(json::parse(est))->find("t")->as_number() *
                       scales[c] * rng.uniform(0.9, 1.1);
      const std::string resp = service.handle_payload(
          "{\"hsp\":1,\"id\":2,\"op\":\"observe\",\"n\":" +
          std::to_string(n) + ",\"config\":" + cfg +
          ",\"measured\":" + json::json_number(t) + "}");
      ASSERT_TRUE(json::parse(resp).find("ok")->as_bool()) << resp;
    }
  const std::shared_ptr<const ModelSnapshot> snap = service.snapshot();
  const core::RefitEngine engine(service.options().refit);
  const core::DriftReport drift = engine.detect_drift(
      snap->estimator(), service.observations(), snap->fingerprint());
  const json::Value health = json::parse(service.health_json());
  const auto& classes = health.find("calib")->find("classes")->as_object();
  ASSERT_EQ(classes.size(), 4u);
  std::set<std::string> degraded;
  for (const auto& [key, cls] : classes)
    if (cls.find("degraded")->as_bool()) degraded.insert(key);
  std::set<std::string> drifted;
  for (const core::DriftClass& dc : drift.classes) {
    drifted.insert(dc.key);
    const json::Value* cls = health.find("calib")->find("classes")->find(dc.key);
    ASSERT_NE(cls, nullptr) << dc.key;
    EXPECT_EQ(cls->find("mean_abs_rel_err")->as_number(), dc.mean_abs_rel_err)
        << dc.key;
    EXPECT_EQ(cls->find("count")->as_number(), static_cast<double>(dc.count));
  }
  EXPECT_EQ(degraded, drifted);
  EXPECT_EQ(drifted.size(), 2u);  // the 1.6x and 0.5x classes
  EXPECT_EQ(health.find("status")->as_string(), "degraded");
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

// Drift detection reuses the price `observe` computed when the model that
// priced an observation is still the published one. A seeded mix of
// observes, refits (accepting, drift-only and idle), and reloads to a
// same-content and to a different-content model leaves the buffer with
// observations priced by the current model and by models many swaps
// back. Every refit document must be byte-identical to the one a
// pass that re-prices every observation produces: refit_pass over a copy
// of the buffer with a drift report computed without a fingerprint.
TEST(OnlineRefit, ReusedObservePricesGiveTheRepricedRefitDocument) {
  const core::ConfigSpace space = testutil::reference_space();
  Service service(testutil::reference_snapshot());
  std::shared_ptr<const ModelSnapshot> reload_to;
  service.set_reload_handler([&reload_to] { return reload_to; });
  const core::RefitEngine engine(service.options().refit);
  // The cluster runs 1.5x the reference model's times: the reference
  // and the 1.75x alternate models drift, refits recover.
  const core::Estimator truth = testutil::make_estimator(1.5);
  const std::vector<cluster::Config> configs = {
      cluster::Config{{cluster::KindUsage{"alpha", 1, 1}}},
      cluster::Config{{cluster::KindUsage{"alpha", 2, 2}}},
      cluster::Config{{cluster::KindUsage{"beta", 1, 1}}},
      cluster::Config{{cluster::KindUsage{"beta", 1, 2}}},
      cluster::Config{{cluster::KindUsage{"beta", 2, 1}}},
  };
  Rng rng(20261019);
  std::size_t refits = 0, drift_only = 0, reloads = 0, mixed = 0;
  std::size_t most_models = 0;
  for (int op = 0; op < 1200; ++op) {
    const double draw = rng.uniform();
    if (draw < 0.86) {
      // The first 200 ops observe alpha only, so no class can refit and
      // every swap a refit publishes there is a drift downgrade.
      const cluster::Config& c =
          configs[rng.uniform_index(op < 200 ? 2 : configs.size())];
      // alpha classes see two sizes only, so they drift without ever
      // refitting (drift-only swaps); beta classes see eight.
      const bool alpha = c.usage[0].kind == "alpha";
      const int n = alpha ? 2000 * static_cast<int>(1 + rng.uniform_index(2))
                          : 1000 * static_cast<int>(1 + rng.uniform_index(8));
      const double measured =
          truth.estimate(c, n) * rng.uniform(0.97, 1.03);
      const std::string cfg = "[[\"" + c.usage[0].kind + "\"," +
                              std::to_string(c.usage[0].pes) + "," +
                              std::to_string(c.usage[0].procs_per_pe) + "]]";
      const std::string resp = service.handle_payload(
          "{\"hsp\":1,\"id\":1,\"op\":\"observe\",\"n\":" + std::to_string(n) +
          ",\"config\":" + cfg +
          ",\"measured\":" + json::json_number(measured) + "}");
      ASSERT_TRUE(json::parse(resp).find("ok")->as_bool()) << resp;
    } else if (draw < 0.93) {
      const std::shared_ptr<const ModelSnapshot> snap = service.snapshot();
      const core::ObservationBuffer buf = service.observations();
      std::set<std::uint64_t> models;
      std::size_t current = 0;
      for (const std::string& key : buf.class_keys())
        for (const core::Observation& o : *buf.window(key)) {
          ASSERT_TRUE(o.priced_by.has_value());
          models.insert(*o.priced_by);
          if (*o.priced_by != snap->fingerprint()) continue;
          ++current;
          // Same fingerprint, same price, bit for bit.
          ASSERT_EQ(o.predicted_total,
                    snap->estimator().estimate(o.config, o.n));
        }
      most_models = std::max(most_models, models.size());
      if (current > 0 && current < buf.size()) ++mixed;
      const std::string expected =
          refit_pass(*snap, engine, buf,
                     engine.detect_drift(snap->estimator(), buf))
              .document;
      const std::string got = service.refit_now();
      ASSERT_EQ(got, expected) << "refit " << refits << " at op " << op;
      ++refits;
      // A swap that keeps the fingerprint published drift downgrades
      // only: the prices it inherits stay valid.
      if (json::parse(got).find("swapped")->as_bool() &&
          service.snapshot()->fingerprint() == snap->fingerprint())
        ++drift_only;
    } else {
      // Half the reloads keep the published content (a new snapshot of
      // the same estimator), half load a different model.
      reload_to = rng.uniform() < 0.5
                      ? std::make_shared<const ModelSnapshot>(
                            service.snapshot()->estimator(), space)
                      : std::make_shared<const ModelSnapshot>(
                            testutil::make_estimator(
                                rng.uniform() < 0.5 ? 1.0 : 1.75),
                            space);
      const std::string resp = service.handle_payload(
          "{\"hsp\":1,\"id\":2,\"op\":\"reload\"}");
      ASSERT_TRUE(json::parse(resp).find("ok")->as_bool()) << resp;
      ++reloads;
    }
  }
  // The sequence must exercise what the comparison is about.
  EXPECT_GE(refits, 40u);
  EXPECT_GE(drift_only, 3u);
  EXPECT_GE(reloads, 40u);
  EXPECT_GE(mixed, 10u);
  EXPECT_GE(most_models, 3u);
}

// A pinned refit trajectory on a campaign-fitted model, where the §9
// transcripts refit one toy N-T class. The NS model is fitted from a
// simulated campaign and serves a fixed writer: homogeneous paper-space
// runs at N = 2000-8000, timed by a runner with another noise salt,
// in 16 rounds that each end in `refit`. The digest of every refit
// document and the final model fingerprint were recorded before the
// refit's row fold replaced its sliding-window solver, and any change
// to the refit numerics moves them.
TEST(OnlineRefit, CampaignModelRefitTrajectoryIsPinned) {
  const cluster::ClusterSpec spec = cluster::paper_cluster();
  measure::Runner campaign(spec);
  const core::ConfigSpace space = core::ConfigSpace::paper_eval();
  Service service(std::make_shared<const ModelSnapshot>(
      core::ModelBuilder(spec).build(campaign.run_plan(measure::ns_plan())),
      space));

  std::vector<cluster::Config> writer_configs;
  for (const cluster::Config& c : space.all())
    if (c.usage.size() == 1) writer_configs.push_back(c);
  measure::Runner production(spec, 64, /*salt=*/2);
  Rng rng(20040426);
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over documents
  std::size_t nt_accepted = 0, pt_accepted = 0;
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 48; ++i) {
      const cluster::Config& c =
          writer_configs[rng.uniform_index(writer_configs.size())];
      const int n = 2000 + 500 * static_cast<int>(rng.uniform_index(13));
      const std::string resp = service.handle_payload(
          "{\"hsp\":1,\"id\":1,\"op\":\"observe\",\"n\":" +
          std::to_string(n) + ",\"config\":[[\"" + c.usage[0].kind + "\"," +
          std::to_string(c.usage[0].pes) + "," +
          std::to_string(c.usage[0].procs_per_pe) + "]],\"measured\":" +
          json::json_number(production.measure(c, n).wall) + "}");
      ASSERT_TRUE(json::parse(resp).find("ok")->as_bool()) << resp;
    }
    const std::string doc = service.refit_now();
    for (const char ch : doc + '\n') {
      digest ^= static_cast<unsigned char>(ch);
      digest *= 0x100000001b3ULL;
    }
    const json::Value parsed = json::parse(doc);
    for (const json::Value& cls : parsed.find("classes")->as_array()) {
      if (cls.find("action")->as_string() != "accepted") continue;
      ++(cls.find("class")->as_string().rfind("nt:", 0) == 0 ? nt_accepted
                                                            : pt_accepted);
    }
  }
  // The trajectory must refit both model families.
  EXPECT_GT(nt_accepted, 0u);
  EXPECT_GT(pt_accepted, 0u);
  EXPECT_EQ(json::hex_fingerprint(digest), "0x613987a10fda163a");
  EXPECT_EQ(json::hex_fingerprint(service.snapshot()->fingerprint()),
            "0xe71df52db213fd02");
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
