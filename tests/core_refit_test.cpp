// Online refinement (core/refit.hpp): observation buffer semantics,
// N-T and P-T coefficient recovery through the incremental solver, the
// holdout acceptance guard, drift detection/downgrade, and persistence
// of the refined/drifted provenance tags.
#include "core/refit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "cluster/pe_kind.hpp"
#include "cluster/spec.hpp"
#include "core/model_io.hpp"
#include "support/error.hpp"

namespace hetsched::core {
namespace {

const std::string kAth = cluster::athlon_1330().name;
const std::string kP2 = cluster::pentium2_400().name;

cluster::Config single_pe_config(const std::string& kind, int m) {
  cluster::Config cfg;
  cfg.usage.push_back(cluster::KindUsage{kind, 1, m});
  return cfg;
}

cluster::Config group_config(const std::string& kind, int pes, int m) {
  cluster::Config cfg;
  cfg.usage.push_back(cluster::KindUsage{kind, pes, m});
  return cfg;
}

// A P-T model built from a synthetic exactly-consistent family with
// tai = A(N)/P, tci = c * Q * C(N) (same fixture as the estimator test).
PtModel simple_pt(double tai1000_at_p1, double tci1000_per_q) {
  std::vector<NtModel> models;
  std::vector<int> ps;
  for (const int p : {2, 4, 8}) {
    models.push_back(NtModel({0, 0, 0, tai1000_at_p1 / p},
                             {0, 0, tci1000_per_q * p}));
    ps.push_back(p);
  }
  const std::vector<double> ns{1000};
  return PtModel::fit(models, ps, ps, ns);
}

Estimator make_estimator() {
  EstimatorOptions opts;
  opts.check_memory = false;  // keep synthetic fixtures out of the paged bin
  Estimator est(cluster::paper_cluster(), opts);
  est.add_nt(NtKey{kAth, 1, 1},
             NtModel({2e-10, 1e-6, 2e-3, 0.8}, {1e-7, 2e-4, 0.2}));
  est.add_pt(kP2, 1, simple_pt(2000.0, 0.5));
  return est;
}

Observation make_obs(cluster::Config cfg, int n, double tai, double tci) {
  Observation o;
  o.config = std::move(cfg);
  o.n = n;
  o.measured_tai = tai;
  o.measured_tci = tci;
  return o;
}

TEST(ObservationBuffer, ClassKeysFollowTheModelBinning) {
  EXPECT_EQ(ObservationBuffer::class_key(single_pe_config(kAth, 1)),
            "nt:" + kAth + "/1/1");
  EXPECT_EQ(ObservationBuffer::class_key(single_pe_config(kAth, 3)),
            "nt:" + kAth + "/1/3");
  EXPECT_EQ(ObservationBuffer::class_key(group_config(kP2, 4, 2)),
            "pt:" + kP2 + "/2");
  EXPECT_EQ(ObservationBuffer::class_key(cluster::Config::paper(1, 1, 8, 1)),
            "mix");  // spans two model classes
}

TEST(ObservationBuffer, EvictsOldestPastCapacityAndCapsClasses) {
  ObservationBuffer buf(/*per_class_capacity=*/3, /*max_classes=*/2);
  for (int n = 1; n <= 5; ++n)
    EXPECT_TRUE(buf.add(make_obs(single_pe_config(kAth, 1), n, 1.0, 1.0)));
  const auto* window = buf.window("nt:" + kAth + "/1/1");
  ASSERT_NE(window, nullptr);
  ASSERT_EQ(window->size(), 3u);
  EXPECT_EQ(window->front().n, 3);  // 1 and 2 fell off
  EXPECT_EQ(window->back().n, 5);
  EXPECT_EQ(buf.size(), 3u);

  EXPECT_TRUE(buf.add(make_obs(group_config(kP2, 4, 1), 100, 1.0, 1.0)));
  EXPECT_EQ(buf.classes(), 2u);
  // Third distinct class: refused, existing windows untouched.
  EXPECT_FALSE(buf.add(make_obs(single_pe_config(kP2, 1), 100, 1.0, 1.0)));
  EXPECT_EQ(buf.classes(), 2u);
  EXPECT_EQ(buf.size(), 4u);
  // The mix window is a class like any other: refused at the cap.
  EXPECT_FALSE(buf.add(make_obs(cluster::Config::paper(1, 1, 8, 1), 100, 1., 1.)));

  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.classes(), 0u);
}

TEST(ObservationBuffer, RejectsMalformedObservations) {
  ObservationBuffer buf;
  EXPECT_THROW(buf.add(make_obs(single_pe_config(kAth, 1), 0, 1.0, 1.0)),
               Error);
  EXPECT_THROW(buf.add(make_obs(single_pe_config(kAth, 1), 10, -1.0, 1.0)),
               Error);
  EXPECT_THROW(buf.add(make_obs(single_pe_config(kAth, 1), 10, 0.0, 0.0)),
               Error);
  EXPECT_THROW(
      buf.add(make_obs(single_pe_config(kAth, 1), 10,
                       std::numeric_limits<double>::quiet_NaN(), 1.0)),
      Error);
}

TEST(ObservationBuffer, WindowStatsScoreOnlyTheGivenModelsPrices) {
  ObservationBuffer buf;
  const cluster::Config cfg = single_pe_config(kAth, 1);
  const auto priced = [&](double predicted, double measured,
                          std::optional<std::uint64_t> by) {
    Observation o = make_obs(cfg, 1000, measured, 0.0);
    o.predicted_total = predicted;
    o.priced_by = by;
    buf.add(std::move(o));
  };
  priced(12.0, 10.0, 7);  // rel +0.2
  priced(9.0, 10.0, 7);   // rel -0.1
  priced(50.0, 10.0, 8);  // another model's price
  priced(50.0, 10.0, std::nullopt);
  priced(16.0, 10.0, 7);  // rel +0.6
  const auto& window = *buf.window("nt:" + kAth + "/1/1");
  const WindowStats w = window_stats(window, 7);
  EXPECT_EQ(w.count, 3u);
  EXPECT_DOUBLE_EQ(w.mean_rel_err, (0.2 - 0.1 + 0.6) / 3);
  EXPECT_DOUBLE_EQ(w.mean_abs_rel_err, (0.2 + 0.1 + 0.6) / 3);
  EXPECT_DOUBLE_EQ(w.max_abs_rel_err, 0.6);
  EXPECT_EQ(window_stats(window, 8).count, 1u);
  const WindowStats none = window_stats(window, 9);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.mean_abs_rel_err, 0.0);

  // The one drift rule: at least drift_min_count samples, mean strictly
  // above drift_threshold.
  RefitOptions opts;
  opts.drift_min_count = 3;
  opts.drift_threshold = 0.25;
  EXPECT_TRUE(opts.degraded(w.count, w.mean_abs_rel_err));
  EXPECT_FALSE(opts.degraded(2, 1.0));
  EXPECT_FALSE(opts.degraded(3, 0.25));
}

TEST(RefitEngine, TheMixWindowIsBufferedButNeverRefitOrDrifted) {
  Estimator incumbent = make_estimator();
  incumbent.add_pt(kAth, 1, simple_pt(1000.0, 0.2));  // prices the mix
  ObservationBuffer plain;
  for (const int n : {400, 800, 1200, 1600})
    for (int rep = 0; rep < 2; ++rep) {
      const cluster::Config cfg = single_pe_config(kAth, 1);
      const double t = 1.6 * incumbent.estimate(cfg, n);
      plain.add(make_obs(cfg, n, 0.7 * t, 0.3 * t));
    }
  ObservationBuffer with_mix = plain;
  const cluster::Config mixed = cluster::Config::paper(1, 1, 8, 1);
  ASSERT_TRUE(incumbent.covers(mixed));  // so only the key keeps it out
  for (const int n : {1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000})
    EXPECT_TRUE(with_mix.add(make_obs(mixed, n, 1e4, 1e4)));
  ASSERT_NE(with_mix.window("mix"), nullptr);
  EXPECT_EQ(with_mix.window("mix")->size(), 8u);

  const RefitEngine engine;
  const RefitReport a = engine.refit(incumbent, plain);
  const RefitReport b = engine.refit(incumbent, with_mix);
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].key, b.classes[i].key);
    EXPECT_EQ(a.classes[i].action, b.classes[i].action);
  }
  const DriftReport da = engine.detect_drift(incumbent, plain);
  const DriftReport db = engine.detect_drift(incumbent, with_mix);
  ASSERT_EQ(db.classes.size(), 1u);
  EXPECT_EQ(da.classes.size(), db.classes.size());
  EXPECT_EQ(db.classes[0].key, "nt:" + kAth + "/1/1");
  EXPECT_EQ(da.classes[0].mean_abs_rel_err, db.classes[0].mean_abs_rel_err);
}

TEST(RefitEngine, RecoversShiftedNtCoefficients) {
  const Estimator incumbent = make_estimator();
  // Ground truth drifted away from the incumbent's curve.
  const NtModel truth({3e-10, 2e-6, 1e-3, 1.1}, {2e-7, 1e-4, 0.35});
  ObservationBuffer buf;
  for (const int n : {400, 800, 1200, 1600, 2000, 2400, 2800, 3200, 3600,
                      4000})
    buf.add(make_obs(single_pe_config(kAth, 1), n, truth.tai(n),
                     truth.tci(n)));

  const RefitEngine engine;
  const RefitReport report = engine.refit(incumbent, buf);
  ASSERT_EQ(report.classes.size(), 1u);
  const ClassRefit& cr = report.classes.front();
  EXPECT_EQ(cr.action, "accepted");
  EXPECT_EQ(cr.key, "nt:" + kAth + "/1/1");
  EXPECT_TRUE(cr.is_nt);
  EXPECT_EQ(cr.samples, 10u);
  EXPECT_GE(cr.distinct_n, 4u);
  EXPECT_LE(cr.candidate_err, cr.incumbent_err);
  EXPECT_EQ(report.accepted, 1u);

  ASSERT_TRUE(report.model.has_value());
  const NtKey key{kAth, 1, 1};
  EXPECT_EQ(report.model->nt_provenance(key), Provenance::kRefined);
  const NtModel* refined = report.model->nt(key);
  ASSERT_NE(refined, nullptr);
  for (const int n : {500, 1500, 3000, 5000})
    EXPECT_NEAR(refined->total(n), truth.total(n), 1e-6 * truth.total(n))
        << "n=" << n;
  // The incumbent object itself is untouched.
  EXPECT_EQ(incumbent.nt_provenance(key), Provenance::kMeasured);
}

TEST(RefitEngine, RecoversShiftedPtCoefficients) {
  const Estimator incumbent = make_estimator();
  // Truth shares the incumbent's base curves but k7..k11 moved.
  PtModel::State st = incumbent.pt(kP2, 1)->state();
  st.kt = {1.4 * st.kt[0], st.kt[1] + 2.0};
  st.kc = {0.6 * st.kc[0], st.kc[1] + 1.0, st.kc[2] + 0.5};
  const PtModel truth = PtModel::from_state(st);

  ObservationBuffer buf;
  for (const int n : {1000, 2000, 3000})
    for (const int pes : {2, 4, 8}) {
      const double p = pes;  // m = 1, comm_uses_processors => q = pes
      buf.add(make_obs(group_config(kP2, pes, 1), n, truth.tai(n, p),
                       truth.tci(n, p)));
    }

  const RefitEngine engine;
  const RefitReport report = engine.refit(incumbent, buf);
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_EQ(report.classes.front().action, "accepted");
  EXPECT_FALSE(report.classes.front().is_nt);

  ASSERT_TRUE(report.model.has_value());
  EXPECT_EQ(report.model->pt_provenance(kP2, 1), Provenance::kRefined);
  const PtModel* refined = report.model->pt(kP2, 1);
  ASSERT_NE(refined, nullptr);
  for (const int n : {1500, 2500})
    for (const int p : {3, 6}) {
      EXPECT_NEAR(refined->tai(n, p), truth.tai(n, p),
                  1e-6 * std::abs(truth.tai(n, p)));
      EXPECT_NEAR(refined->tci(n, p), truth.tci(n, p),
                  1e-6 * std::abs(truth.tci(n, p)));
    }
}

TEST(RefitEngine, HoldoutGuardRejectsCandidatesThatGeneralizeWorse) {
  const Estimator incumbent = make_estimator();
  const NtModel* inc = incumbent.nt(NtKey{kAth, 1, 1});
  ASSERT_NE(inc, nullptr);
  ObservationBuffer buf;
  // Fit slice: a transient doubling the incumbent's times. Holdout (the
  // two newest): back on the incumbent's curve. A candidate fitted to
  // the transient must lose on the holdout and be rejected.
  for (const int n : {400, 800, 1200, 1600, 2000, 2400, 2800, 3200})
    buf.add(make_obs(single_pe_config(kAth, 1), n, 2.0 * inc->tai(n),
                     2.0 * inc->tci(n)));
  for (const int n : {3600, 4000})
    buf.add(make_obs(single_pe_config(kAth, 1), n, inc->tai(n),
                     inc->tci(n)));

  const RefitReport report = RefitEngine().refit(incumbent, buf);
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_EQ(report.classes.front().action, "rejected");
  EXPECT_EQ(report.classes.front().reason, "holdout-worse");
  EXPECT_GT(report.classes.front().candidate_err,
            report.classes.front().incumbent_err);
  EXPECT_EQ(report.accepted, 0u);
  EXPECT_FALSE(report.model.has_value());
}

TEST(RefitEngine, SkipsThinWindows) {
  const Estimator incumbent = make_estimator();
  ObservationBuffer buf;
  for (const int n : {400, 800, 1200})  // below min_samples
    buf.add(make_obs(single_pe_config(kAth, 1), n, 1.0, 1.0));
  const RefitReport report = RefitEngine().refit(incumbent, buf);
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_EQ(report.classes.front().action, "skipped");
  EXPECT_EQ(report.classes.front().reason, "insufficient-samples");

  // Enough samples but all at two sizes: the quartic fit is hopeless.
  ObservationBuffer buf2;
  for (int i = 0; i < 10; ++i)
    buf2.add(make_obs(single_pe_config(kAth, 1), i % 2 == 0 ? 400 : 800,
                      1.0 + i, 1.0));
  const RefitReport report2 = RefitEngine().refit(incumbent, buf2);
  ASSERT_EQ(report2.classes.size(), 1u);
  EXPECT_EQ(report2.classes.front().action, "skipped");
  EXPECT_EQ(report2.classes.front().reason, "insufficient-distinct-n");
}

TEST(RefitEngine, PtWindowWithOnePeCountIsRankDeficient) {
  // Every fit row at one PE count makes the Tci columns q*C(N) and
  // C(N)/q proportional: the class is skipped as rank-deficient, with
  // no candidate scored, exactly as when both solves were run.
  const Estimator incumbent = make_estimator();
  const PtModel* inc = incumbent.pt(kP2, 1);
  ASSERT_NE(inc, nullptr);
  ObservationBuffer buf;
  for (const int n : {1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000,
                      5500})
    buf.add(make_obs(group_config(kP2, 4, 1), n, 1.2 * inc->tai(n, 4.0),
                     0.9 * inc->tci(n, 4.0)));

  const RefitReport report = RefitEngine().refit(incumbent, buf);
  ASSERT_EQ(report.classes.size(), 1u);
  const ClassRefit& cr = report.classes.front();
  EXPECT_EQ(cr.key, "pt:" + kP2 + "/1");
  EXPECT_FALSE(cr.is_nt);
  EXPECT_EQ(cr.action, "skipped");
  EXPECT_EQ(cr.reason, "rank-deficient");
  EXPECT_EQ(cr.samples, 10u);
  EXPECT_EQ(cr.distinct_n, 8u);
  EXPECT_EQ(cr.incumbent_err, 0.0);
  EXPECT_EQ(cr.candidate_err, 0.0);
  EXPECT_EQ(report.accepted, 0u);
  EXPECT_FALSE(report.model.has_value());
}

TEST(RefitEngine, DetectsDriftAndNamesTheCells) {
  const Estimator incumbent = make_estimator();
  ObservationBuffer buf;
  // Drifted class: measured 60% above prediction at four sizes.
  for (const int n : {400, 800, 1200, 1600})
    for (int rep = 0; rep < 2; ++rep) {
      const cluster::Config cfg = single_pe_config(kAth, 1);
      const double t = 1.6 * incumbent.estimate(cfg, n);
      buf.add(make_obs(cfg, n, 0.7 * t, 0.3 * t));
    }
  // Healthy class: measurements right on the model.
  for (const int n : {1000, 2000, 3000, 4000})
    for (const int pes : {4, 8}) {
      const cluster::Config cfg = group_config(kP2, pes, 1);
      const double t = incumbent.estimate(cfg, n);
      buf.add(make_obs(cfg, n, 0.6 * t, 0.4 * t));
    }

  const RefitEngine engine;
  const DriftReport drift = engine.detect_drift(incumbent, buf);
  ASSERT_EQ(drift.classes.size(), 1u);
  const DriftClass& dc = drift.classes.front();
  EXPECT_EQ(dc.key, "nt:" + kAth + "/1/1");
  EXPECT_TRUE(dc.is_nt);
  EXPECT_EQ(dc.kind, kAth);
  EXPECT_EQ(dc.m, 1);
  EXPECT_EQ(dc.count, 8u);
  EXPECT_NEAR(dc.mean_abs_rel_err, 0.6 / 1.6, 1e-9);  // |pred-meas|/meas
  EXPECT_EQ(dc.ns, (std::vector<int>{400, 800, 1200, 1600}));
  EXPECT_EQ(dc.pe_counts, (std::vector<int>{1}));

  Estimator downgraded = incumbent;
  apply_drift(downgraded, drift);
  EXPECT_EQ(downgraded.nt_provenance(NtKey{kAth, 1, 1}),
            Provenance::kDrifted);
  EXPECT_EQ(downgraded.pt_provenance(kP2, 1), Provenance::kMeasured);
  // The drifted tag surfaces through the serving breakdown.
  const auto bd = downgraded.breakdown(single_pe_config(kAth, 1), 1000);
  EXPECT_EQ(bd.provenance, Provenance::kDrifted);
}

TEST(RefitEngine, RefinedAndDriftedTagsSurviveModelIoRoundtrip) {
  Estimator est = make_estimator();
  est.add_nt(NtKey{kAth, 1, 2}, NtModel({0, 0, 0, 5.0}, {0, 0, 1.0}),
             Provenance::kRefined);
  est.add_pt(kP2, 2, simple_pt(1500.0, 0.4), Provenance::kDrifted);

  const Estimator loaded = estimator_from_string(cluster::paper_cluster(),
                                                 estimator_to_string(est));
  EXPECT_EQ(loaded.nt_provenance(NtKey{kAth, 1, 2}), Provenance::kRefined);
  EXPECT_EQ(loaded.pt_provenance(kP2, 2), Provenance::kDrifted);
  EXPECT_EQ(loaded.nt_provenance(NtKey{kAth, 1, 1}), Provenance::kMeasured);
  // describe() renders the new tags for CLI diagnostics.
  const std::string desc = loaded.describe();
  EXPECT_NE(desc.find("[refined]"), std::string::npos);
  EXPECT_NE(desc.find("[drifted]"), std::string::npos);
}

}  // namespace
}  // namespace hetsched::core
