#include "measure/runner.hpp"

#include <gtest/gtest.h>

#include "core/model_builder.hpp"
#include "measure/evaluation.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "search/cache.hpp"
#include "support/error.hpp"

namespace hetsched::measure {
namespace {

TEST(Runner, CachesRepeatedMeasurements) {
  Runner runner(cluster::paper_cluster());
  const cluster::Config cfg = cluster::Config::paper(1, 1, 2, 1);
  const core::Sample& a = runner.measure(cfg, 800);
  EXPECT_EQ(runner.runs_executed(), 1u);
  const core::Sample& b = runner.measure(cfg, 800);
  EXPECT_EQ(runner.runs_executed(), 1u);  // served from cache
  EXPECT_EQ(&a, &b);
  runner.measure(cfg, 1600);
  EXPECT_EQ(runner.runs_executed(), 2u);  // different size: new run
}

TEST(Runner, DistinctSaltsGiveDistinctNoise) {
  Runner a(cluster::paper_cluster(), 64, /*salt=*/1);
  Runner b(cluster::paper_cluster(), 64, /*salt=*/2);
  const cluster::Config cfg = cluster::Config::paper(0, 0, 4, 1);
  const double wa = a.measure(cfg, 1600).wall;
  const double wb = b.measure(cfg, 1600).wall;
  EXPECT_NE(wa, wb);
  EXPECT_NEAR(wa, wb, 0.1 * wa);  // same system, only noise differs
}

TEST(Runner, SameSaltReproducible) {
  Runner a(cluster::paper_cluster(), 64, 7);
  Runner b(cluster::paper_cluster(), 64, 7);
  const cluster::Config cfg = cluster::Config::paper(1, 2, 4, 1);
  EXPECT_DOUBLE_EQ(a.measure(cfg, 1600).wall, b.measure(cfg, 1600).wall);
}

TEST(Runner, SampleCarriesPerKindMeasures) {
  Runner runner(cluster::paper_cluster());
  const core::Sample& s =
      runner.measure(cluster::Config::paper(1, 2, 4, 1), 1600);
  ASSERT_EQ(s.kinds.size(), 2u);
  for (const auto& k : s.kinds) {
    EXPECT_GT(k.tai, 0.0);
    EXPECT_GT(k.tci, 0.0);
    // Per-kind Tai and Tci are maxima over that kind's ranks and may come
    // from different ranks, so only each component is bounded by the wall.
    EXPECT_LE(k.tai, s.wall * 1.0001);
    EXPECT_LE(k.tci, s.wall * 1.0001);
  }
}

TEST(Runner, CustomWorkloadIsUsed) {
  int calls = 0;
  WorkloadFn fake = [&calls](const cluster::ClusterSpec&,
                             const cluster::Config& cfg, int n,
                             std::uint64_t) {
    ++calls;
    core::Sample s;
    s.config = cfg;
    s.n = n;
    s.wall = 42.0;
    s.kinds.push_back(
        core::Sample::KindMeasure{cfg.usage.front().kind, 40.0, 2.0});
    return s;
  };
  Runner runner(cluster::paper_cluster(), std::move(fake));
  const core::Sample& s =
      runner.measure(cluster::Config::paper(1, 1, 0, 0), 1000);
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(s.wall, 42.0);
  runner.measure(cluster::Config::paper(1, 1, 0, 0), 1000);
  EXPECT_EQ(calls, 1);  // cached
}

TEST(Runner, NullWorkloadRejected) {
  EXPECT_THROW(Runner(cluster::paper_cluster(), WorkloadFn{}), Error);
}

TEST(Runner, RunPlanCoversConstructionAndAnchors) {
  Runner runner(cluster::paper_cluster());
  const MeasurementPlan plan = ns_plan();
  const core::MeasurementSet ms = runner.run_plan(plan);
  EXPECT_EQ(ms.samples().size(), plan.run_count());
  EXPECT_EQ(runner.runs_executed(), plan.run_count());
  // Re-running the plan costs nothing: everything cached.
  runner.run_plan(plan);
  EXPECT_EQ(runner.runs_executed(), plan.run_count());
}

#if HETSCHED_OBS_ACTIVE
TEST(Runner, CacheHitAndMissCounters) {
  obs::MetricsRegistry::instance().reset();
  Runner runner(cluster::paper_cluster());
  const cluster::Config cfg = cluster::Config::paper(1, 1, 2, 1);
  runner.measure(cfg, 800);   // miss
  runner.measure(cfg, 800);   // hit
  runner.measure(cfg, 1600);  // miss (new size)
  obs::MetricsSnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter_value("measure.cache_misses"), 2u);
  EXPECT_EQ(snap.counter_value("measure.cache_hits"), 1u);

  // measure_repeated has its own cache keyed on (config, n, repeats).
  runner.measure_repeated(cfg, 800, 3);  // miss + 3 runs
  runner.measure_repeated(cfg, 800, 3);  // hit
  snap = obs::snapshot();
  EXPECT_EQ(snap.counter_value("measure.cache_misses"), 3u);
  EXPECT_EQ(snap.counter_value("measure.cache_hits"), 2u);
}
#endif

TEST(Evaluation, RowErrorsConsistent) {
  EvalRow row;
  row.tau = 95;
  row.tau_hat = 105;
  row.t_hat = 100;
  EXPECT_NEAR(row.estimate_error(), -0.05, 1e-12);
  EXPECT_NEAR(row.selection_error(), 0.05, 1e-12);
}

TEST(Evaluation, SelectionErrorNonNegativeByConstruction) {
  // tau_hat is a measured time of some configuration; t_hat is the best
  // measured time — so the selection error can never be negative.
  Runner runner(cluster::paper_cluster());
  core::EstimatorOptions opts;
  core::Estimator est(cluster::paper_cluster(), opts);
  est.add_nt(core::NtKey{cluster::athlon_1330().name, 1, 1},
             core::NtModel({0, 0, 0, 5.0}, {0, 0, 0.1}));
  est.add_nt(core::NtKey{cluster::pentium2_400().name, 1, 1},
             core::NtModel({0, 0, 0, 25.0}, {0, 0, 0.1}));
  const core::ConfigSpace space = core::ConfigSpace::paper_eval();
  const EvalRow row = evaluate_at(est, runner, space, 1600);
  EXPECT_GE(row.selection_error(), 0.0);
}

TEST(Runner, RepeatedMeasurementAveragesAndAccounts) {
  Runner runner(cluster::paper_cluster());
  const cluster::Config cfg = cluster::Config::paper(0, 0, 4, 1);
  const core::Sample& avg = runner.measure_repeated(cfg, 1600, 4);
  EXPECT_EQ(avg.trials, 4);
  EXPECT_EQ(runner.runs_executed(), 4u);
  // The accounting keeps every trial; the reported wall is their mean.
  EXPECT_NEAR(avg.measured_cost, 4.0 * avg.wall, 0.2 * avg.measured_cost);
  EXPECT_GT(avg.measured_cost, 3.0 * avg.wall);
  // Cached on the second request.
  runner.measure_repeated(cfg, 1600, 4);
  EXPECT_EQ(runner.runs_executed(), 4u);
}

TEST(Runner, RepeatedMeasurementReducesNoise) {
  cluster::ClusterSpec spec = cluster::paper_cluster();
  spec.noise_sigma = 0.05;
  // Spread of single-trial walls vs spread of 8-trial averages across
  // independent campaigns.
  auto spread = [&](int repeats) {
    double lo = 1e300, hi = 0;
    for (std::uint64_t salt = 1; salt <= 6; ++salt) {
      Runner runner(spec, 64, salt);
      const double w =
          runner.measure_repeated(cluster::Config::paper(1, 1, 0, 0), 1600,
                                  repeats)
              .wall;
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
    return hi - lo;
  };
  EXPECT_LT(spread(8), spread(1));
}

// The fitted models of the three paper campaigns, pinned by content
// fingerprint (the daemon's model_fingerprint). Parallel simulation must
// not move a bit of any sample the fits consume.
TEST(Runner, GoldenCampaignFingerprints) {
  const cluster::ClusterSpec spec = cluster::paper_cluster();
  const auto fingerprint = [&](const MeasurementPlan& plan) {
    Runner runner(spec, 64, /*salt=*/1);
    return search::estimator_fingerprint(
        core::ModelBuilder(spec).build(runner.run_plan(plan)));
  };
  EXPECT_EQ(fingerprint(basic_plan()), 0x8642986bbbd9c0a2ULL);
  EXPECT_EQ(fingerprint(nl_plan()), 0xe22b20af7f9b721eULL);
  EXPECT_EQ(fingerprint(ns_plan()), 0x017f0bafcfb502d0ULL);
}

TEST(Runner, PlanRepeatsMultiplyRunCount) {
  MeasurementPlan plan = ns_plan();
  const std::size_t base = plan.run_count();
  plan.repeats = 3;
  EXPECT_EQ(plan.run_count(), base * 3);
  Runner runner(cluster::paper_cluster());
  const core::MeasurementSet ms = runner.run_plan(plan);
  EXPECT_EQ(runner.runs_executed(), base * 3);
  for (const auto& s : ms.samples()) EXPECT_EQ(s.trials, 3);
}

}  // namespace
}  // namespace hetsched::measure
