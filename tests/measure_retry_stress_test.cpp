// Retry/backoff accounting under concurrency (TSan stress leg, like
// obs_stress_test): many threads each drive their own Runner through the
// same faulty campaign. Fault injection and retry accounting are pure
// per-runner state, so every thread must reproduce the reference
// bit-for-bit — and with observability on, the process-wide counters
// must aggregate losslessly across the concurrent runners. Each
// run_plan also fans its own runs out over a pool; a differential test
// pins that fan-out against a serial replay of the same plan.
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "measure/plan.hpp"
#include "measure/runner.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"

namespace hetsched::measure {
namespace {

constexpr std::size_t kThreads = 8;

FaultPlan faulty_plan() {
  FaultPlan plan;
  plan.seed = 2026;
  plan.default_spec.failure_prob = 0.25;
  plan.default_spec.straggler_prob = 0.1;
  plan.default_spec.noise_sigma = 0.05;
  plan.default_spec.outlier_prob = 0.1;
  return plan;
}

struct CampaignResult {
  core::MeasurementSet ms;
  std::size_t runs = 0;
  std::size_t retries = 0;
  std::size_t faults = 0;
  std::vector<FailedRun> failures;
};

/// The NS plan (smallest sizes) trimmed further: stress iterations
/// multiply whatever campaign we pick, and TSan multiplies it again.
MeasurementPlan small_plan() {
  MeasurementPlan plan = ns_plan();
  plan.ns.resize(2);
  plan.adjust_ns.resize(1);
  return plan;
}

CampaignResult run_campaign() {
  Runner runner(cluster::paper_cluster());
  runner.set_faults(faulty_plan());
  RetryPolicy policy;
  policy.max_attempts = 3;
  runner.set_retry(policy);
  CampaignResult out;
  out.ms = runner.run_plan(small_plan());
  out.runs = runner.runs_executed();
  out.retries = runner.retries_executed();
  out.faults = runner.faults_injected();
  out.failures = runner.failures();
  return out;
}

// Launch threads through a spin barrier so they hit the runner
// machinery together.
void run_threads(std::size_t n, const std::function<void(std::size_t)>& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      body(t);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
}

TEST(RetryStress, ConcurrentCampaignsAreBitIdentical) {
  const CampaignResult ref = run_campaign();
  // The faulty campaign must actually exercise the retry machinery for
  // this test to mean anything.
  ASSERT_GT(ref.retries, 0u);
  ASSERT_FALSE(ref.failures.empty());

  std::vector<CampaignResult> results(kThreads);
  run_threads(kThreads, [&](std::size_t t) { results[t] = run_campaign(); });

  for (const CampaignResult& r : results) {
    EXPECT_EQ(r.runs, ref.runs);
    EXPECT_EQ(r.retries, ref.retries);
    EXPECT_EQ(r.faults, ref.faults);
    ASSERT_EQ(r.ms.samples().size(), ref.ms.samples().size());
    for (std::size_t i = 0; i < ref.ms.samples().size(); ++i)
      EXPECT_EQ(r.ms.samples()[i].wall, ref.ms.samples()[i].wall);
    // Budget exhaustion marks each plan entry failed exactly once, in
    // plan order, and mirrors it into the MeasurementSet.
    ASSERT_EQ(r.failures.size(), ref.failures.size());
    ASSERT_EQ(r.ms.failures().size(), ref.failures.size());
    for (std::size_t i = 0; i < ref.failures.size(); ++i) {
      EXPECT_EQ(r.failures[i].config.to_string(),
                ref.failures[i].config.to_string());
      EXPECT_EQ(r.failures[i].n, ref.failures[i].n);
      EXPECT_EQ(r.failures[i].attempts, ref.failures[i].attempts);
    }
  }
}

/// The measure.* counters run_plan commits, read as deltas.
struct Counts {
  std::int64_t runs = 0, hits = 0, misses = 0;
};

Counts counts_now() {
  const obs::MetricsSnapshot snap = obs::snapshot();
  const auto value = [&](const char* name) {
    return static_cast<std::int64_t>(snap.counter_value(name));
  };
  return Counts{value("measure.runs"), value("measure.cache_hits"),
                value("measure.cache_misses")};
}

// Only the HETSCHED_OBS_ACTIVE checks below subtract counts.
[[maybe_unused]] Counts operator-(const Counts& a, const Counts& b) {
  return Counts{a.runs - b.runs, a.hits - b.hits, a.misses - b.misses};
}

Runner faulty_runner() {
  Runner runner(cluster::paper_cluster());
  FaultPlan faults = faulty_plan();
  faults.default_spec.failure_prob = 0.4;  // some keys exhaust 3 attempts
  runner.set_faults(faults);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.retry_outliers = true;
  runner.set_retry(policy);
  return runner;
}

void expect_same_set(const core::MeasurementSet& a,
                     const core::MeasurementSet& b) {
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    const core::Sample& x = a.samples()[i];
    const core::Sample& y = b.samples()[i];
    EXPECT_EQ(x.config.to_string(), y.config.to_string()) << "sample " << i;
    EXPECT_EQ(x.n, y.n) << "sample " << i;
    EXPECT_EQ(x.trials, y.trials) << "sample " << i;
    EXPECT_EQ(x.wall, y.wall) << "sample " << i;
    EXPECT_EQ(x.measured_cost, y.measured_cost) << "sample " << i;
    ASSERT_EQ(x.kinds.size(), y.kinds.size()) << "sample " << i;
    for (std::size_t k = 0; k < x.kinds.size(); ++k) {
      EXPECT_EQ(x.kinds[k].kind, y.kinds[k].kind);
      EXPECT_EQ(x.kinds[k].tai, y.kinds[k].tai) << "sample " << i;
      EXPECT_EQ(x.kinds[k].tci, y.kinds[k].tci) << "sample " << i;
    }
  }
  ASSERT_EQ(a.failures().size(), b.failures().size());
  for (std::size_t i = 0; i < a.failures().size(); ++i) {
    EXPECT_EQ(a.failures()[i].config.to_string(),
              b.failures()[i].config.to_string());
    EXPECT_EQ(a.failures()[i].n, b.failures()[i].n);
  }
}

// run_plan simulates on a pool and commits in plan order; a fresh
// runner fed the same plan one measure_repeated call at a time is the
// serial oracle. Everything either leaves behind must match exactly:
// samples, tallies, the order of failures() and the measure.* counters.
TEST(RetryStress, ParallelPlanMatchesSerialReplay) {
  MeasurementPlan plan = ns_plan();
  plan.ns = {400, 800};
  plan.adjust_ns = {800};
  plan.repeats = 3;
  // Anchors that repeat construction keys: served from the cache (or
  // the failure record) of their first occurrence, never simulated
  // twice.
  const std::vector<cluster::Config> construction =
      plan.construction_configs();
  plan.adjust_configs.push_back(construction.front());
  plan.adjust_configs.push_back(construction.back());

  Runner parallel = faulty_runner();
  [[maybe_unused]] const Counts c0 = counts_now();
  const core::MeasurementSet got = parallel.run_plan(plan);
  [[maybe_unused]] const Counts c1 = counts_now();

  Runner serial = faulty_runner();
  core::MeasurementSet want;
  const auto replay = [&](const cluster::Config& config, int n) {
    try {
      want.add(serial.measure_repeated(config, n, plan.repeats));
    } catch (const MeasurementFailure&) {
      want.add_failure(config, n);
    }
  };
  for (const auto& config : construction)
    for (const int n : plan.ns) replay(config, n);
  for (const auto& config : plan.adjust_configs)
    for (const int n : plan.adjust_ns) replay(config, n);
  [[maybe_unused]] const Counts c2 = counts_now();

  // The campaign must exercise every path the commit replays.
  ASSERT_GT(serial.retries_executed(), 0u);
  ASSERT_FALSE(serial.failures().empty());

  expect_same_set(got, want);
  EXPECT_EQ(parallel.runs_executed(), serial.runs_executed());
  EXPECT_EQ(parallel.retries_executed(), serial.retries_executed());
  EXPECT_EQ(parallel.faults_injected(), serial.faults_injected());
  ASSERT_EQ(parallel.failures().size(), serial.failures().size());
  for (std::size_t i = 0; i < serial.failures().size(); ++i) {
    EXPECT_EQ(parallel.failures()[i].config.to_string(),
              serial.failures()[i].config.to_string());
    EXPECT_EQ(parallel.failures()[i].n, serial.failures()[i].n);
    EXPECT_EQ(parallel.failures()[i].attempts, serial.failures()[i].attempts);
  }
#if HETSCHED_OBS_ACTIVE
  const Counts dp = c1 - c0, ds = c2 - c1;
  EXPECT_EQ(dp.runs, ds.runs);
  EXPECT_EQ(dp.hits, ds.hits);
  EXPECT_EQ(dp.misses, ds.misses);
  EXPECT_GT(dp.hits, 0);  // the repeated anchors
#endif

  // A second pass is all cache: no miss, no run, the same set.
  const std::size_t runs = parallel.runs_executed();
  const core::MeasurementSet again = parallel.run_plan(plan);
  [[maybe_unused]] const Counts c3 = counts_now();
  expect_same_set(again, got);
  EXPECT_EQ(parallel.runs_executed(), runs);
  EXPECT_EQ(parallel.failures().size(), serial.failures().size());
#if HETSCHED_OBS_ACTIVE
  const Counts d2 = c3 - c2;
  EXPECT_EQ(d2.misses, 0);
  EXPECT_EQ(d2.runs, 0);
  EXPECT_EQ(d2.hits, static_cast<std::int64_t>(got.samples().size()));
#endif
}

#if HETSCHED_OBS_ACTIVE
TEST(RetryStress, CountersAggregateAcrossConcurrentRunners) {
  const CampaignResult ref = run_campaign();
  obs::MetricsRegistry::instance().reset();
  run_threads(kThreads, [&](std::size_t) { run_campaign(); });
  const obs::MetricsSnapshot snap = obs::snapshot();
  // measure.retries matches the injected re-run count exactly: no lost
  // or double-counted updates under concurrency.
  EXPECT_EQ(snap.counter_value("measure.retries"),
            static_cast<std::int64_t>(kThreads * ref.retries));
  EXPECT_EQ(snap.counter_value("measure.runs_abandoned"),
            static_cast<std::int64_t>(kThreads * ref.failures.size()));
  EXPECT_EQ(snap.counter_value("measure.faults_injected"),
            static_cast<std::int64_t>(kThreads * ref.faults));
}
#endif

}  // namespace
}  // namespace hetsched::measure
