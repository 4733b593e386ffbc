// Runtime-contract hardening tests. Each case targets a HETSCHED_CHECK /
// HETSCHED_ASSERT guard added by the static-analysis PR and fails if the
// guard is removed:
//   * linalg/lls rejects non-finite inputs at the boundary and reports a
//     conditioning estimate,
//   * des/sim enforces event-time monotonicity and refuses mutation after
//     run() finalizes the timeline,
//   * search/engine's debug_check_bounds sweep re-derives bound
//     admissibility at every priced leaf (DESIGN.md §5).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cluster/pe_kind.hpp"
#include "core/optimizer.hpp"
#include "des/sim.hpp"
#include "des/task.hpp"
#include "linalg/lls.hpp"
#include "search/engine.hpp"
#include "support/error.hpp"

namespace hetsched {
namespace {

constexpr double kQNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kPosInf = std::numeric_limits<double>::infinity();

// ---- linalg/lls ----------------------------------------------------------

linalg::Matrix tall_design() {
  // 4x2 design [x, 1] for x = 1..4 — full rank, benign scaling.
  linalg::Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 1.0;
  }
  return a;
}

TEST(LlsContracts, NanInDesignMatrixThrows) {
  linalg::Matrix a = tall_design();
  a(2, 0) = kQNaN;
  const std::vector<double> b{1, 2, 3, 4};
  EXPECT_THROW(linalg::solve_lls(a, b), Error);
}

TEST(LlsContracts, InfInDesignMatrixThrows) {
  linalg::Matrix a = tall_design();
  a(0, 1) = kPosInf;
  const std::vector<double> b{1, 2, 3, 4};
  EXPECT_THROW(linalg::solve_lls(a, b), Error);
}

TEST(LlsContracts, NonFiniteRhsThrows) {
  const linalg::Matrix a = tall_design();
  for (const double bad : {kQNaN, kPosInf, -kPosInf}) {
    std::vector<double> b{1, 2, 3, 4};
    b[1] = bad;
    EXPECT_THROW(linalg::solve_lls(a, b), Error) << bad;
  }
}

TEST(LlsContracts, RankDeficiencyThrows) {
  // Second column is 3x the first: rank 1.
  linalg::Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 3.0 * static_cast<double>(i + 1);
  }
  const std::vector<double> b{1, 2, 3, 4};
  EXPECT_THROW(linalg::solve_lls(a, b), Error);
}

TEST(LlsContracts, ConditioningIsReportedAndSane) {
  const linalg::Matrix a = tall_design();
  const std::vector<double> b{3, 5, 7, 9};  // exactly 2x + 1
  const linalg::LlsResult res = linalg::solve_lls(a, b);
  ASSERT_EQ(res.coeffs.size(), 2u);
  EXPECT_NEAR(res.coeffs[0], 2.0, 1e-9);
  EXPECT_NEAR(res.coeffs[1], 1.0, 1e-9);
  // cond is max|R_ii|/min|R_ii| of the equilibrated QR: >= 1, finite for
  // any system that passed the rank guard.
  EXPECT_GE(res.cond, 1.0);
  EXPECT_TRUE(std::isfinite(res.cond));
}

TEST(LlsContracts, NearDependentColumnsReportLargeCond) {
  // Columns differ by 1e-9: passes the rank tolerance but must surface a
  // conditioning estimate far above a benign system's.
  linalg::Matrix a(6, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    const double x = static_cast<double>(i + 1);
    a(i, 0) = x;
    a(i, 1) = x * (1.0 + 1e-9 * static_cast<double>(i));
  }
  const std::vector<double> b{1, 2, 3, 4, 5, 6};
  const linalg::LlsResult res = linalg::solve_lls(a, b);
  EXPECT_GT(res.cond, 1e6);
}

// ---- des/sim -------------------------------------------------------------

TEST(SimContracts, OutOfOrderEventThrows) {
  des::Simulator sim;
  bool saw_throw = false;
  sim.schedule_at(5.0, [&] {
    // At t=5 an event for t=1 would run the queue backwards.
    try {
      sim.schedule_at(1.0, [] {});
    } catch (const Error&) {
      saw_throw = true;
    }
  });
  sim.run();
  EXPECT_TRUE(saw_throw);
}

TEST(SimContracts, RunFinalizesTheTimeline) {
  des::Simulator sim;
  sim.schedule_at(1.0, [] {});
  EXPECT_FALSE(sim.finalized());
  sim.run();
  EXPECT_TRUE(sim.finalized());
  // The completed virtual timeline is immutable: an event scheduled now
  // would silently never fire, so every mutation throws.
  EXPECT_THROW(sim.schedule_at(2.0, [] {}), Error);
  EXPECT_THROW(sim.schedule_after(0.0, [] {}), Error);
  EXPECT_THROW(sim.run(), Error);
  // State stays readable.
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.events_dispatched(), 1u);
}

des::Task tick(des::Simulator& sim, int& count) {
  co_await sim.delay(1.0);
  ++count;
}

TEST(SimContracts, SpawnAfterFinalizeThrows) {
  des::Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.run();
  int count = 0;
  EXPECT_THROW(sim.spawn(tick(sim, count)), Error);
  EXPECT_EQ(count, 0);
}

TEST(SimContracts, RunUntilDoesNotFinalize) {
  // Bounded runs are partial by design: resumption (run_until -> run)
  // must stay legal, and only the final full drain flips finalized().
  des::Simulator sim;
  std::vector<double> fired;
  sim.schedule_at(1.0, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(3.0, [&] { fired.push_back(sim.now()); });
  sim.run_until(2.0);
  EXPECT_FALSE(sim.finalized());
  sim.schedule_at(2.5, [&] { fired.push_back(sim.now()); });
  sim.run();
  EXPECT_TRUE(sim.finalized());
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.5, 3.0}));
}

// ---- search/engine -------------------------------------------------------

core::PtModel fitted_pt(double work, double per_q) {
  std::vector<core::NtModel> models;
  std::vector<int> ps;
  for (const int p : {2, 4, 8}) {
    models.push_back(core::NtModel({0, 0, 0, work / p}, {0, 0, per_q * p}));
    ps.push_back(p);
  }
  const std::vector<double> ns{1000};
  return core::PtModel::fit(models, ps, ps, ns);
}

cluster::ClusterSpec spec_for(const std::vector<std::string>& kinds,
                              int pes_each) {
  cluster::ClusterSpec spec;
  for (const auto& name : kinds) {
    cluster::PeKind kind = cluster::pentium2_400();
    kind.name = name;
    for (int p = 0; p < pes_each; ++p)
      spec.nodes.push_back(cluster::NodeSpec{kind, 1, 768 * kMiB});
  }
  return spec;
}

core::Estimator make_estimator(const cluster::ClusterSpec& spec,
                               const std::vector<double>& works, int max_m,
                               bool check_memory) {
  core::EstimatorOptions opts;
  opts.check_memory = check_memory;
  core::Estimator est(spec, opts);
  for (std::size_t k = 0; k < works.size(); ++k) {
    const std::string name = "kind" + std::to_string(k);
    for (int m = 1; m <= max_m; ++m) {
      est.add_pt(name, m, fitted_pt(works[k] * (1 + 0.08 * m), 1.2));
      est.add_nt(core::NtKey{name, 1, m},
                 core::NtModel({0, 0, 0, works[k] * (1 + 0.1 * m)},
                               {0, 0, 0.5 * m}));
    }
  }
  return est;
}

TEST(EngineContracts, DebugBoundSweepHoldsOnSmallSpace) {
  // With debug_check_bounds on, every priced leaf re-checks that the
  // branch-and-bound lower bound along its path does not exceed the true
  // estimate. Exercises the admissibility argument over plain, shrinking
  // adjustment-map, and memory-bin estimators; any inadmissible bound
  // throws out of best() via the pool's exception propagation.
  const std::vector<std::string> names{"kind0", "kind1"};
  const cluster::ClusterSpec spec = spec_for(names, 3);
  const core::ConfigSpace space = core::ConfigSpace::ranges({
      core::ConfigSpace::KindRange{"kind0", 1, 3, 1, 2, true},
      core::ConfigSpace::KindRange{"kind1", 1, 3, 1, 2, true},
  });

  struct Case {
    const char* name;
    bool check_memory;
    bool add_maps;
    int n;
  };
  for (const Case& c : {Case{"plain", false, false, 1500},
                        Case{"adjusted", false, true, 1500},
                        Case{"paged", true, false, 12000}}) {
    core::Estimator est =
        make_estimator(spec, {300.0, 900.0}, 2, c.check_memory);
    if (c.add_maps) {
      est.add_adjustment("kind0", 1, core::LinearMap{0.4, -40.0});
      est.add_adjustment("kind1", 2, core::LinearMap{0.9, -10.0});
    }
    const core::Ranked oracle = core::best_exhaustive(est, space, c.n);
    for (const std::size_t threads : {1u, 4u}) {
      search::EngineOptions opts;
      opts.threads = threads;
      opts.debug_check_bounds = true;
      search::Engine engine(opts);
      const core::Ranked got = engine.best(est, space, c.n);
      EXPECT_EQ(got.config, oracle.config) << c.name;
      EXPECT_EQ(got.estimate, oracle.estimate) << c.name;
    }
  }
}

TEST(EngineContracts, StolenSubtreeBoundEqualsFromScratchRecomputation) {
  // The incremental bound contract: a DFS node's carried bound — built
  // one max() at a time along the path, possibly across a chunk that a
  // work-stealing context migrated — must equal the from-scratch
  // recomputation over the path's fixed choices, *exactly* (both are
  // maxes of the same doubles). debug_check_bounds asserts the equality
  // at every node; oversubscribing a stealing pool with many small
  // tasks maximizes migration, so a maintenance bug (stale prefix after
  // a steal, missed reset between siblings) throws out of best() here.
  const std::vector<std::string> names{"kind0", "kind1", "kind2"};
  const cluster::ClusterSpec spec = spec_for(names, 4);
  const core::ConfigSpace space = core::ConfigSpace::ranges({
      core::ConfigSpace::KindRange{"kind0", 1, 4, 1, 3, true},
      core::ConfigSpace::KindRange{"kind1", 1, 4, 1, 3, true},
      core::ConfigSpace::KindRange{"kind2", 1, 4, 1, 3, true},
  });
  core::Estimator est =
      make_estimator(spec, {200.0, 800.0, 1800.0}, 3, false);
  est.add_adjustment("kind1", 2, core::LinearMap{0.85, -5.0});
  const core::Ranked oracle = core::best_exhaustive(est, space, 2400);
  search::EngineOptions opts;
  opts.threads = 16;
  opts.tasks_per_thread = 8;
  opts.use_work_stealing = true;
  opts.batch_leaves = 8;
  opts.debug_check_bounds = true;
  search::Engine engine(opts);
  for (int rep = 0; rep < 5; ++rep) {
    const core::Ranked got = engine.best(est, space, 2400);
    EXPECT_EQ(got.config, oracle.config) << "rep=" << rep;
    EXPECT_EQ(got.estimate, oracle.estimate) << "rep=" << rep;
  }
}

TEST(EngineContracts, DebugBoundSweepIsOffByDefault) {
  // The sweep costs one extra bound() per leaf; production search paths
  // must not pay it implicitly.
  EXPECT_FALSE(search::EngineOptions{}.debug_check_bounds);
}

}  // namespace
}  // namespace hetsched
