#include "core/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>

#include "cluster/pe_kind.hpp"
#include "core/batch.hpp"
#include "support/error.hpp"

namespace hetsched::core {
namespace {

const std::string kAth = cluster::athlon_1330().name;
const std::string kP2 = cluster::pentium2_400().name;

PtModel simple_pt(double work, double per_q) {
  std::vector<NtModel> models;
  std::vector<int> ps;
  for (const int p : {2, 4, 8}) {
    models.push_back(NtModel({0, 0, 0, work / p}, {0, 0, per_q * p}));
    ps.push_back(p);
  }
  const std::vector<double> ns{1000};
  return PtModel::fit(models, ps, ps, ns);
}

/// Estimator whose optimum is interior: adding PEs helps compute ~1/P but
/// costs communication ~Q.
Estimator convex_estimator() {
  EstimatorOptions opts;
  opts.check_memory = false;
  Estimator est(cluster::paper_cluster(), opts);
  for (int m = 1; m <= 6; ++m) {
    est.add_nt(NtKey{kAth, 1, m},
               NtModel({0, 0, 0, 100.0 * (1 + 0.1 * m)}, {0, 0, 1.0 * m}));
    est.add_pt(kAth, m, simple_pt(400.0 * (1 + 0.05 * m), 2.0));
  }
  est.add_nt(NtKey{kP2, 1, 1}, NtModel({0, 0, 0, 480.0}, {0, 0, 1.0}));
  est.add_pt(kP2, 1, simple_pt(480.0, 2.0));
  return est;
}

TEST(ConfigSpace, PaperEvalHas62Candidates) {
  const ConfigSpace space = ConfigSpace::paper_eval();
  EXPECT_EQ(space.size(), 62u);
  EXPECT_EQ(space.all().size(), 62u);
}

TEST(ConfigSpace, AllCandidatesDistinctAndNonEmpty) {
  const ConfigSpace space = ConfigSpace::paper_eval();
  std::set<std::string> seen;
  for (const auto& cfg : space.all()) {
    EXPECT_GT(cfg.total_procs(), 0);
    EXPECT_TRUE(seen.insert(cfg.to_string()).second)
        << "duplicate " << cfg.to_string();
  }
}

TEST(ConfigSpace, RejectsEmptyDefinitions) {
  EXPECT_THROW(ConfigSpace({}), Error);
  EXPECT_THROW(ConfigSpace({ConfigSpace::KindOptions{"k", {}}}), Error);
}

TEST(RankAll, SortedByEstimate) {
  const Estimator est = convex_estimator();
  const ConfigSpace space = ConfigSpace::paper_eval();
  const auto ranked = rank_all(est, space, 1000);
  ASSERT_FALSE(ranked.empty());
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_LE(ranked[i - 1].estimate, ranked[i].estimate);
}

TEST(RankAll, SkipsUncoveredCandidates) {
  EstimatorOptions opts;
  opts.check_memory = false;
  Estimator est(cluster::paper_cluster(), opts);
  // Only Athlon m = 1 models: Pentium configs are uncovered.
  est.add_nt(NtKey{kAth, 1, 1}, NtModel({0, 0, 0, 10.0}, {0, 0, 1.0}));
  const auto ranked = rank_all(est, ConfigSpace::paper_eval(), 1000);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].config, cluster::Config::paper(1, 1, 0, 0));
}

TEST(BestExhaustive, FindsGlobalMinimum) {
  const Estimator est = convex_estimator();
  const ConfigSpace space = ConfigSpace::paper_eval();
  const Ranked best = best_exhaustive(est, space, 1000);
  for (const auto& cfg : space.all()) {
    if (!est.covers(cfg)) continue;
    EXPECT_LE(best.estimate, est.estimate(cfg, 1000) + 1e-12);
  }
}

TEST(BestExhaustive, ThrowsWhenNothingCovered) {
  EstimatorOptions opts;
  Estimator est(cluster::paper_cluster(), opts);  // no models at all
  EXPECT_THROW(best_exhaustive(est, ConfigSpace::paper_eval(), 1000), Error);
}

TEST(BestGreedy, MatchesExhaustiveOnConvexLandscape) {
  const Estimator est = convex_estimator();
  const ConfigSpace space = ConfigSpace::paper_eval();
  const Ranked exact = best_exhaustive(est, space, 1000);
  const GreedyResult greedy = best_greedy(est, space, 1000);
  EXPECT_NEAR(greedy.best.estimate, exact.estimate, exact.estimate * 1e-9);
  EXPECT_EQ(greedy.best.config, exact.config);
}

TEST(BestGreedy, UsesFewerEvaluationsThanExhaustive) {
  const Estimator est = convex_estimator();
  const ConfigSpace space = ConfigSpace::paper_eval();
  const GreedyResult greedy = best_greedy(est, space, 1000);
  EXPECT_LT(greedy.evaluations, space.size());
  EXPECT_GT(greedy.evaluations, 0u);
}

TEST(BatchEstimator, BitIdenticalToScalarOnPaperSpace) {
  // The SoA snapshot path must price every paper_eval candidate to the
  // exact double the scalar estimator produces (the full randomized
  // differential sweep lives in tests/search_batch_parity_test.cpp;
  // this is the optimizer-level smoke of the same contract).
  const Estimator est = convex_estimator();
  const ConfigSpace space = ConfigSpace::paper_eval();
  const auto& kinds = space.kinds();
  const std::size_t K = kinds.size();
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  for (const int n : {1000, 4000}) {
    const BatchEstimator batch(est, space, n);
    BatchEstimator::Scratch scratch = batch.make_scratch();
    std::size_t rows = 1;
    for (const auto& k : kinds) rows *= k.choices.size();
    std::vector<std::size_t> idx(K, 0);
    std::size_t covered = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      std::size_t odo = r;
      for (std::size_t k = 0; k < K; ++k) {
        idx[k] = odo % kinds[k].choices.size();
        odo /= kinds[k].choices.size();
      }
      const Seconds got = batch.estimate_row(idx.data(), scratch);
      cluster::Config cfg;
      for (std::size_t k = 0; k < K; ++k) {
        const auto [pes, m] = kinds[k].choices[idx[k]];
        if (pes > 0)
          cfg.usage.push_back(cluster::KindUsage{kinds[k].kind, pes, m});
      }
      if (cfg.usage.empty()) {
        EXPECT_TRUE(std::isnan(got)) << "all-absent row must be NaN";
        continue;
      }
      if (!est.covers(cfg)) {
        EXPECT_TRUE(std::isnan(got)) << cfg.to_string();
        continue;
      }
      ++covered;
      EXPECT_EQ(bits(est.estimate(cfg, n)), bits(got))
          << cfg.to_string() << " n=" << n;
    }
    EXPECT_GT(covered, 0u);
  }
}

TEST(BestGreedy, NeverWorseThanStartingPoint) {
  const Estimator est = convex_estimator();
  const ConfigSpace space = ConfigSpace::paper_eval();
  const GreedyResult greedy = best_greedy(est, space, 4000);
  // Starting point: everything used once (1 Athlon m=1 + 8 Pentiums).
  const Seconds start =
      est.estimate(cluster::Config::paper(1, 1, 8, 1), 4000);
  EXPECT_LE(greedy.best.estimate, start + 1e-12);
}

}  // namespace
}  // namespace hetsched::core
