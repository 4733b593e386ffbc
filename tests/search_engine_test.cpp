// Parity and cache-correctness tests for the parallel pruned search
// engine: on randomized configuration spaces and fitted model sets, the
// engine must return exactly (config and estimate, bitwise ==) what the
// serial oracle returns, for any thread count, with pruning and caching
// on or off.
#include "search/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cluster/pe_kind.hpp"
#include "core/model_io.hpp"
#include "core/optimizer.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hetsched::search {
namespace {

core::PtModel fitted_pt(double work, double per_q) {
  std::vector<core::NtModel> models;
  std::vector<int> ps;
  for (const int p : {2, 4, 8}) {
    models.push_back(
        core::NtModel({0, 0, 0, work / p}, {0, 0, per_q * p}));
    ps.push_back(p);
  }
  const std::vector<double> ns{1000};
  return core::PtModel::fit(models, ps, ps, ns);
}

cluster::ClusterSpec spec_for(int kinds, int max_pes) {
  cluster::ClusterSpec spec;
  for (int k = 0; k < kinds; ++k) {
    cluster::PeKind kind = cluster::pentium2_400();
    kind.name = "kind" + std::to_string(k);
    for (int p = 0; p < max_pes; ++p)
      spec.nodes.push_back(cluster::NodeSpec{kind, 1, 768 * kMiB});
  }
  return spec;
}

/// A randomized estimator + space pair: random per-kind work and
/// communication coefficients (fitted through PtModel::fit), random N-T
/// entries, occasionally missing models (uncovered candidates) and a
/// random adjustment map.
struct Fixture {
  core::Estimator est;
  core::ConfigSpace space;
};

Fixture random_fixture(Rng& rng) {
  const int kinds = 1 + static_cast<int>(rng.uniform_index(3));
  const int max_pes = 2 + static_cast<int>(rng.uniform_index(3));
  const int max_m = 1 + static_cast<int>(rng.uniform_index(3));

  core::EstimatorOptions opts;
  opts.check_memory = false;
  core::Estimator est(spec_for(kinds, max_pes), opts);

  std::vector<core::ConfigSpace::KindRange> ranges;
  for (int k = 0; k < kinds; ++k) {
    const std::string name = "kind" + std::to_string(k);
    const double work = rng.uniform(100.0, 900.0);
    const double per_q = rng.uniform(0.5, 4.0);
    for (int m = 1; m <= max_m; ++m) {
      // ~15%: leave this (kind, m) class unmodeled — its multi-kind
      // candidates become uncovered and must be skipped identically by
      // both searches.
      if (rng.uniform() > 0.15)
        est.add_pt(name, m, fitted_pt(work * (1 + 0.07 * m), per_q));
      if (rng.uniform() > 0.3)
        est.add_nt(core::NtKey{name, 1, m},
                   core::NtModel({0, 0, 0, work * (1 + 0.1 * m)},
                                 {0, 0, 0.4 * m}));
    }
    if (rng.uniform() < 0.3)
      est.add_adjustment(name, 1 + static_cast<int>(rng.uniform_index(max_m)),
                         core::LinearMap{rng.uniform(0.7, 1.3),
                                         rng.uniform(-20.0, 20.0)});
    ranges.push_back(core::ConfigSpace::KindRange{
        name, 1, max_pes, 1, max_m, /*optional=*/true});
  }
  return Fixture{std::move(est), core::ConfigSpace::ranges(ranges)};
}

bool any_covered(const core::Estimator& est, const core::ConfigSpace& space) {
  for (const auto& cfg : space.all())
    if (est.covers(cfg)) return true;
  return false;
}

void expect_ranked_equal(const std::vector<core::Ranked>& serial,
                         const std::vector<core::Ranked>& engine,
                         const std::string& context) {
  ASSERT_EQ(serial.size(), engine.size()) << context;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].config, engine[i].config) << context << " i=" << i;
    EXPECT_EQ(serial[i].estimate, engine[i].estimate) << context << " i=" << i;
  }
}

TEST(EngineParity, RandomizedSpacesAcrossThreadCounts) {
  Rng rng(20260806);
  for (int trial = 0; trial < 25; ++trial) {
    const Fixture fx = random_fixture(rng);
    const int n = 1000 + static_cast<int>(rng.uniform_index(4)) * 800;
    if (!any_covered(fx.est, fx.space)) continue;

    const auto serial_ranked = core::rank_all(fx.est, fx.space, n);
    const core::Ranked serial_best =
        core::best_exhaustive(fx.est, fx.space, n);

    for (const std::size_t threads : {1u, 2u, 8u}) {
      for (const bool prune : {false, true}) {
        EngineOptions opts;
        opts.threads = threads;
        opts.prune = prune;
        Engine engine(opts);
        const std::string ctx = "trial=" + std::to_string(trial) +
                                " threads=" + std::to_string(threads) +
                                " prune=" + std::to_string(prune);

        const core::Ranked best = engine.best(fx.est, fx.space, n);
        EXPECT_EQ(best.config, serial_best.config) << ctx;
        EXPECT_EQ(best.estimate, serial_best.estimate) << ctx;

        const auto ranked = engine.rank_all(fx.est, fx.space, n);
        expect_ranked_equal(serial_ranked, ranked, ctx);
      }
    }
  }
}

TEST(EngineParity, PaperSpaceMatchesOracle) {
  core::EstimatorOptions opts;
  opts.check_memory = false;
  core::Estimator est(cluster::paper_cluster(), opts);
  const std::string ath = cluster::athlon_1330().name;
  const std::string p2 = cluster::pentium2_400().name;
  for (int m = 1; m <= 6; ++m) {
    est.add_nt(core::NtKey{ath, 1, m},
               core::NtModel({0, 0, 0, 100.0 * (1 + 0.1 * m)}, {0, 0, 1.0 * m}));
    est.add_pt(ath, m, fitted_pt(400.0 * (1 + 0.05 * m), 2.0));
  }
  est.add_nt(core::NtKey{p2, 1, 1}, core::NtModel({0, 0, 0, 480.0}, {0, 0, 1.0}));
  est.add_pt(p2, 1, fitted_pt(480.0, 2.0));

  const core::ConfigSpace space = core::ConfigSpace::paper_eval();
  Engine engine;
  for (const int n : {1000, 4000, 9600}) {
    const core::Ranked oracle = core::best_exhaustive(est, space, n);
    const core::Ranked got = engine.best(est, space, n);
    EXPECT_EQ(got.config, oracle.config) << "n=" << n;
    EXPECT_EQ(got.estimate, oracle.estimate) << "n=" << n;
    expect_ranked_equal(core::rank_all(est, space, n),
                        engine.rank_all(est, space, n),
                        "n=" + std::to_string(n));
  }
}

TEST(EngineParity, ThrowsWhenNothingCovered) {
  core::EstimatorOptions opts;
  core::Estimator est(cluster::paper_cluster(), opts);  // no models
  Engine engine;
  EXPECT_THROW(engine.best(est, core::ConfigSpace::paper_eval(), 1000),
               Error);
  EXPECT_TRUE(engine.rank_all(est, core::ConfigSpace::paper_eval(), 1000)
                  .empty());
}

TEST(EngineCache, MemoizedRankAllEqualsUncached) {
  Rng rng(7);
  const Fixture fx = random_fixture(rng);
  EngineOptions cached_opts;
  cached_opts.use_cache = true;
  EngineOptions uncached_opts;
  uncached_opts.use_cache = false;
  Engine cached(cached_opts), uncached(uncached_opts);
  for (const int n : {1000, 2000}) {
    const auto a = cached.rank_all(fx.est, fx.space, n);
    const auto b = uncached.rank_all(fx.est, fx.space, n);
    expect_ranked_equal(b, a, "n=" + std::to_string(n));
    // And a second, fully-cache-served pass returns the same answer.
    const auto c = cached.rank_all(fx.est, fx.space, n);
    expect_ranked_equal(b, c, "warm n=" + std::to_string(n));
  }
}

TEST(EngineCache, HitAndMissCountersAreExposed) {
  Rng rng(11);
  const Fixture fx = random_fixture(rng);
  Engine engine;
  const std::size_t candidates = fx.space.size();

  engine.rank_all(fx.est, fx.space, 1000);
  const EngineStats cold = engine.stats();
  EXPECT_EQ(cold.candidates, candidates);
  EXPECT_EQ(cold.cache_misses, candidates);  // every candidate priced once
  EXPECT_EQ(cold.cache_hits, 0u);

  engine.rank_all(fx.est, fx.space, 1000);
  const EngineStats warm = engine.stats();
  EXPECT_EQ(warm.cache_hits, candidates);  // fully served from cache
  EXPECT_EQ(warm.cache_misses, 0u);

  // A different problem size is a different key set.
  engine.rank_all(fx.est, fx.space, 2000);
  EXPECT_EQ(engine.stats().cache_misses, candidates);
  EXPECT_EQ(engine.cache().size(), 2 * candidates);
}

TEST(EngineCache, InvalidatedOnEstimatorRebuild) {
  const std::string kind = "kind0";
  cluster::ClusterSpec spec = spec_for(1, 4);
  core::EstimatorOptions opts;
  opts.check_memory = false;

  const auto build = [&](double work) {
    core::Estimator est(spec, opts);
    est.add_pt(kind, 1, fitted_pt(work, 1.0));
    est.add_nt(core::NtKey{kind, 1, 1},
               core::NtModel({0, 0, 0, work}, {0, 0, 0.5}));
    return est;
  };

  const core::Estimator before = build(400.0);
  const core::Estimator rebuilt = build(800.0);
  ASSERT_NE(estimator_fingerprint(before), estimator_fingerprint(rebuilt));

  const core::ConfigSpace space = core::ConfigSpace::ranges(
      {core::ConfigSpace::KindRange{kind, 1, 4, 1, 2, true}});

  Engine engine;
  const auto a = engine.rank_all(before, space, 1000);
  EXPECT_GT(engine.cache().size(), 0u);

  // Rebuild: the cache must drop the stale estimates, not serve them.
  const auto b = engine.rank_all(rebuilt, space, 1000);
  EXPECT_EQ(engine.stats().cache_misses, space.size());
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  expect_ranked_equal(core::rank_all(rebuilt, space, 1000), b, "rebuilt");

  // Same models, different Estimator object: fingerprint matches, the
  // cache survives.
  const core::Estimator again = build(800.0);
  EXPECT_EQ(estimator_fingerprint(rebuilt), estimator_fingerprint(again));
  engine.rank_all(again, space, 1000);
  EXPECT_EQ(engine.stats().cache_hits, space.size());
  (void)a;
}

// An estimator whose keys sort differently as text and as numbers: m 2
// and 10, pes 3 and 12, kinds listed out of spec order, a kind ("Alpha.x")
// that sorts before its prefix ("Alpha") because '.' < '/', and a kind
// the spec does not list. The entries, the fingerprint and the model
// file must keep the lexicographic order of the "kind/pes/m" and
// "kind/m" texts; the pinned values were produced before the estimator
// keyed its models by integers.
core::Estimator text_order_estimator() {
  cluster::ClusterSpec spec;
  for (const char* name : {"Zeta", "Alpha", "Alpha.x"}) {
    cluster::PeKind kind = cluster::athlon_1330();
    kind.name = name;
    spec.nodes.push_back(cluster::NodeSpec{kind, 12, 768 * kMiB});
  }
  core::Estimator est(spec, core::EstimatorOptions{});
  const auto nt = [](double k) {
    return core::NtModel({k, 0, 0, 1}, {0, 0, k});
  };
  const auto pt = [&](double k) {
    core::PtModel::State s;
    s.a_base = nt(k);
    s.kt = {k, 0.5};
    s.c_base = nt(2 * k);
    s.kc = {0.25, k, 0.125};
    return core::PtModel::from_state(s);
  };
  using core::NtKey;
  using core::Provenance;
  est.add_nt(NtKey{"Zeta", 12, 2}, nt(1));
  est.add_nt(NtKey{"Alpha", 3, 1}, nt(2), Provenance::kRefined);
  est.add_nt(NtKey{"Zeta", 1, 10}, nt(3));
  est.add_nt(NtKey{"Alpha.x", 1, 1}, nt(4));
  est.add_nt(NtKey{"Zeta", 1, 2}, nt(5), Provenance::kDrifted);
  est.add_nt(NtKey{"Alpha", 12, 1}, nt(6));
  est.add_nt(NtKey{"Beta", 1, 1}, nt(7));
  est.add_pt("Zeta", 2, pt(1));
  est.add_pt("Alpha.x", 3, pt(2), Provenance::kComposed);
  est.add_pt("Zeta", 10, pt(3), Provenance::kRefined);
  est.add_pt("Alpha", 1, pt(4));
  est.add_adjustment("Alpha", 3, core::LinearMap{1.5, 0.25});
  est.add_adjustment("Zeta", 10, core::LinearMap{2, 0});
  est.add_adjustment("Alpha", 12, core::LinearMap{0.5, 1});
  est.add_adjustment("Zeta", 2, core::LinearMap{1, 3});
  return est;
}

TEST(EstimatorEntryOrder, KeysSortAsTextNotAsNumbers) {
  const core::Estimator est = text_order_estimator();
  std::vector<std::string> nt;
  for (const auto& e : est.nt_entries())
    nt.push_back(e.key.kind + '/' + std::to_string(e.key.pes) + '/' +
                 std::to_string(e.key.m));
  EXPECT_EQ(nt, (std::vector<std::string>{
                    "Alpha.x/1/1", "Alpha/12/1", "Alpha/3/1", "Beta/1/1",
                    "Zeta/1/10", "Zeta/1/2", "Zeta/12/2"}));
  std::vector<std::string> pt;
  for (const auto& e : est.pt_entries())
    pt.push_back(e.kind + '/' + std::to_string(e.m));
  EXPECT_EQ(pt, (std::vector<std::string>{"Alpha.x/3", "Alpha/1", "Zeta/10",
                                          "Zeta/2"}));
  std::vector<std::string> adjust;
  for (const auto& e : est.adjust_entries())
    adjust.push_back(e.kind + '/' + std::to_string(e.m));
  EXPECT_EQ(adjust, (std::vector<std::string>{"Alpha/12", "Alpha/3",
                                              "Zeta/10", "Zeta/2"}));

  EXPECT_EQ(estimator_fingerprint(est), 0x29624731e8f91297ULL);
  EXPECT_EQ(core::estimator_to_string(est),
            "hetsched-models v1\n"
            "fingerprint 87c791c04ac7a60c\n"
            "options 1 1 1 20 64 1\n"
            "nt Alpha.x 1 1 4 0 0 1 0 0 4\n"
            "nt Alpha 12 1 6 0 0 1 0 0 6\n"
            "nt Alpha 3 1 2 0 0 1 0 0 2\n"
            "nt Beta 1 1 7 0 0 1 0 0 7\n"
            "nt Zeta 1 10 3 0 0 1 0 0 3\n"
            "nt Zeta 1 2 5 0 0 1 0 0 5\n"
            "nt Zeta 12 2 1 0 0 1 0 0 1\n"
            "pt Alpha.x 3 2 0.5 1 1 2 0 0 1 0 0 2 0.25 2 0.125 1 4 0 0 1 0 "
            "0 4\n"
            "pt Alpha 1 4 0.5 1 1 4 0 0 1 0 0 4 0.25 4 0.125 1 8 0 0 1 0 0 "
            "8\n"
            "pt Zeta 10 3 0.5 1 1 3 0 0 1 0 0 3 0.25 3 0.125 1 6 0 0 1 0 0 "
            "6\n"
            "pt Zeta 2 1 0.5 1 1 1 0 0 1 0 0 1 0.25 1 0.125 1 2 0 0 1 0 0 "
            "2\n"
            "adjust Alpha 12 0.5 1\n"
            "adjust Alpha 3 1.5 0.25\n"
            "adjust Zeta 10 2 0\n"
            "adjust Zeta 2 1 3\n"
            "prov nt Alpha 3 1 refined\n"
            "prov nt Zeta 1 2 drifted\n"
            "prov pt Alpha.x 3 composed\n"
            "prov pt Zeta 10 refined\n"
            "end\n");
}

TEST(EngineCache, OptionFlipInvalidates) {
  Rng rng(23);
  const Fixture fx = random_fixture(rng);
  core::Estimator flipped = fx.est;
  flipped.options().use_adjustment = !flipped.options().use_adjustment;
  EXPECT_NE(estimator_fingerprint(fx.est), estimator_fingerprint(flipped));
}

TEST(EngineCache, TryEstimateMatchesEstimatorAndCaches) {
  Rng rng(31);
  const Fixture fx = random_fixture(rng);
  Engine engine;
  const std::uint64_t misses0 = engine.cache().misses();
  for (const auto& cfg : fx.space.all()) {
    const auto v = engine.try_estimate(fx.est, cfg, 1500);
    if (fx.est.covers(cfg)) {
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, fx.est.estimate(cfg, 1500));
    } else {
      EXPECT_FALSE(v.has_value());
    }
  }
  const std::uint64_t misses_cold = engine.cache().misses() - misses0;
  EXPECT_EQ(misses_cold, fx.space.size());
  const std::uint64_t hits0 = engine.cache().hits();
  for (const auto& cfg : fx.space.all())
    (void)engine.try_estimate(fx.est, cfg, 1500);
  EXPECT_EQ(engine.cache().hits() - hits0, fx.space.size());
}

}  // namespace
}  // namespace hetsched::search
