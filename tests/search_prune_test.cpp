// ConfigSpace indexing (the contract the parallel engine chunks on) and
// branch-and-bound pruning: cuts must actually happen on landscapes with
// dominated kinds, and must never change the answer — including under
// shrinking adjustment maps, uncovered kinds and the memory bin.
#include "search/engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cluster/pe_kind.hpp"
#include "core/optimizer.hpp"
#include "support/error.hpp"

namespace hetsched::search {
namespace {

using core::ConfigSpace;

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
                              int pes_each, Bytes memory = 768 * kMiB) {
  cluster::ClusterSpec spec;
  for (const auto& name : kinds) {
    cluster::PeKind kind = cluster::pentium2_400();
    kind.name = name;
    for (int p = 0; p < pes_each; ++p)
      spec.nodes.push_back(cluster::NodeSpec{kind, 1, memory});
  }
  return spec;
}

/// `works[k]` is kind k's serial A(N) scale; every (kind, m) class gets a
/// fitted P-T model and a single-PE N-T model.
core::Estimator make_estimator(const cluster::ClusterSpec& spec,
                               const std::vector<double>& works, int max_m,
                               bool check_memory = false) {
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

std::size_t raw_product(const ConfigSpace& space) {
  std::size_t n = 1;
  for (const auto& k : space.kinds()) n *= k.choices.size();
  return n;
}

void expect_same_answer(const core::Estimator& est, const ConfigSpace& space,
                        int n, Engine& engine, const std::string& ctx) {
  const core::Ranked oracle = core::best_exhaustive(est, space, n);
  const core::Ranked got = engine.best(est, space, n);
  EXPECT_EQ(got.config, oracle.config) << ctx;
  EXPECT_EQ(got.estimate, oracle.estimate) << ctx;
}

// ---- ConfigSpace indexing ------------------------------------------------

TEST(ConfigSpaceIndex, ConfigAtMatchesAllEnumeration) {
  const ConfigSpace space = ConfigSpace::ranges({
      ConfigSpace::KindRange{"a", 1, 3, 1, 2, true},
      ConfigSpace::KindRange{"b", 2, 4, 1, 1, true},
      ConfigSpace::KindRange{"c", 1, 1, 1, 3, false},
  });
  const std::vector<cluster::Config> all = space.all();
  ASSERT_EQ(space.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(space.config_at(i).to_string(), all[i].to_string()) << i;
  EXPECT_THROW(space.config_at(space.size()), Error);
}

TEST(ConfigSpaceIndex, SizeWithoutAbsentChoiceIsFullProduct) {
  const ConfigSpace space = ConfigSpace::ranges({
      ConfigSpace::KindRange{"a", 1, 2, 1, 2, false},
      ConfigSpace::KindRange{"b", 1, 3, 1, 1, false},
  });
  EXPECT_EQ(space.size(), 4u * 3u);  // nothing subtracted: no empty combo
  EXPECT_EQ(space.all().size(), space.size());
  for (std::size_t i = 0; i < space.size(); ++i)
    EXPECT_EQ(space.config_at(i).to_string(), space.all()[i].to_string());
}

TEST(ConfigSpaceIndex, ForClusterSpansEveryKind) {
  const cluster::ClusterSpec spec = cluster::paper_cluster();
  const ConfigSpace space = ConfigSpace::for_cluster(spec, 2);
  ASSERT_EQ(space.kinds().size(), spec.kind_names().size());
  EXPECT_EQ(space.size(), space.all().size());
  // Athlon: 1 PE available -> absent + 1 pes x 2 m = 3 choices;
  // Pentium-II: 8 PEs -> absent + 8 x 2 = 17 choices.
  EXPECT_EQ(space.size(), 3u * 17u - 1u);
}

TEST(ConfigSpaceIndex, ConstructorRejectsMalformedSpaces) {
  using Kinds = std::vector<ConfigSpace::KindOptions>;
  EXPECT_THROW(ConfigSpace(Kinds{}), Error);
  EXPECT_THROW(ConfigSpace(Kinds{{"a", {}}}), Error);
  EXPECT_THROW(ConfigSpace(Kinds{{"a", {{-1, 1}}}}), Error);
  EXPECT_THROW(ConfigSpace(Kinds{{"a", {{2, 0}}}}), Error);        // m < 1
  EXPECT_THROW(ConfigSpace(Kinds{{"a", {{0, 0}, {0, 0}}}}), Error);  // dup absent
  EXPECT_THROW(
      ConfigSpace::ranges({ConfigSpace::KindRange{"a", 0, 2, 1, 1, true}}),
      Error);
  EXPECT_THROW(
      ConfigSpace::ranges({ConfigSpace::KindRange{"a", 1, 2, 2, 1, true}}),
      Error);
}

// ---- Pruning -------------------------------------------------------------

TEST(EnginePrune, DominatedKindSubtreesAreCut) {
  // kind1 is 100x slower than kind0: every configuration using it is
  // bounded far above the fast-only optimum, so its whole subtrees die.
  const std::vector<std::string> names{"kind0", "kind1"};
  const cluster::ClusterSpec spec = spec_for(names, 4);
  const core::Estimator est = make_estimator(spec, {100.0, 10000.0}, 2);
  const ConfigSpace space = ConfigSpace::ranges({
      ConfigSpace::KindRange{"kind0", 1, 4, 1, 2, true},
      ConfigSpace::KindRange{"kind1", 1, 4, 1, 2, true},
  });

  EngineOptions opts;
  opts.threads = 1;  // deterministic visit order for the cut assertion
  // Smaller than the space's 81 rows: a space that fits one batch is
  // priced in one sweep at the root, with no tree to cut.
  opts.batch_leaves = 8;
  Engine engine(opts);
  expect_same_answer(est, space, 2000, engine, "pruned");
  const EngineStats st = engine.stats();
  EXPECT_GT(st.pruned, 0u);
  EXPECT_LT(st.visited, space.size());  // pruning saved estimator calls
  EXPECT_LE(st.visited + st.pruned, raw_product(space));

  // Pruning disabled: every candidate is priced.
  EngineOptions off = opts;
  off.prune = false;
  Engine full(off);
  expect_same_answer(est, space, 2000, full, "unpruned");
  EXPECT_EQ(full.stats().visited, space.size());
  EXPECT_EQ(full.stats().pruned, 0u);
}

TEST(EnginePrune, ParityUnderShrinkingAdjustmentMaps) {
  // Adjustment maps with a < 1 and b < 0 shrink estimates below the raw
  // bound; the engine must widen the bound accordingly (min over maps)
  // instead of over-pruning. A negative slope degenerates the bound to 0
  // (no cuts from that map) but must stay correct.
  const std::vector<std::string> names{"kind0", "kind1"};
  const cluster::ClusterSpec spec = spec_for(names, 3);
  for (const double a : {0.4, 1.1, -0.5}) {
    core::Estimator est = make_estimator(spec, {300.0, 900.0}, 2);
    est.add_adjustment("kind0", 1, core::LinearMap{a, -40.0});
    est.add_adjustment("kind1", 2, core::LinearMap{0.9, -10.0});
    const ConfigSpace space = ConfigSpace::ranges({
        ConfigSpace::KindRange{"kind0", 1, 3, 1, 2, true},
        ConfigSpace::KindRange{"kind1", 1, 3, 1, 2, true},
    });
    for (const std::size_t threads : {1u, 8u}) {
      EngineOptions opts;
      opts.threads = threads;
      Engine engine(opts);
      expect_same_answer(est, space, 1500, engine,
                         "a=" + std::to_string(a) +
                             " threads=" + std::to_string(threads));
    }
  }
}

TEST(EnginePrune, UncoveredKindIsCutExactly) {
  // kind1 has no models at all: its present-choices bound is +inf and
  // every leaf under them is uncovered, so cutting them is exact.
  const std::vector<std::string> names{"kind0", "kind1"};
  const cluster::ClusterSpec spec = spec_for(names, 3);
  core::EstimatorOptions eopts;
  eopts.check_memory = false;
  core::Estimator est(spec, eopts);
  for (int m = 1; m <= 2; ++m) {
    est.add_pt("kind0", m, fitted_pt(500.0 * (1 + 0.08 * m), 1.0));
    est.add_nt(core::NtKey{"kind0", 1, m},
               core::NtModel({0, 0, 0, 500.0 * (1 + 0.1 * m)}, {0, 0, 0.5}));
  }
  const ConfigSpace space = ConfigSpace::ranges({
      ConfigSpace::KindRange{"kind0", 1, 3, 1, 2, true},
      ConfigSpace::KindRange{"kind1", 1, 3, 1, 2, true},
  });

  EngineOptions opts;
  opts.threads = 1;
  opts.batch_leaves = 4;  // walk the tree: the space has 49 rows
  Engine engine(opts);
  expect_same_answer(est, space, 1200, engine, "uncovered kind");
  EXPECT_GT(engine.stats().pruned, 0u);

  // Serial ranking agrees too (the engine never invents candidates).
  const auto ranked = engine.rank_all(est, space, 1200);
  const auto serial = core::rank_all(est, space, 1200);
  ASSERT_EQ(ranked.size(), serial.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].config, serial[i].config) << i;
    EXPECT_EQ(ranked[i].estimate, serial[i].estimate) << i;
  }
}

TEST(EnginePrune, ParityWithMemoryBin) {
  // check_memory on: small-P configurations of a big problem page and
  // get penalized; the bound's min(1, penalty) factor must keep cuts
  // admissible through the penalty.
  const std::vector<std::string> names{"kind0", "kind1"};
  const cluster::ClusterSpec spec = spec_for(names, 4, 768 * kMiB);
  const core::Estimator est =
      make_estimator(spec, {200.0, 700.0}, 2, /*check_memory=*/true);
  const ConfigSpace space = ConfigSpace::ranges({
      ConfigSpace::KindRange{"kind0", 1, 4, 1, 2, true},
      ConfigSpace::KindRange{"kind1", 1, 4, 1, 2, true},
  });

  // Sanity: the paged regime is actually exercised at the large size
  // (one 768 MiB node cannot hold an N = 12000 problem).
  cluster::Config one_pe;
  one_pe.usage.push_back(cluster::KindUsage{"kind0", 1, 1});
  ASSERT_TRUE(est.covers(one_pe));
  EXPECT_TRUE(est.breakdown(one_pe, 12000).paged);

  for (const int n : {2000, 12000}) {
    for (const std::size_t threads : {1u, 8u}) {
      EngineOptions opts;
      opts.threads = threads;
      Engine engine(opts);
      expect_same_answer(est, space, n, engine,
                         "n=" + std::to_string(n) +
                             " threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace hetsched::search
