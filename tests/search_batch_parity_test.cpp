// Differential suite for the batched estimation hot path and the one
// argmin built on it. On randomized seeded fixtures (over a thousand
// candidate rows in total, including memory-bin and adjustment
// configurations), core::BatchEstimator must return the exact IEEE-754
// double Estimator::estimate returns — not "close", bitwise equal — and
// search::top_k must return exactly the front of core::rank_all
// filtered by `advise`'s constraints, with its `covered` count, for
// every thread count, steal setting and batch size. Any FP
// re-association in the SoA snapshot, any drift in the
// covers()/adjustment/paged semantics, any over-eager cut shows up here
// as a mismatch.
#include "core/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/pe_kind.hpp"
#include "core/optimizer.hpp"
#include "search/engine.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "support/work_steal.hpp"

namespace hetsched::core {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

PtModel fitted_pt(double work, double per_q) {
  std::vector<NtModel> models;
  std::vector<int> ps;
  for (const int p : {2, 4, 8}) {
    models.push_back(NtModel({0, 0, 0, work / p}, {0, 0, per_q * p}));
    ps.push_back(p);
  }
  const std::vector<double> ns{1000};
  return PtModel::fit(models, ps, ps, ns);
}

struct Fixture {
  Estimator est;
  ConfigSpace space;
};

/// Randomized estimator + space with every estimator feature in play:
/// missing models (uncovered rows), N-T bins, adjustment maps, and —
/// unlike the engine parity suite — the memory bin, with node memory
/// drawn small enough that a good fraction of candidates page.
Fixture random_fixture(Rng& rng, bool with_memory) {
  const int kinds = 1 + static_cast<int>(rng.uniform_index(3));
  const int max_pes = 2 + static_cast<int>(rng.uniform_index(3));
  const int max_m = 1 + static_cast<int>(rng.uniform_index(3));

  cluster::ClusterSpec spec;
  for (int k = 0; k < kinds; ++k) {
    cluster::PeKind kind = cluster::pentium2_400();
    kind.name = "kind" + std::to_string(k);
    for (int p = 0; p < max_pes; ++p) {
      cluster::NodeSpec node{kind, 1, 768 * kMiB};
      // Tight, uneven memories: some placements page, some do not, and
      // occasionally a node pages on the OS baseline alone.
      if (with_memory)
        node.memory = rng.uniform(40.0, 260.0) * kMiB;
      spec.nodes.push_back(node);
    }
  }
  if (with_memory) {
    spec.os_reserved = rng.uniform(16.0, 48.0) * kMiB;
    spec.proc_overhead = rng.uniform(4.0, 24.0) * kMiB;
  }

  EstimatorOptions opts;
  opts.check_memory = with_memory;
  if (with_memory) {
    opts.nb = 1 + static_cast<int>(rng.uniform_index(96));
    opts.paged_penalty = rng.uniform(1.5, 6.0);
  }
  opts.use_binning = rng.uniform() < 0.8;
  opts.use_adjustment = rng.uniform() < 0.8;
  opts.comm_uses_processors = rng.uniform() < 0.5;
  Estimator est(spec, opts);

  std::vector<ConfigSpace::KindRange> ranges;
  for (int k = 0; k < kinds; ++k) {
    const std::string name = "kind" + std::to_string(k);
    const double work = rng.uniform(100.0, 900.0);
    const double per_q = rng.uniform(0.5, 4.0);
    for (int m = 1; m <= max_m; ++m) {
      if (rng.uniform() > 0.15)
        est.add_pt(name, m, fitted_pt(work * (1 + 0.07 * m), per_q));
      if (rng.uniform() > 0.3)
        est.add_nt(NtKey{name, 1, m},
                   NtModel({0, 0, 0, work * (1 + 0.1 * m)}, {0, 0, 0.4 * m}));
    }
    if (rng.uniform() < 0.4)
      est.add_adjustment(name, 1 + static_cast<int>(rng.uniform_index(max_m)),
                         LinearMap{rng.uniform(0.7, 1.3),
                                   rng.uniform(-20.0, 20.0)});
    ranges.push_back(ConfigSpace::KindRange{name, 1, max_pes, 1, max_m,
                                            /*optional=*/true});
  }
  return Fixture{std::move(est), ConfigSpace::ranges(ranges)};
}

/// Runs every odometer row of `space` through both paths and asserts
/// bitwise equality; returns the number of rows compared.
std::size_t compare_all_rows(const Fixture& fx, int n,
                             const std::string& context) {
  const auto& kinds = fx.space.kinds();
  const std::size_t K = kinds.size();
  const BatchEstimator batch(fx.est, fx.space, n);
  BatchEstimator::Scratch scratch = batch.make_scratch();

  std::size_t rows = 1;
  for (const auto& k : kinds) rows *= k.choices.size();

  std::vector<std::size_t> idx(K, 0);
  std::size_t compared = 0;
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
      EXPECT_TRUE(std::isnan(got)) << context << " all-absent row";
    } else {
      if (!fx.est.covers(cfg)) {
        EXPECT_TRUE(std::isnan(got)) << context << " row=" << r
                                     << " cfg=" << cfg.to_string();
      } else {
        const Seconds want = fx.est.estimate(cfg, n);
        EXPECT_EQ(bits(want), bits(got))
            << context << " row=" << r << " cfg=" << cfg.to_string()
            << " want=" << want << " got=" << got;
      }
    }
    ++compared;
  }
  return compared;
}

TEST(BatchParity, BitIdenticalToScalarEstimatorOnRandomizedSpaces) {
  Rng rng(20260808);
  std::size_t total_cases = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const bool with_memory = trial % 2 == 1;
    const Fixture fx = random_fixture(rng, with_memory);
    const int n = 600 + static_cast<int>(rng.uniform_index(6)) * 700;
    total_cases += compare_all_rows(
        fx, n,
        "trial=" + std::to_string(trial) + " mem=" +
            std::to_string(with_memory) + " n=" + std::to_string(n));
  }
  // The differential contract is only as strong as its coverage: keep
  // the randomized sweep above a thousand compared rows.
  EXPECT_GE(total_cases, 1000u);
}

TEST(BatchParity, EstimateRowsMatchesRowAtATime) {
  Rng rng(41);
  const Fixture fx = random_fixture(rng, /*with_memory=*/true);
  const int n = 2000;
  const auto& kinds = fx.space.kinds();
  const std::size_t K = kinds.size();
  const BatchEstimator batch(fx.est, fx.space, n);

  std::size_t rows = 1;
  for (const auto& k : kinds) rows *= k.choices.size();
  std::vector<std::size_t> flat(rows * K);
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t odo = r;
    for (std::size_t k = 0; k < K; ++k) {
      flat[r * K + k] = odo % kinds[k].choices.size();
      odo /= kinds[k].choices.size();
    }
  }
  std::vector<Seconds> swept(rows);
  BatchEstimator::Scratch sa = batch.make_scratch();
  batch.estimate_rows(flat.data(), rows, swept.data(), sa);

  // A fresh scratch per row: scratch reuse across rows must be
  // invisible (the footprint reset really resets).
  for (std::size_t r = 0; r < rows; ++r) {
    BatchEstimator::Scratch sb = batch.make_scratch();
    const Seconds solo = batch.estimate_row(flat.data() + r * K, sb);
    EXPECT_EQ(bits(solo), bits(swept[r])) << "row=" << r;
  }
}

}  // namespace
}  // namespace hetsched::core

namespace hetsched::search {
namespace {

using core::ConfigSpace;

TEST(EngineBatchParity, ArgminUnchangedAcrossBatchAndStealingToggles) {
  Rng rng(777);
  for (int trial = 0; trial < 12; ++trial) {
    const core::Fixture fx =
        core::random_fixture(rng, /*with_memory=*/trial % 3 == 0);
    const int n = 1000 + static_cast<int>(rng.uniform_index(4)) * 800;
    bool covered = false;
    for (const auto& cfg : fx.space.all())
      if (fx.est.covers(cfg)) covered = true;
    if (!covered) continue;

    const core::Ranked oracle = core::best_exhaustive(fx.est, fx.space, n);
    const auto oracle_ranked = core::rank_all(fx.est, fx.space, n);

    for (const bool stealing : {false, true}) {
      for (const std::size_t batch_leaves : {std::size_t{4},
                                             std::size_t{256}}) {
        EngineOptions opts;
        opts.threads = 4;
        opts.batch_leaves = batch_leaves;
        opts.use_work_stealing = stealing;
        opts.debug_check_bounds = true;
        Engine engine(opts);
        const std::string ctx =
            "trial=" + std::to_string(trial) + " leaves=" +
            std::to_string(batch_leaves) + " steal=" +
            std::to_string(stealing);

        const core::Ranked got = engine.best(fx.est, fx.space, n);
        EXPECT_EQ(got.config, oracle.config) << ctx;
        EXPECT_EQ(got.estimate, oracle.estimate) << ctx;
        EXPECT_GT(engine.stats().batch_evals, 0u) << ctx;

        const auto ranked = engine.rank_all(fx.est, fx.space, n);
        ASSERT_EQ(ranked.size(), oracle_ranked.size()) << ctx;
        for (std::size_t i = 0; i < ranked.size(); ++i) {
          EXPECT_EQ(ranked[i].config, oracle_ranked[i].config)
              << ctx << " i=" << i;
          EXPECT_EQ(ranked[i].estimate, oracle_ranked[i].estimate)
              << ctx << " i=" << i;
        }
      }
    }
  }
}

TEST(EngineBatchParity, BatchedSweepVisitsEveryLeafWithPruningOff) {
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const core::Fixture fx =
        core::random_fixture(rng, /*with_memory=*/false);
    bool covered = false;
    for (const auto& cfg : fx.space.all())
      if (fx.est.covers(cfg)) covered = true;
    if (!covered) continue;
    EngineOptions opts;
    opts.prune = false;
    Engine engine(opts);
    (void)engine.best(fx.est, fx.space, 1000);
    // No pruning: every candidate is priced, all of them through the
    // batched sweep.
    EXPECT_EQ(engine.stats().visited, fx.space.size());
    EXPECT_EQ(engine.stats().batch_evals, fx.space.size());
  }
}


/// Whether `cfg` meets `q`'s constraints: no excluded kind, at most
/// max_total_procs processes.
bool feasible(const cluster::Config& cfg, const Query& q) {
  for (const auto& u : cfg.usage)
    for (const auto& x : q.exclude)
      if (u.kind == x) return false;
  return q.max_total_procs == 0 || cfg.total_procs() <= q.max_total_procs;
}

TEST(TopKParity, MatchesFilteredRankAllUnderConstraints) {
  // The oracle: core::rank_all (every covered candidate, ascending
  // estimate, ties in enumeration order) filtered by the constraints;
  // its length is the brute-force `covered` count. Every query runs
  // serially and over pools of one and four threads with stealing on
  // and off, with the bound sweep on and batches small enough that the
  // tree is walked and cut on most fixtures.
  support::WorkStealingPool one(1), four_steal(4, true), four_fixed(4, false);
  const std::vector<support::WorkStealingPool*> pools{nullptr, &one,
                                                      &four_steal, &four_fixed};
  Rng rng(20261019);
  std::size_t cases = 0, cut_cases = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const core::Fixture fx =
        core::random_fixture(rng, /*with_memory=*/trial % 2 == 1);
    const int n = 600 + static_cast<int>(rng.uniform_index(8)) * 500;
    const auto ranked = core::rank_all(fx.est, fx.space, n);
    const core::BatchEstimator batch(fx.est, fx.space, n);
    const auto& kinds = fx.space.kinds();
    int max_procs = 0;
    for (const auto& k : kinds) {
      int most = 0;
      for (const auto& [pes, m] : k.choices) most = std::max(most, pes * m);
      max_procs += most;
    }

    for (int qi = 0; qi < 8; ++qi) {
      Query q;
      const std::size_t tops[] = {1, 2, 3, 8, fx.space.size()};
      q.top = tops[rng.uniform_index(5)];
      for (const auto& k : kinds)
        if (rng.uniform() < 0.3) q.exclude.push_back(k.kind);
      if (rng.uniform() < 0.6)
        q.max_total_procs = 1 + static_cast<int>(rng.uniform_index(
                                    static_cast<std::size_t>(max_procs)));

      std::vector<core::Ranked> want;
      for (const auto& r : ranked)
        if (feasible(r.config, q)) want.push_back(r);
      const std::size_t covered = want.size();
      if (want.size() > q.top) want.resize(q.top);

      EngineOptions opts;
      opts.debug_check_bounds = true;
      const std::size_t leaves[] = {1, 4, 256};
      opts.batch_leaves = leaves[rng.uniform_index(3)];
      for (support::WorkStealingPool* pool : pools) {
        const std::string ctx =
            "trial=" + std::to_string(trial) + " q=" + std::to_string(qi) +
            " top=" + std::to_string(q.top) + " excluded=" +
            std::to_string(q.exclude.size()) + " procs<=" +
            std::to_string(q.max_total_procs) + " leaves=" +
            std::to_string(opts.batch_leaves) + " threads=" +
            std::to_string(pool ? pool->size() : 0) + " steal=" +
            std::to_string(pool ? pool->stealing() : false);
        const TopK got = top_k(fx.est, fx.space, batch, q, opts, pool);
        ++cases;
        if (got.stats.pruned > 0) ++cut_cases;
        EXPECT_EQ(got.covered, covered) << ctx;
        ASSERT_EQ(got.best.size(), want.size()) << ctx;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got.best[i].config, want[i].config) << ctx << " i=" << i;
          EXPECT_EQ(core::bits(got.best[i].estimate),
                    core::bits(want[i].estimate))
              << ctx << " i=" << i;
        }
      }
    }
  }
  EXPECT_GE(cases, 1000u);
  // The differential must exercise the cuts, not only full sweeps.
  EXPECT_GT(cut_cases, cases / 20);
}

}  // namespace
}  // namespace hetsched::search
