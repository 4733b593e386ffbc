// Stress coverage (the `stress` CTest label — the TSan CI leg runs it)
// for the work-stealing search path and the estimate cache:
//
//  * Repeated best() sweeps on an oversubscribed stealing pool must
//    return bit-identical (config, estimate) every time, with the
//    debug bound sweep on — the stolen-subtree contract (an
//    incrementally carried bound equals the from-scratch recomputation
//    no matter which context resumed the subtree) asserts inside.
//  * search::top_k is reentrant: threads sharing one estimator and one
//    batch snapshot, the way the daemon's request threads answer
//    `advise`, get the answers a lone caller gets.
//  * EstimateCache::stats() must be a *consistent* snapshot under
//    concurrent hammering: per-shard rows summing to the global atomics
//    is exactly the invariant the old one-shard-at-a-time reader
//    violated.
#include "search/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cluster/pe_kind.hpp"
#include "core/batch.hpp"
#include "core/optimizer.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace hetsched::search {
namespace {

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

struct Fixture {
  core::Estimator est;
  core::ConfigSpace space;
};

/// A mid-size fixture (3 kinds, thousands of candidates) with uneven
/// per-kind work so pruning is lopsided and stealing actually migrates
/// subtrees.
Fixture stress_fixture() {
  const int kinds = 3, max_pes = 5, max_m = 3;
  cluster::ClusterSpec spec;
  for (int k = 0; k < kinds; ++k) {
    cluster::PeKind kind = cluster::pentium2_400();
    kind.name = "kind" + std::to_string(k);
    for (int p = 0; p < max_pes; ++p)
      spec.nodes.push_back(cluster::NodeSpec{kind, 1, 768 * kMiB});
  }
  core::EstimatorOptions opts;
  opts.check_memory = false;
  core::Estimator est(spec, opts);
  std::vector<core::ConfigSpace::KindRange> ranges;
  for (int k = 0; k < kinds; ++k) {
    const std::string name = "kind" + std::to_string(k);
    const double work = 200.0 * (k + 1) * (k + 1);  // uneven: prune skew
    for (int m = 1; m <= max_m; ++m) {
      est.add_pt(name, m, fitted_pt(work * (1 + 0.07 * m), 1.5));
      est.add_nt(core::NtKey{name, 1, m},
                 core::NtModel({0, 0, 0, work * (1 + 0.1 * m)}, {0, 0, 0.4}));
    }
    est.add_adjustment(name, 1, core::LinearMap{0.95, 3.0});
    ranges.push_back(core::ConfigSpace::KindRange{name, 1, max_pes, 1, max_m,
                                                  /*optional=*/true});
  }
  return Fixture{std::move(est), core::ConfigSpace::ranges(ranges)};
}

TEST(StealStress, RepeatedSweepsBitIdenticalUnderOversubscribedStealing) {
  const Fixture fx = stress_fixture();
  EngineOptions opts;
  opts.threads = 2 * std::thread::hardware_concurrency();
  opts.use_work_stealing = true;
  opts.batch_leaves = 16;
  opts.tasks_per_thread = 4;
  opts.debug_check_bounds = true;  // stolen-subtree bound contract
  Engine engine(opts);

  const core::Ranked first = engine.best(fx.est, fx.space, 3200);
  const core::Ranked oracle = core::best_exhaustive(fx.est, fx.space, 3200);
  EXPECT_EQ(first.config, oracle.config);
  EXPECT_EQ(first.estimate, oracle.estimate);
  for (int rep = 0; rep < 20; ++rep) {
    const core::Ranked again = engine.best(fx.est, fx.space, 3200);
    ASSERT_EQ(again.config, first.config) << "rep=" << rep;
    ASSERT_EQ(again.estimate, first.estimate) << "rep=" << rep;
  }
}

TEST(StealStress, StealingAndFixedPartitioningAgreeBitwise) {
  const Fixture fx = stress_fixture();
  EngineOptions steal_opts;
  steal_opts.threads = 8;
  steal_opts.use_work_stealing = true;
  EngineOptions fixed_opts = steal_opts;
  fixed_opts.use_work_stealing = false;
  Engine stealer(steal_opts), fixed(fixed_opts);
  for (const int n : {1000, 3200, 6400}) {
    const core::Ranked a = stealer.best(fx.est, fx.space, n);
    const core::Ranked b = fixed.best(fx.est, fx.space, n);
    EXPECT_EQ(a.config, b.config) << "n=" << n;
    EXPECT_EQ(a.estimate, b.estimate) << "n=" << n;
  }
  EXPECT_EQ(fixed.stats().steals, 0u);
}

TEST(StealStress, TopKIsReentrantAcrossThreads) {
  const Fixture fx = stress_fixture();
  const core::BatchEstimator batch(fx.est, fx.space, 3200);
  std::vector<Query> queries(4);
  queries[1].top = 3;
  queries[2].top = 5;
  queries[2].exclude = {"kind1"};
  queries[3].top = 2;
  queries[3].max_total_procs = 9;
  EngineOptions opts;
  opts.batch_leaves = 8;  // walk the tree
  std::vector<TopK> lone;
  for (const Query& q : queries)
    lone.push_back(top_k(fx.est, fx.space, batch, q, opts));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 25; ++rep) {
        const std::size_t qi =
            static_cast<std::size_t>(t + rep) % queries.size();
        const TopK got = top_k(fx.est, fx.space, batch, queries[qi], opts);
        bool same = got.covered == lone[qi].covered &&
                    got.best.size() == lone[qi].best.size();
        for (std::size_t i = 0; same && i < got.best.size(); ++i)
          same = got.best[i].config == lone[qi].best[i].config &&
                 got.best[i].estimate == lone[qi].best[i].estimate;
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(StealStress, CacheStatsSnapshotIsConsistentUnderConcurrency) {
  // Writers hammer lookups and inserts (both update a shard row and the
  // global counter under the same shard lock); the reader repeatedly
  // takes stats() snapshots. Every snapshot must balance: sum of shard
  // rows == global atomics. The pre-fix shard_stats() read one shard at
  // a time, so operations slipping between rows made the sum drift from
  // the globals under exactly this load.
  EstimateCache cache(8, /*max_entries_per_shard=*/32);
  std::atomic<bool> stop{false};
  const int writers = 4;
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&cache, &stop, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Built piecewise: GCC 12 reports a -Wrestrict false positive
        // on the equivalent `"k" + std::to_string(w) + ...` chain.
        std::string key = "k";
        key += std::to_string(w);
        key += '_';
        key += std::to_string(i % 512);
        if (!cache.lookup(key)) cache.insert(key, static_cast<double>(i));
        ++i;
      }
    });
  }
  // Keep snapshotting until the writers have demonstrably interleaved
  // with plenty of snapshots (2000 balanced reads AND >= 10k cache
  // operations observed) — a fast reader must not finish before the
  // writer threads are even scheduled.
  std::size_t balanced = 0;
  while (true) {
    const EstimateCache::Stats st = cache.stats();
    ASSERT_EQ(st.total.hits, st.global_hits) << "round=" << balanced;
    ASSERT_EQ(st.total.misses, st.global_misses) << "round=" << balanced;
    ASSERT_EQ(st.total.evictions, st.global_evictions)
        << "round=" << balanced;
    ++balanced;
    if (balanced >= 2000 && st.total.hits + st.total.misses >= 10000) break;
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  EXPECT_GE(balanced, 2000u);
  // And the final quiescent snapshot still balances, with activity
  // having actually happened.
  const EstimateCache::Stats st = cache.stats();
  EXPECT_GT(st.total.hits + st.total.misses, 0u);
  EXPECT_EQ(st.total.hits, st.global_hits);
  EXPECT_EQ(st.total.misses, st.global_misses);
  EXPECT_EQ(st.total.evictions, st.global_evictions);
}

}  // namespace
}  // namespace hetsched::search
