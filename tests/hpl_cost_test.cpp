#include "hpl/cost_engine.hpp"

#include <gtest/gtest.h>

#include "hpl/grid.hpp"
#include "support/error.hpp"

namespace hetsched::hpl {
namespace {

cluster::ClusterSpec quiet_cluster(
    cluster::MpiProfile mpi = cluster::mpich_122()) {
  cluster::ClusterSpec spec = cluster::paper_cluster(std::move(mpi));
  spec.noise_sigma = 0.0;
  return spec;
}

HplParams params_for(int n, std::uint64_t salt = 0) {
  HplParams p;
  p.n = n;
  p.nb = 64;
  p.seed_salt = salt;
  return p;
}

TEST(CostFormulas, PfactCubicInPanel) {
  EXPECT_GT(pfact_flops(1000, 64), pfact_flops(500, 64));
  EXPECT_NEAR(pfact_flops(1000, 64), 64.0 * 64 * (1000 - 64.0 / 3), 1.0);
  EXPECT_THROW(pfact_flops(10, 64), Error);  // rows < nb
}

TEST(CostFormulas, UpdateDominatedByGemm) {
  const double f = update_flops(1000, 64, 500);
  EXPECT_NEAR(f, 64.0 * 64 * 500 + 2.0 * (1000 - 64) * 64 * 500, 1.0);
  EXPECT_EQ(update_flops(1000, 64, 0), 0.0);
}

TEST(CostFormulas, TotalUpdateFlopsApproachLuFlops) {
  // Summing the per-step charges over all ranks must land near the
  // classic 2/3 N^3: the schedule accounts for the whole factorization.
  const int n = 1600, nb = 64, p = 4;
  Grid1xP g(n, nb, p);
  double total = 0;
  for (int k = 0; k < g.num_blocks(); ++k) {
    total += pfact_flops(g.panel_rows(k), g.block_width(k));
    for (int r = 0; r < p; ++r)
      total += update_flops(g.panel_rows(k), g.block_width(k),
                            g.local_cols_from(r, k + 1));
  }
  EXPECT_NEAR(total, 2.0 / 3.0 * static_cast<double>(n) * n * n,
              0.08 * 2.0 / 3.0 * static_cast<double>(n) * n * n);
}

TEST(CostEngine, SingleAthlonGflopsInPaperRange) {
  // Fig 1/3: a single Athlon delivers ~0.9-1.2 Gflops on mid-size N.
  const HplResult res =
      run_cost(quiet_cluster(), cluster::Config::paper(1, 1, 0, 0),
               params_for(3000));
  EXPECT_GT(res.gflops(), 0.8);
  EXPECT_LT(res.gflops(), 1.4);
}

TEST(CostEngine, PentiumAboutFourToFiveTimesSlower) {
  const HplResult ath = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 1, 0, 0), params_for(2400));
  const HplResult p2 = run_cost(
      quiet_cluster(), cluster::Config::paper(0, 0, 1, 1), params_for(2400));
  const double ratio = p2.makespan / ath.makespan;
  EXPECT_GT(ratio, 3.5);
  EXPECT_LT(ratio, 5.5);
}

TEST(CostEngine, ExecutionTimeGrowsSuperQuadratically) {
  const HplResult small = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 1, 0, 0), params_for(1600));
  const HplResult large = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 1, 0, 0), params_for(3200));
  const double ratio = large.makespan / small.makespan;
  EXPECT_GT(ratio, 6.0);   // cubic-ish
  EXPECT_LT(ratio, 10.0);
}

TEST(CostEngine, FivePentiumsBeatOnePentium) {
  const HplResult one = run_cost(
      quiet_cluster(), cluster::Config::paper(0, 0, 1, 1), params_for(3200));
  const HplResult five = run_cost(
      quiet_cluster(), cluster::Config::paper(0, 0, 5, 1), params_for(3200));
  EXPECT_LT(five.makespan, one.makespan / 2.5);
}

TEST(CostEngine, LoadImbalanceWastesTheAthlon) {
  // Fig 3(a): Ath x 1 + P2 x 4 with one process each is barely better than
  // P2 x 5 — the Athlon idles at synchronization points.
  const HplResult het = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 1, 4, 1), params_for(4800));
  const HplResult p2x5 = run_cost(
      quiet_cluster(), cluster::Config::paper(0, 0, 5, 1), params_for(4800));
  const double gain = p2x5.makespan / het.makespan;
  EXPECT_LT(gain, 1.6);  // nowhere near the 2x峰 peak-flops would suggest
}

TEST(CostEngine, MultiprocessingFixesImbalanceAtLargeN) {
  // Fig 3(b): at large N, running several processes on the Athlon
  // outperforms one process on it.
  const HplResult m1 = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 1, 8, 1), params_for(8000));
  const HplResult m3 = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 3, 8, 1), params_for(8000));
  EXPECT_LT(m3.makespan, m1.makespan);
}

TEST(CostEngine, MultiprocessingHurtsAtSmallN) {
  // Fig 3(b): at small N the multiprogramming overhead dominates and n=4
  // loses to n=1 (our substrate's crossover sits near N ~ 1000).
  const HplResult m1 = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 1, 4, 1), params_for(800));
  const HplResult m4 = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 4, 4, 1), params_for(800));
  EXPECT_GT(m4.makespan, m1.makespan);
}

TEST(CostEngine, Mpich121CrushesMultiprocessing) {
  // Fig 1: with the 1.2.1 loopback path, 4 processes on one Athlon are much
  // slower than with 1.2.2.
  const HplResult bad = run_cost(quiet_cluster(cluster::mpich_121()),
                                 cluster::Config::paper(1, 4, 0, 0),
                                 params_for(3000));
  const HplResult good = run_cost(quiet_cluster(cluster::mpich_122()),
                                  cluster::Config::paper(1, 4, 0, 0),
                                  params_for(3000));
  EXPECT_GT(bad.makespan, 1.15 * good.makespan);
}

TEST(CostEngine, PagingCliffAtN10000OnSingleAthlon) {
  // Fig 3(a): N = 10000 needs 800 MB > 768 MB on one node.
  const HplResult ok = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 1, 0, 0), params_for(8000));
  const HplResult paged = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 1, 0, 0), params_for(10000));
  EXPECT_GT(ok.gflops(), 0.8);
  EXPECT_LT(paged.gflops(), 0.2);
  // Five Pentium-II nodes hold the same problem comfortably (Fig 3(a)).
  const HplResult spread = run_cost(
      quiet_cluster(), cluster::Config::paper(0, 0, 5, 1), params_for(10000));
  EXPECT_GT(spread.gflops(), 0.5);
}

TEST(CostEngine, DetailedTimersConsistent) {
  const HplResult res = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 2, 8, 1), params_for(3200));
  ASSERT_EQ(res.ranks.size(), 10u);
  for (const auto& rt : res.ranks) {
    EXPECT_GE(rt.pfact, 0.0);
    EXPECT_GT(rt.update_core, 0.0);
    EXPECT_GT(rt.bcast, 0.0);
    EXPECT_GT(rt.uptrsv, 0.0);
    // Phase sum cannot exceed the wall time.
    EXPECT_LE(rt.tai() + rt.tci() + rt.uptrsv * 0.0, rt.wall * 1.0000001);
  }
  // Update dominates everything at this size (paper §3.2: ~100x).
  const auto& r0 = res.ranks[0];
  EXPECT_GT(r0.update_core, 10.0 * r0.pfact);
}

TEST(CostEngine, ByKindReportsBothKinds) {
  const cluster::ClusterSpec spec = quiet_cluster();
  const HplResult res =
      run_cost(spec, cluster::Config::paper(1, 2, 8, 1), params_for(1600));
  const auto kinds = res.by_kind(spec);
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0].kind, cluster::athlon_1330().name);
  EXPECT_GT(kinds[0].tai, 0.0);
  EXPECT_GT(kinds[1].tci, 0.0);
}

TEST(CostEngine, DeterministicAcrossRuns) {
  const HplResult a = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 2, 4, 1), params_for(1600, 5));
  const HplResult b = run_cost(
      quiet_cluster(), cluster::Config::paper(1, 2, 4, 1), params_for(1600, 5));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.ranks.size(); ++i)
    EXPECT_DOUBLE_EQ(a.ranks[i].update_core, b.ranks[i].update_core);
}

TEST(CostEngine, NoiseSaltChangesMeasurements) {
  cluster::ClusterSpec spec = cluster::paper_cluster();
  spec.noise_sigma = 0.02;
  const HplResult a =
      run_cost(spec, cluster::Config::paper(1, 1, 4, 1), params_for(1600, 1));
  const HplResult b =
      run_cost(spec, cluster::Config::paper(1, 1, 4, 1), params_for(1600, 2));
  EXPECT_NE(a.makespan, b.makespan);
  EXPECT_NEAR(a.makespan, b.makespan, 0.1 * a.makespan);
}

// Exact makespans, bit for bit, on the noisy paper cluster. Any change
// to the simulator's event order, arithmetic or message matching moves
// at least one of them. P-II 8x6 at N = 6400 is the heaviest run of the
// Basic campaign and the one with the most live mailboxes.
TEST(CostEngine, GoldenMakespans) {
  const cluster::ClusterSpec spec = cluster::paper_cluster();
  EXPECT_EQ(run_cost(spec, cluster::Config::paper(0, 0, 8, 6),
                     params_for(6400, 1))
                .makespan,
            0x1.3aa879208be1dp+7);
  EXPECT_EQ(run_cost(spec, cluster::Config::paper(1, 4, 0, 0),
                     params_for(2000, 1))
                .makespan,
            0x1.304085929cbdep+3);
  EXPECT_EQ(run_cost(spec, cluster::Config::paper(1, 3, 5, 2),
                     params_for(3200, 1))
                .makespan,
            0x1.a9610c9c56dcep+4);
}

TEST(CostEngine, InvalidParamsRejected) {
  EXPECT_THROW(run_cost(quiet_cluster(), cluster::Config::paper(1, 1, 0, 0),
                        params_for(0)),
               Error);
}

}  // namespace
}  // namespace hetsched::hpl
