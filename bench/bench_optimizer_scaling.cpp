// Extension bench (paper §5 future work): search-space reduction.
//
// The paper enumerates all candidates (62 on its cluster) and notes that
// larger clusters need heuristics. This bench grows a synthetic candidate
// space (more PE kinds, wider PE/process ranges) and compares three
// searches for the argmin:
//
//  * serial exhaustive enumeration (core::best_exhaustive, the oracle),
//  * the parallel pruned engine (search::Engine — branch-and-bound over
//    a thread pool with batched leaf sweeps, bit-identical answer),
//  * coordinate hill-climbing (core::best_greedy, approximate).
#include <chrono>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "obs/io.hpp"
#include "search/engine.hpp"
#include "support/error.hpp"

using namespace hetsched;

namespace {

// A synthetic convex-ish estimator over `kinds` PE kinds spanning a wide
// heterogeneous speed range — each generation 3x slower than the last, the
// shape that makes old PE kinds *dominated* (the regime where the pruner
// earns its keep); communication cost grows with Q.
core::Estimator synthetic_estimator(const cluster::ClusterSpec& spec,
                                    int kinds, int max_pes, int max_m) {
  core::EstimatorOptions opts;
  opts.check_memory = false;
  core::Estimator est(spec, opts);
  for (int k = 0; k < kinds; ++k) {
    const std::string name = "kind" + std::to_string(k);
    const double slow = std::pow(3.0, k);
    for (int m = 1; m <= max_m; ++m) {
      est.add_nt(core::NtKey{name, 1, m},
                 core::NtModel({0, 0, 0, 400.0 * slow * (1 + 0.08 * m)},
                               {0, 0, 0.5 * m}));
      std::vector<core::NtModel> models;
      std::vector<int> ps, qs;
      for (const int pes : {2, 4, max_pes}) {
        const int p = pes * m;
        models.push_back(core::NtModel(
            {0, 0, 0, 400.0 * slow * (1 + 0.08 * m) / p}, {0, 0, 1.2 * pes}));
        ps.push_back(p);
        qs.push_back(pes);
      }
      const std::vector<double> ns{1000};
      est.add_pt(name, m, core::PtModel::fit(models, ps, qs, ns));
    }
  }
  return est;
}

cluster::ClusterSpec synthetic_spec(int kinds, int max_pes) {
  cluster::ClusterSpec spec;
  for (int k = 0; k < kinds; ++k) {
    cluster::PeKind kind = cluster::pentium2_400();
    kind.name = "kind" + std::to_string(k);
    for (int p = 0; p < max_pes; ++p)
      spec.nodes.push_back(cluster::NodeSpec{kind, 1, 768 * kMiB});
  }
  return spec;
}

core::ConfigSpace synthetic_space(int kinds, int max_pes, int max_m) {
  std::vector<core::ConfigSpace::KindRange> ranges;
  for (int k = 0; k < kinds; ++k)
    ranges.push_back(core::ConfigSpace::KindRange{
        "kind" + std::to_string(k), 1, max_pes, 1, max_m, true});
  return core::ConfigSpace::ranges(ranges);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_optimizer_scaling");
  if (argc > 1) {
    std::cerr << "usage: bench_optimizer_scaling " << obs::cli_help() << "\n";
    return 1;
  }
  std::cout << "Paper §5: 'for larger clusters, it is essential to find a "
               "way to reduce the search space'. Serial exhaustive vs the "
               "parallel pruned engine vs greedy hill-climbing:\n";
  print_banner(std::cout,
               "Optimizer scaling — exhaustive vs pruned engine vs greedy");

  search::Engine engine;  // default: hardware threads, pruning
  std::cout << "engine pool: " << engine.pool().size() << " thread(s)\n";

  Table t({"kinds", "space size", "serial [ms]", "engine [ms]", "speedup",
           "pruned %", "re-run [ms]", "greedy evals", "same argmin"});
  for (const int kinds : {2, 3, 4}) {
    const int max_pes = 6, max_m = 4;
    const cluster::ClusterSpec spec = synthetic_spec(kinds, max_pes);
    const core::Estimator est =
        synthetic_estimator(spec, kinds, max_pes, max_m);
    const core::ConfigSpace space = synthetic_space(kinds, max_pes, max_m);

    const auto t0 = std::chrono::steady_clock::now();
    const core::Ranked exact = core::best_exhaustive(est, space, 4000);
    const double serial_ms = ms_since(t0);

    const auto t1 = std::chrono::steady_clock::now();
    const core::Ranked fast = engine.best(est, space, 4000);
    const double engine_ms = ms_since(t1);
    const search::EngineStats stats = engine.stats();

    const auto t2 = std::chrono::steady_clock::now();
    const core::Ranked again = engine.best(est, space, 4000);
    const double rerun_ms = ms_since(t2);

    const core::GreedyResult greedy = core::best_greedy(est, space, 4000);

    const bool same = fast.config == exact.config &&
                      fast.estimate == exact.estimate &&
                      again.config == exact.config;
    t.row()
        .integer(kinds)
        .integer(static_cast<long long>(space.size()))
        .num(serial_ms, 1)
        .num(engine_ms, 1)
        .num(serial_ms / engine_ms, 1)
        .num(100.0 * static_cast<double>(stats.pruned) /
                 static_cast<double>(space.size()),
             1)
        .num(rerun_ms, 1)
        .integer(static_cast<long long>(greedy.evaluations))
        .cell(same ? "yes" : "NO");
  }
  t.print(std::cout);
  std::cout
      << "\n  the engine prices only the subtrees whose optimistic bound "
         "(per-kind Tai + Tci, each minimized over the process/processor "
         "counts the space can still reach) can still beat the incumbent, "
         "in parallel, and "
         "returns the serial answer bit-identically; the re-run repeats "
         "the same search (each call builds its own batch snapshot, no "
         "memo is reused), so it shows the run-to-run spread. Greedy "
         "remains the cheap approximate fallback.\n";

  // ---- the million-candidate scenario -----------------------------------
  // 6 kinds x (3 PEs x 3 m + absent) = 10^6 odometer rows, 999 999
  // candidates. This is the scale the batched SoA hot path exists for:
  // the branch-and-bound tree is walked with incremental bounds, every
  // surviving subtree is priced through core::BatchEstimator with zero
  // per-leaf allocation, and the work-stealing pool rebalances the
  // lopsided pruning. The serial oracle enumerates all million once to
  // pin the argmin bit-identically.
  {
    const int kinds = 6, max_pes = 3, max_m = 3;
    const cluster::ClusterSpec spec = synthetic_spec(kinds, max_pes);
    const core::Estimator est =
        synthetic_estimator(spec, kinds, max_pes, max_m);
    const core::ConfigSpace space = synthetic_space(kinds, max_pes, max_m);
    std::cout << "\nMillion-candidate space (" << kinds << " kinds, "
              << space.size() << " candidates):\n";

    const auto t0 = std::chrono::steady_clock::now();
    const core::Ranked exact = core::best_exhaustive(est, space, 4000);
    const double serial_ms = ms_since(t0);

    search::EngineOptions mopts;  // batching + stealing on (defaults)
    search::Engine mengine(mopts);
    const auto t1 = std::chrono::steady_clock::now();
    const core::Ranked fast = mengine.best(est, space, 4000);
    const double engine_ms = ms_since(t1);
    const search::EngineStats stats = mengine.stats();

    const bool same =
        fast.config == exact.config && fast.estimate == exact.estimate;
    const double pruned_frac = static_cast<double>(stats.pruned) /
                               static_cast<double>(space.size());
    const double batched_frac =
        stats.visited > 0 ? static_cast<double>(stats.batch_evals) /
                                static_cast<double>(stats.visited)
                          : 0.0;
    Table m({"space size", "serial [ms]", "engine [ms]", "speedup",
             "pruned %", "batched %", "steals", "same argmin"});
    m.row()
        .integer(static_cast<long long>(space.size()))
        .num(serial_ms, 1)
        .num(engine_ms, 1)
        .num(serial_ms / engine_ms, 1)
        .num(100.0 * pruned_frac, 1)
        .num(100.0 * batched_frac, 1)
        .integer(static_cast<long long>(stats.steals))
        .cell(same ? "yes" : "NO");
    m.print(std::cout);
    HETSCHED_CHECK(same,
                   "bench_optimizer_scaling: million-candidate engine argmin "
                   "diverged from the serial oracle");

    // Pruning cuts this landscape almost entirely (dominated kinds die
    // at the root), so the argmin run barely touches the batch path.
    // The full-sweep run disables pruning and prices every one of the
    // million leaves through the SoA sweep — the raw throughput of the
    // batched hot path, and the number that regresses if a per-leaf
    // allocation ever creeps back in.
    search::EngineOptions sweep_opts;
    sweep_opts.prune = false;
    sweep_opts.use_cache = false;
    search::Engine sweeper(sweep_opts);
    const auto t2 = std::chrono::steady_clock::now();
    const core::Ranked swept = sweeper.best(est, space, 4000);
    const double sweep_ms = ms_since(t2);
    const search::EngineStats sweep_stats = sweeper.stats();
    const bool sweep_same =
        swept.config == exact.config && swept.estimate == exact.estimate;
    std::cout << "  full batched sweep (pruning off): " << sweep_ms
              << " ms for " << sweep_stats.visited << " leaves ("
              << sweep_stats.batch_evals << " batched), argmin "
              << (sweep_same ? "identical" : "DIVERGED") << "\n";
    HETSCHED_CHECK(sweep_same,
                   "bench_optimizer_scaling: full-sweep argmin diverged "
                   "from the serial oracle");

    // Report scalars for the CI regression gate (docs/OBSERVABILITY.md
    // §8): wall times are guarded by the 10x hang rule; the pruned /
    // batched fractions are informational (cost-class) but committed
    // with the baseline so drifts are visible in `hetsched_report diff`.
    bench::record_scalar("search.scaling.1m.wall_s", engine_ms / 1000.0);
    bench::record_scalar("search.scaling.1m.sweep.wall_s",
                         sweep_ms / 1000.0);
    bench::record_scalar("cost.search.scaling.1m.pruned_frac", pruned_frac);
    bench::record_scalar("cost.search.scaling.1m.batched_frac", batched_frac);
    std::cout << "\n  one SoA sweep prices the unpruned leaves with zero "
                 "per-leaf allocation; the argmin and its estimate are "
                 "bit-identical to the serial enumeration above.\n";
  }
  return 0;
}
