// The one argmin: `top_k` answers Engine::best and the daemon's `advise`
// with the `top` best candidates by (estimate, enumeration index) under
// `advise`'s constraints, bit-identical to the serial core::rank_all
// filtered by them. A branch-and-bound over the per-kind choice tree
// with an incrementally carried admissible bound cuts a subtree only
// when its bound strictly exceeds the k-th best found so far; the
// constraints cut infeasible subtrees; subtrees of at most
// `batch_leaves` leaves are priced in one core::BatchEstimator sweep;
// tasks may fan out over a support::WorkStealingPool and merge
// serially (DESIGN.md §5 notes 11, 15 and 20). Engine also keeps the
// sharded (config, n) estimate memo (search/cache.hpp) of rank_all and
// try_estimate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/estimator.hpp"
#include "core/optimizer.hpp"
#include "search/cache.hpp"
#include "support/work_steal.hpp"

namespace hetsched::search {

struct EngineOptions {
  std::size_t threads = 0;     ///< pool size; 0 = hardware concurrency
  bool prune = true;           ///< branch-and-bound lower-bound cuts
  bool use_cache = true;       ///< memoize (config, n) estimates
  std::size_t cache_shards = 16;
  /// Estimate-cache capacity per shard; 0 = unbounded. Bounding it
  /// trades re-pricing for memory; watch `search.cache.evictions` (and
  /// `EstimateCache::stats()`) for thrash — see docs/OBSERVABILITY.md
  /// for the worked diagnosis.
  std::size_t cache_max_entries_per_shard = 0;
  /// Top-level subtree tasks generated per pool thread; more tasks =
  /// better balance, more scheduling overhead.
  std::size_t tasks_per_thread = 8;
  /// A subtree with at most `batch_leaves` (>= 1) remaining leaves is
  /// priced in one core::BatchEstimator sweep. Pruning *within* such a
  /// subtree is forgone (its root was already checked), which can only
  /// raise stats().visited, never change the answer.
  std::size_t batch_leaves = 256;
  /// Work stealing between the pool's per-context deques; off = fixed
  /// round-robin partitioning (the differential tests toggle this).
  bool use_work_stealing = true;
  /// Debug sweep: at every priced leaf, assert that the branch-and-bound
  /// lower bound along its path does not exceed the leaf's true
  /// estimate (admissibility — the property DESIGN.md §5 argues makes
  /// pruning exact); at every tree node, additionally assert that the
  /// incrementally maintained bound equals a from-scratch recomputation
  /// over the path's choices (the stolen-subtree contract: a chunk that
  /// migrated between contexts carries exactly the bound it would have
  /// been assigned serially). Costs one extra pass per node; off by
  /// default, turned on by the contract tests and available for field
  /// diagnosis of wrong-argmin reports.
  bool debug_check_bounds = false;
};

/// Counters from the last best()/rank_all() call (or one top_k). Engine
/// accumulates them process-wide into the `search.*` metrics
/// (hetsched::obs::snapshot()) across all engines and calls.
struct EngineStats {
  std::size_t candidates = 0;   ///< size of the searched space
  std::size_t visited = 0;      ///< leaves priced (from cache or estimator)
  std::size_t pruned = 0;       ///< leaves skipped by bound cuts
  std::size_t uncovered = 0;    ///< visited leaves the models cannot price
  std::size_t batch_evals = 0;  ///< leaves priced via the batched sweep
  std::uint64_t steals = 0;     ///< pool chunks migrated between contexts
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;  ///< entries displaced (bounded cache)
};

/// What `advise` asks for (docs/SERVER.md §4.3): the `top` best
/// candidates that use none of the `exclude`d kinds and run at most
/// `max_total_procs` processes (0 = no limit).
struct Query {
  std::size_t top = 1;
  std::vector<std::string> exclude;
  int max_total_procs = 0;
};

struct TopK {
  std::vector<core::Ranked> best;  ///< at most `top`, in answer order
  std::size_t covered = 0;  ///< feasible candidates the models cover
  EngineStats stats;        ///< its cache counters stay zero
};

/// Answers `query` at `batch.n()`, pricing leaves only through `batch`
/// (a snapshot of `est` over `space`; `est` gives the bounds), over
/// `pool` when given, else on the calling thread. Reentrant. O(tree
/// minus pruned and infeasible subtrees), O(space.size()) at worst.
TopK top_k(const core::Estimator& est, const core::ConfigSpace& space,
           const core::BatchEstimator& batch, const Query& query,
           const EngineOptions& opts = {},
           support::WorkStealingPool* pool = nullptr);

/// Parallel branch-and-bound configuration search.
///
/// Thread-safety: an Engine owns one thread pool and one cache; its
/// search entry points (best / rank_all / try_estimate) are *not*
/// reentrant — issue them from one thread at a time (the pool
/// parallelizes internally). Distinct Engine instances are fully
/// independent.
///
/// Complexity: best() visits the candidate tree minus pruned subtrees —
/// O(space.size()) worst case, typically ≪ (the `search.nodes_pruned`
/// metric and stats().pruned report the savings); rank_all() is
/// Θ(space.size()) estimates plus an O(k log k) sort of the covered k.
class Engine {
 public:
  /// Throws unless opts.batch_leaves >= 1.
  explicit Engine(EngineOptions opts = {});

  /// The argmin configuration — config *and* estimate exactly equal to
  /// core::best_exhaustive's answer: top_k over the engine's pool with
  /// a BatchEstimator built for the call. Throws if no candidate is
  /// covered. Emits a "search/best" trace span and accumulates
  /// `search.*` metrics.
  core::Ranked best(const core::Estimator& est,
                    const core::ConfigSpace& space, int n);

  /// All covered candidates sorted by estimate (ties in enumeration
  /// order) — element-wise equal to core::rank_all. Evaluated in
  /// parallel, served from the cache where possible. Emits a
  /// "search/rank_all" trace span.
  std::vector<core::Ranked> rank_all(const core::Estimator& est,
                                     const core::ConfigSpace& space, int n);

  /// Cached single-candidate estimate; nullopt if the models do not
  /// cover `config`. Does not reset stats().
  std::optional<Seconds> try_estimate(const core::Estimator& est,
                                      const cluster::Config& config, int n);

  /// Counters of the most recent best()/rank_all() on this engine.
  const EngineStats& stats() const { return stats_; }
  EstimateCache& cache() { return cache_; }
  support::WorkStealingPool& pool() { return pool_; }
  const EngineOptions& options() const { return opts_; }

 private:
  /// Estimate of `config`, through the cache when enabled; NaN when the
  /// models do not cover it.
  Seconds priced(const core::Estimator& est, const cluster::Config& config,
                 int n);

  EngineOptions opts_;
  support::WorkStealingPool pool_;
  EstimateCache cache_;
  EngineStats stats_;
};

}  // namespace hetsched::search
