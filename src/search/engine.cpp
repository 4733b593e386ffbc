#include "search/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "obs/hooks.hpp"
#include "support/error.hpp"
#include "support/thread_annotations.hpp"

namespace hetsched::search {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void atomic_min(std::atomic<double>& a, double v) {
  HETSCHED_ATOMIC_DOC(relaxed, "advisory pruning bound: a stale value only "
                               "weakens cuts, never correctness (the final "
                               "reduction is serial and deterministic)");
  double cur = a.load(std::memory_order_relaxed);
  HETSCHED_ATOMIC_DOC(relaxed, "same advisory bound; no payload is "
                               "published through this CAS");
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Accumulates one sweep's EngineStats into the process-wide `search.*`
// metrics (cross-engine, cross-call totals; see docs/OBSERVABILITY.md).
// `st` is unused under HETSCHED_OBS=OFF, where the hooks compile away.
void flush_stats_to_metrics([[maybe_unused]] const EngineStats& st) {
  HETSCHED_COUNTER_ADD("search.nodes_visited", st.visited);
  HETSCHED_COUNTER_ADD("search.nodes_pruned", st.pruned);
  HETSCHED_COUNTER_ADD("search.nodes_uncovered", st.uncovered);
  HETSCHED_COUNTER_ADD("search.batch_evals", st.batch_evals);
  HETSCHED_COUNTER_ADD("search.steal_count", st.steals);
  HETSCHED_COUNTER_ADD("search.cache.hits", st.cache_hits);
  HETSCHED_COUNTER_ADD("search.cache.misses", st.cache_misses);
  HETSCHED_COUNTER_ADD("search.cache.evictions", st.cache_evictions);
}

/// A priced candidate and its raw odometer rank (kind 0 fastest, the
/// all-absent row included), which orders like the enumeration index.
struct Hit {
  Seconds t;
  std::size_t rank;
};

/// The answer order: ascending estimate, ties in enumeration order.
constexpr auto before = [](const Hit& a, const Hit& b) {
  return a.t < b.t || (a.t == b.t && a.rank < b.rank);
};

/// Per-(kind, choice) admissible bounds, already transformed, and the
/// depth-first kind order.
struct Bounds {
  std::vector<std::vector<double>> blb;
  double zero = 0.0;  ///< the envelope at a raw bound of 0
  std::vector<std::size_t> order;
};

Bounds bounds_for(const core::Estimator& est, const core::ConfigSpace& space,
                  int n, int limit) {
  const auto& kinds = space.kinds();
  const std::size_t K = kinds.size();
  const double nn = n;
  const core::EstimatorOptions& eo = est.options();

  // Per-kind extremes of the choice lists, for the feasible (P, Q)
  // intervals below. A kind's processes count toward every kind's Tai
  // (the estimator evaluates Tai at the config's *total* process count),
  // and its processors toward every Tci. A feasible completion runs at
  // most `limit` processes, and Q counts its PEs or its processes, so
  // both intervals end at `limit` too.
  std::vector<int> kind_max_procs(K, 0), kind_min_procs(K, 0);
  std::vector<int> kind_max_pes(K, 0), kind_min_pes(K, 0);
  for (std::size_t k = 0; k < K; ++k) {
    int mx_procs = 0, mn_procs = std::numeric_limits<int>::max();
    int mx_pes = 0, mn_pes = std::numeric_limits<int>::max();
    for (const auto& [pes, m] : kinds[k].choices) {
      mx_procs = std::max(mx_procs, pes * m);
      mn_procs = std::min(mn_procs, pes * m);
      mx_pes = std::max(mx_pes, pes);
      mn_pes = std::min(mn_pes, pes);
    }
    kind_max_procs[k] = mx_procs;
    kind_min_procs[k] = mn_procs;
    kind_max_pes[k] = mx_pes;
    kind_min_pes[k] = mn_pes;
  }
  const auto sum = [](const std::vector<int>& v) {
    return std::accumulate(v.begin(), v.end(), 0);
  };
  const int tot_max_procs = sum(kind_max_procs);
  const int tot_min_procs = sum(kind_min_procs);
  const int tot_max_pes = sum(kind_max_pes);
  const int tot_min_pes = sum(kind_min_pes);

  // Admissible per-(kind, choice) lower bound on the config total
  // max_i (Tai + Tci): any completion containing the choice pays at
  // least this kind's clamped Tai + Tci, each minimized independently
  // over the (P, Q) the space can still reach given the choice.
  //  * Tai(N, P) = k7 A(N)/P + k8 is monotone in P — minimum at an
  //    endpoint of [own + others_min, own + others_max].
  //  * Tci(N, Q) = aQ + b/Q + c is convex for a, b > 0 (minimum at
  //    Q* = sqrt(b/a), clamped to the feasible interval) and monotone
  //    otherwise — minimum again at an endpoint.
  // Where the exact N-T bin could serve a single-kind completion, that
  // completion's value caps the bound (min of both bins). +inf marks a
  // choice no model can price: every leaf under it is uncovered, so
  // cutting it is exact as well.
  std::vector<std::vector<double>> lb(K);
  for (std::size_t k = 0; k < K; ++k) {
    lb[k].resize(kinds[k].choices.size(), 0.0);
    for (std::size_t c = 0; c < kinds[k].choices.size(); ++c) {
      const auto [pes, m] = kinds[k].choices[c];
      if (pes <= 0) continue;  // absent contributes nothing
      double b = kInf;
      if (eo.use_binning) {
        if (const core::NtModel* nt =
                est.nt(core::NtKey{kinds[k].kind, pes, m}))
          b = std::min(b, std::max(0.0, nt->tai(nn) + nt->tci(nn)));
      }
      if (const core::PtModel* pt = est.pt(kinds[k].kind, m)) {
        const double own_procs = static_cast<double>(pes) * m;
        const double p_lo = own_procs + (tot_min_procs - kind_min_procs[k]);
        const double p_hi = std::min<double>(
            limit, own_procs + (tot_max_procs - kind_max_procs[k]));
        const double tai = std::min(pt->tai(nn, p_lo), pt->tai(nn, p_hi));

        const double own_q =
            eo.comm_uses_processors ? static_cast<double>(pes) : own_procs;
        const double q_lo =
            own_q + (eo.comm_uses_processors
                         ? tot_min_pes - kind_min_pes[k]
                         : tot_min_procs - kind_min_procs[k]);
        const double q_hi = std::min<double>(
            limit, own_q + (eo.comm_uses_processors
                                ? tot_max_pes - kind_max_pes[k]
                                : tot_max_procs - kind_max_procs[k]));
        double tci = std::min(pt->tci(nn, q_lo), pt->tci(nn, q_hi));
        const core::PtModel::State st = pt->state();
        const double cn = st.c_base.tci(nn);
        const double alpha = st.comm_scale * st.kc[0] * cn;
        const double beta = st.comm_scale * st.kc[1] * cn;
        if (alpha > 0 && beta > 0) {
          const double q_star = std::sqrt(beta / alpha);
          if (q_star > q_lo && q_star < q_hi)
            tci = std::min(tci, pt->tci(nn, q_star));
        }
        b = std::min(b, std::max(0.0, tai) + std::max(0.0, tci));
      }
      lb[k][c] = b;
    }
  }

  // The raw bound survives the estimator's later transforms only if we
  // account for them: an anchor adjustment a*t + b with a < 1 (or b < 0)
  // can shrink the total, and the transform actually applied depends on
  // the completion. Taking the min over identity and every fitted map
  // keeps the bound admissible; the paged multiplier is >= 1 in sane
  // setups, min(1, penalty) guards the degenerate case.
  std::vector<std::pair<double, double>> maps;
  if (eo.use_adjustment)
    for (const auto& e : est.adjust_entries())
      maps.emplace_back(e.map.a, e.map.b);
  const double paged_factor =
      eo.check_memory ? std::min(1.0, eo.paged_penalty) : 1.0;
  const auto bound = [&](double raw) {
    double b = raw;
    for (const auto& [a, c] : maps)
      b = std::min(b, a >= 0 ? std::max(0.0, a * raw + c) : 0.0);
    return paged_factor * b;
  };

  // Incremental bound tables: the transform envelope `bound` is
  // monotone nondecreasing over the raw per-choice bounds (every
  // candidate map has a >= 0), so bound(max_k raw_k) == max_k
  // bound(raw_k) — the DFS therefore carries the *transformed* bound
  // and extends it with one std::max per child instead of re-applying
  // the map loop at every node (DESIGN.md §5 note 15).
  Bounds out;
  out.blb.resize(K);
  for (std::size_t k = 0; k < K; ++k) {
    out.blb[k].resize(lb[k].size(), 0.0);
    for (std::size_t c = 0; c < lb[k].size(); ++c)
      out.blb[k][c] = bound(lb[k][c]);
  }
  out.zero = bound(0.0);

  // DFS kind order: slowest kinds (largest achievable bound, i.e. worst
  // per-process throughput) first, so the running bound rises early and
  // subtrees die before they branch.
  out.order.resize(K);
  std::iota(out.order.begin(), out.order.end(), std::size_t{0});
  std::vector<double> score(K, 0.0);
  for (std::size_t k = 0; k < K; ++k)
    for (const double b : lb[k])
      if (std::isfinite(b)) score[k] = std::max(score[k], b);
  std::stable_sort(out.order.begin(), out.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return score[a] > score[b];
                   });
  return out;
}

}  // namespace

TopK top_k(const core::Estimator& est, const core::ConfigSpace& space,
           const core::BatchEstimator& batch, const Query& query,
           const EngineOptions& opts, support::WorkStealingPool* pool) {
  const auto& kinds = space.kinds();
  const std::size_t K = kinds.size();
  HETSCHED_CHECK(batch.kind_count() == K,
                 "search::top_k: the batch estimator snapshots another space");
  HETSCHED_CHECK(query.top >= 1 && opts.batch_leaves >= 1,
                 "search::top_k: top >= 1 and batch_leaves >= 1 required");
  const int limit = query.max_total_procs > 0
                        ? query.max_total_procs
                        : std::numeric_limits<int>::max();
  const auto procs_of = [&](std::size_t k, std::size_t c) {
    return kinds[k].choices[c].first * kinds[k].choices[c].second;
  };

  // Kind k's feasible choices are all of them, or, if it is excluded,
  // its absent choice (none if it has none); `stride` is its weight in
  // the raw odometer rank.
  struct KindPlan {
    std::size_t count = 0, absent = 0, stride = 0;
  };
  std::vector<KindPlan> plan(K);
  std::vector<unsigned char> excluded(K, 0);
  std::size_t rows_total = 1;
  for (std::size_t k = 0, weight = 1; k < K; ++k) {
    excluded[k] = std::find(query.exclude.begin(), query.exclude.end(),
                            kinds[k].kind) != query.exclude.end();
    plan[k].count = excluded[k] ? 0 : kinds[k].choices.size();
    for (std::size_t c = 0; c < kinds[k].choices.size(); ++c)
      if (kinds[k].choices[c].first == 0) {
        plan[k].absent = c;
        if (excluded[k]) plan[k].count = 1;
      }
    plan[k].stride = weight;
    weight *= kinds[k].choices.size();
    rows_total *= plan[k].count;
  }
  const auto choice = [&](std::size_t k, std::size_t i) {  // i-th feasible
    return excluded[k] ? plan[k].absent : i;
  };

  TopK out;
  out.stats.candidates = space.size();
  if (rows_total == 0) return out;
  const std::size_t k_top = std::min(query.top, rows_total);

  // A space that fits one batch is one sweep at the root that prices
  // every feasible row and so counts `covered` itself; a walked tree
  // skips rows and counts it from the coverage flags.
  const bool tree = rows_total > opts.batch_leaves;
  Bounds bt;
  if (tree) {
    bt = bounds_for(est, space, batch.n(), limit);
    out.covered = batch.count_covered(excluded, limit);
  }

  // Per ordered depth: its kind, the feasible leaves below it, and the
  // fewest processes the kinds from it on add (the process-limit cut).
  struct Level {
    std::size_t kind = 0, suffix = 1;
    int min_rest = 0;
  };
  std::vector<Level> level(K + 1);
  for (std::size_t d = K; d-- > 0;) {
    const std::size_t k = tree ? bt.order[d] : d;
    int fewest = std::numeric_limits<int>::max();
    for (std::size_t i = 0; i < plan[k].count; ++i)
      fewest = std::min(fewest, procs_of(k, choice(k, i)));
    level[d] = {k, level[d + 1].suffix * plan[k].count,
                level[d + 1].min_rest + fewest};
  }

  // Top-level tasks: the cross product of the first `depth` ordered
  // kinds' feasible choices, enough of them to keep the pool balanced.
  std::size_t depth = 0, tasks = 1;
  while (tree && pool != nullptr && depth < K &&
         tasks < pool->size() * opts.tasks_per_thread)
    tasks *= plan[level[depth++].kind].count;

  struct Task {
    std::vector<Hit> top;  ///< the task's best, in answer order
    std::size_t kept = 0, visited = 0, pruned = 0, uncovered = 0;
  };
  std::vector<Task> local(tasks);
  // The k-th best estimate found so far: the minimum of the tasks'
  // local k-th bests, each an upper bound on the global one.
  std::atomic<double> threshold{kInf};
  const std::size_t leaves = std::min(opts.batch_leaves, rows_total);
  const std::uint64_t steals0 = pool != nullptr ? pool->steals() : 0;

  const auto run = [&](std::size_t t) {
    Task& T = local[t];
    T.top.resize(k_top);
    // Choice per kind, tail odometer per depth and the batch working
    // set, sized once per task: the sweep itself never allocates.
    std::vector<std::size_t> idx(K, 0), pos(K, 0);
    std::vector<std::size_t> rows(leaves * K), ranks(leaves);
    std::vector<Seconds> vals(leaves);
    core::BatchEstimator::Scratch scratch = batch.make_scratch();

    // hetsched-lint: hot-path-begin — batched leaf fold; no heap
    // allocation permitted (hot-path-alloc rule).
    // Prices the feasible rows below depth `d` (the path fixed `rank0`
    // and `procs0`) in one sweep and inserts them into the task's top-k.
    const auto fold = [&](std::size_t d, std::size_t rank0, int procs0,
                          double cur_bound) {
      std::fill(pos.begin() + static_cast<std::ptrdiff_t>(d), pos.end(), 0);
      std::size_t count = 0;
      for (std::size_t i = 0; i < level[d].suffix; ++i) {
        std::size_t rank = rank0;
        int procs = procs0;
        for (std::size_t dd = d; dd < K; ++dd) {
          const std::size_t k = level[dd].kind, c = choice(k, pos[dd]);
          idx[k] = c;
          rank += c * plan[k].stride;
          procs += procs_of(k, c);
        }
        for (std::size_t dd = d;
             dd < K && ++pos[dd] == plan[level[dd].kind].count; ++dd)
          pos[dd] = 0;
        if (procs == 0 || procs > limit) continue;  // 0: the all-absent row
        std::copy(idx.begin(), idx.end(),
                  rows.begin() + static_cast<std::ptrdiff_t>(count * K));
        ranks[count++] = rank;
      }
      batch.estimate_rows(rows.data(), count, vals.data(), scratch);
      for (std::size_t i = 0; i < count; ++i) {
        ++T.visited;
        const Hit h{vals[i], ranks[i]};
        if (std::isnan(h.t)) {
          ++T.uncovered;
          continue;
        }
        // Admissibility sweep: the path bound must never exceed the true
        // leaf value, or a cut could discard an answer. Tolerance covers
        // rounding between the bound's and the estimator's evaluation
        // order of the same closed forms.
        if (tree && opts.debug_check_bounds) {
          double leaf_bound = cur_bound;
          for (std::size_t dd = d; dd < K; ++dd) {
            const std::size_t kk = level[dd].kind;
            leaf_bound = std::max(leaf_bound, bt.blb[kk][rows[i * K + kk]]);
          }
          HETSCHED_ASSERT(leaf_bound <= h.t * (1.0 + 1e-9) + 1e-12,
                          "search::top_k: pruning bound exceeds true leaf "
                          "estimate (inadmissible bound)");
        }
        if (T.kept == k_top && !before(h, T.top[k_top - 1])) continue;
        std::size_t at = T.kept < k_top ? T.kept++ : k_top - 1;
        for (; at > 0 && before(h, T.top[at - 1]); --at)
          T.top[at] = T.top[at - 1];
        T.top[at] = h;
        if (T.kept == k_top) atomic_min(threshold, T.top[k_top - 1].t);
      }
    };
    // hetsched-lint: hot-path-end

    const auto dfs = [&](const auto& self, std::size_t d, std::size_t rank,
                         int procs, double cur_bound) -> void {
      if (procs + level[d].min_rest > limit) return;  // nothing feasible
      // Stolen-subtree contract (debug): the incrementally carried
      // bound must equal a from-scratch recomputation over the path's
      // fixed choices — both are maxes of the same doubles, so the
      // equality is exact, and any drift in the maintenance (a missed
      // reset, a chunk resumed with stale state after a steal) trips
      // here.
      if (tree && opts.debug_check_bounds) {
        double scratch_bound = bt.zero;
        for (std::size_t dd = 0; dd < d; ++dd) {
          const std::size_t kk = level[dd].kind;
          scratch_bound = std::max(scratch_bound, bt.blb[kk][idx[kk]]);
        }
        HETSCHED_ASSERT(scratch_bound == cur_bound,
                        "search::top_k: incremental bound diverged from the "
                        "from-scratch recomputation");
      }
      // Strictly-greater cut: a subtree whose optimistic bound merely
      // *ties* the k-th best may still hold an answer through the
      // enumeration-order tie-break, so it survives. Together with the
      // serial (estimate, rank) reduction below this keeps the result
      // bit-identical to the serial oracle for any thread count.
      HETSCHED_ATOMIC_DOC(relaxed, "advisory threshold for pruning; stale "
                                   "reads only weaken cuts");
      if (opts.prune &&
          cur_bound > threshold.load(std::memory_order_relaxed)) {
        T.pruned += level[d].suffix;
        return;
      }
      // The whole remaining subtree fits one batch: price it in one
      // sweep. Pruning below this node is forgone — its root bound
      // survived, and pricing a batched leaf is cheaper than bounding it.
      if (level[d].suffix <= opts.batch_leaves)
        return fold(d, rank, procs, cur_bound);
      const std::size_t k = level[d].kind;
      for (std::size_t i = 0; i < plan[k].count; ++i) {
        const std::size_t c = choice(k, i);
        idx[k] = c;
        self(self, d + 1, rank + c * plan[k].stride, procs + procs_of(k, c),
             std::max(cur_bound, bt.blb[k][c]));
      }
    };

    double bound = bt.zero;
    std::size_t rank = 0, rem = t;
    int procs = 0;
    for (std::size_t d = 0; d < depth; ++d) {  // task t's prefix
      const std::size_t k = level[d].kind, c = choice(k, rem % plan[k].count);
      rem /= plan[k].count;
      idx[k] = c;
      rank += c * plan[k].stride;
      procs += procs_of(k, c);
      bound = std::max(bound, bt.blb[k][c]);
    }
    dfs(dfs, depth, rank, procs, bound);
  };
  if (tasks > 1)
    pool->parallel_for(tasks, run);
  else
    run(0);

  // Deterministic reduction: the tasks' top-k merged in answer order.
  std::vector<Hit> hits;
  for (const Task& T : local) {
    out.stats.visited += T.visited;
    out.stats.pruned += T.pruned;
    out.stats.uncovered += T.uncovered;
    // Leaves priced per pool task: the spread of this histogram is the
    // work-balance story of a parallel search.
    if (pool != nullptr)
      HETSCHED_HISTOGRAM_RECORD("search.task_leaves", T.visited);
    hits.insert(hits.end(), T.top.begin(),
                T.top.begin() + static_cast<std::ptrdiff_t>(T.kept));
  }
  std::sort(hits.begin(), hits.end(), before);
  hits.resize(std::min(hits.size(), k_top));
  out.stats.batch_evals = out.stats.visited;
  if (pool != nullptr) out.stats.steals = pool->steals() - steals0;
  if (!tree) out.covered = out.stats.visited - out.stats.uncovered;
  out.best.reserve(hits.size());
  for (const Hit& h : hits) {
    core::Ranked& r = out.best.emplace_back(core::Ranked{{}, h.t});
    r.config.usage.reserve(K);
    for (std::size_t k = 0, rest = h.rank; k < K; ++k) {
      const auto [pes, m] = kinds[k].choices[rest % kinds[k].choices.size()];
      rest /= kinds[k].choices.size();
      if (pes > 0) r.config.usage.push_back({kinds[k].kind, pes, m});
    }
  }
  return out;
}

Engine::Engine(EngineOptions opts)
    : opts_(opts),
      pool_(opts.threads, opts.use_work_stealing),
      cache_(opts.cache_shards, opts.cache_max_entries_per_shard) {
  HETSCHED_CHECK(opts_.batch_leaves >= 1,
                 "search::Engine: batch_leaves >= 1 required");
}

Seconds Engine::priced(const core::Estimator& est,
                       const cluster::Config& config, int n) {
  if (!opts_.use_cache)
    return est.covers(config) ? est.estimate(config, n) : kNaN;
  const std::string key = estimate_key(config, n);
  if (const auto v = cache_.lookup(key)) return *v;
  const Seconds v = est.covers(config) ? est.estimate(config, n) : kNaN;
  cache_.insert(key, v);
  return v;
}

std::optional<Seconds> Engine::try_estimate(const core::Estimator& est,
                                            const cluster::Config& config,
                                            int n) {
  if (opts_.use_cache) cache_.bind(estimator_fingerprint(est));
  const Seconds v = priced(est, config, n);
  if (std::isnan(v)) return std::nullopt;
  return v;
}

std::vector<core::Ranked> Engine::rank_all(const core::Estimator& est,
                                           const core::ConfigSpace& space,
                                           int n) {
  HETSCHED_TRACE_SPAN_VAR(obs_span, "search", "rank_all");
  if (opts_.use_cache) cache_.bind(estimator_fingerprint(est));
  const std::size_t count = space.size();
  stats_ = EngineStats{};
  stats_.candidates = count;
  const std::uint64_t hits0 = cache_.hits();
  const std::uint64_t misses0 = cache_.misses();
  const std::uint64_t evictions0 = cache_.evictions();
  const std::uint64_t steals0 = pool_.steals();

  std::vector<core::Ranked> out(count);
  pool_.parallel_for(count, [&](std::size_t i) {
    cluster::Config cfg = space.config_at(i);
    const Seconds t = priced(est, cfg, n);
    out[i] = core::Ranked{std::move(cfg), t};
  });

  // Uncovered candidates carry NaN; drop them keeping enumeration order,
  // then sort stably — element-wise identical to serial core::rank_all.
  out.erase(std::remove_if(
                out.begin(), out.end(),
                [](const core::Ranked& r) { return std::isnan(r.estimate); }),
            out.end());
  stats_.visited = count;
  stats_.uncovered = count - out.size();
  std::stable_sort(out.begin(), out.end(),
                   [](const core::Ranked& a, const core::Ranked& b) {
                     return a.estimate < b.estimate;
                   });
  stats_.cache_hits = cache_.hits() - hits0;
  stats_.cache_misses = cache_.misses() - misses0;
  stats_.cache_evictions = cache_.evictions() - evictions0;
  stats_.steals = pool_.steals() - steals0;
  flush_stats_to_metrics(stats_);
  HETSCHED_GAUGE_SET("search.cache.entries", cache_.size());
  obs_span.arg("candidates", static_cast<long long>(count))
      .arg("n", n)
      .arg("cache_hits", static_cast<long long>(stats_.cache_hits));
  return out;
}

core::Ranked Engine::best(const core::Estimator& est,
                          const core::ConfigSpace& space, int n) {
  HETSCHED_TRACE_SPAN_VAR(obs_span, "search", "best");
  const core::BatchEstimator batch(est, space, n);
  TopK r = top_k(est, space, batch, Query{}, opts_, &pool_);
  stats_ = r.stats;
  flush_stats_to_metrics(stats_);
  obs_span.arg("candidates", static_cast<long long>(stats_.candidates))
      .arg("n", n)
      .arg("visited", static_cast<long long>(stats_.visited))
      .arg("pruned", static_cast<long long>(stats_.pruned));
  HETSCHED_CHECK(!r.best.empty(),
                 "search::Engine::best: models cover no candidate "
                 "configuration");
  return std::move(r.best.front());
}

}  // namespace hetsched::search
