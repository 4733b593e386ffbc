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

cluster::Config config_from_idx(
    const std::vector<core::ConfigSpace::KindOptions>& kinds,
    const std::vector<std::size_t>& idx) {
  cluster::Config cfg;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const auto [pes, m] = kinds[i].choices[idx[i]];
    if (pes > 0)
      cfg.usage.push_back(cluster::KindUsage{kinds[i].kind, pes, m});
  }
  return cfg;
}

// Shape fingerprint of a ConfigSpace (kind names + choice lists), for
// reusing the batch snapshot across sweeps. FNV-1a like the estimator
// fingerprint.
std::uint64_t space_signature(const core::ConfigSpace& space) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  const auto mix_int = [&](long long v) {
    for (std::size_t i = 0; i < sizeof(v); ++i)
      mix_byte(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
  };
  for (const auto& k : space.kinds()) {
    for (const char c : k.kind) mix_byte(static_cast<unsigned char>(c));
    mix_byte(0);
    mix_int(static_cast<long long>(k.choices.size()));
    for (const auto& [pes, m] : k.choices) {
      mix_int(pes);
      mix_int(m);
    }
  }
  return h;
}

}  // namespace

Engine::Engine(EngineOptions opts)
    : opts_(opts),
      pool_(opts.threads, opts.use_work_stealing),
      cache_(opts.cache_shards, opts.cache_max_entries_per_shard) {}

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

const core::BatchEstimator& Engine::batch_for(const core::Estimator& est,
                                              const core::ConfigSpace& space,
                                              int n) {
  const std::uint64_t fp = estimator_fingerprint(est);
  const std::uint64_t sig = space_signature(space);
  if (!batch_ || batch_fingerprint_ != fp || batch_space_sig_ != sig ||
      batch_n_ != n) {
    batch_ = std::make_unique<core::BatchEstimator>(est, space, n);
    batch_fingerprint_ = fp;
    batch_space_sig_ = sig;
    batch_n_ = n;
  }
  return *batch_;
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
  if (opts_.use_cache) cache_.bind(estimator_fingerprint(est));
  const core::BatchEstimator* batch =
      opts_.use_batch && opts_.batch_leaves > 0 ? &batch_for(est, space, n)
                                                : nullptr;
  const auto& kinds = space.kinds();
  const std::size_t K = kinds.size();
  stats_ = EngineStats{};
  stats_.candidates = space.size();
  const std::uint64_t hits0 = cache_.hits();
  const std::uint64_t misses0 = cache_.misses();
  const std::uint64_t evictions0 = cache_.evictions();
  const std::uint64_t steals0 = pool_.steals();
  const double nn = n;
  const core::EstimatorOptions& eo = est.options();

  // Per-kind extremes of the choice lists, for the feasible (P, Q)
  // intervals below. A kind's processes count toward every kind's Tai
  // (the estimator evaluates Tai at the config's *total* process count),
  // and its processors toward every Tci.
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
        const double p_hi = own_procs + (tot_max_procs - kind_max_procs[k]);
        const double tai = std::min(pt->tai(nn, p_lo), pt->tai(nn, p_hi));

        const double own_q =
            eo.comm_uses_processors ? static_cast<double>(pes) : own_procs;
        const double q_lo =
            own_q + (eo.comm_uses_processors
                         ? tot_min_pes - kind_min_pes[k]
                         : tot_min_procs - kind_min_procs[k]);
        const double q_hi =
            own_q + (eo.comm_uses_processors
                         ? tot_max_pes - kind_max_pes[k]
                         : tot_max_procs - kind_max_procs[k]);
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
  std::vector<std::vector<double>> blb(K);
  for (std::size_t k = 0; k < K; ++k) {
    blb[k].resize(lb[k].size(), 0.0);
    for (std::size_t c = 0; c < lb[k].size(); ++c) blb[k][c] = bound(lb[k][c]);
  }
  const double bound_zero = bound(0.0);

  // DFS kind order: slowest kinds (largest achievable bound, i.e. worst
  // per-process throughput) first, so the running bound rises early and
  // subtrees die before they branch.
  std::vector<std::size_t> order(K);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> score(K, 0.0);
  for (std::size_t k = 0; k < K; ++k)
    for (const double b : lb[k])
      if (std::isfinite(b)) score[k] = std::max(score[k], b);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return score[a] > score[b];
  });

  // Leaves under each ordered depth, for pruning accounting.
  std::vector<std::size_t> suffix(K + 1, 1);
  for (std::size_t d = K; d-- > 0;)
    suffix[d] = suffix[d + 1] * kinds[order[d]].choices.size();

  // Top-level tasks: the cross product of the first `depth` ordered
  // kinds' choices, enough of them to keep the pool balanced.
  const std::size_t target =
      std::max<std::size_t>(1, pool_.size() * opts_.tasks_per_thread);
  std::size_t depth = 0, tasks = 1;
  while (depth < K && tasks < target) {
    tasks *= kinds[order[depth]].choices.size();
    ++depth;
  }

  struct Local {
    double est = kInf;
    std::size_t idx = core::ConfigSpace::npos;
    std::size_t visited = 0, pruned = 0, uncovered = 0, batch_evals = 0;
  };
  std::vector<Local> locals(tasks);
  std::atomic<double> incumbent{kInf};

  pool_.parallel_for(tasks, [&](std::size_t t) {
    Local& L = locals[t];
    std::vector<std::size_t> idx(K, 0);  // indexed by original kind order
    // Batch working set, sized once per task; the sweep itself never
    // allocates.
    std::vector<std::size_t> rows(batch ? opts_.batch_leaves * K : 0);
    std::vector<Seconds> vals(batch ? opts_.batch_leaves : 0);
    std::vector<std::size_t> idx_tmp(batch ? K : 0);
    core::BatchEstimator::Scratch scratch =
        batch ? batch->make_scratch() : core::BatchEstimator::Scratch{};

    double prefix_bound = bound_zero;
    std::size_t rem = t;
    for (std::size_t d = 0; d < depth; ++d) {
      const std::size_t k = order[d];
      idx[k] = rem % kinds[k].choices.size();
      rem /= kinds[k].choices.size();
      prefix_bound = std::max(prefix_bound, blb[k][idx[k]]);
    }

    const auto dfs = [&](const auto& self, std::size_t d,
                         double cur_bound) -> void {
      // Stolen-subtree contract (debug): the incrementally carried
      // bound must equal a from-scratch recomputation over the path's
      // fixed choices — both are maxes of the same doubles, so the
      // equality is exact, and any drift in the maintenance (a missed
      // reset, a chunk resumed with stale state after a steal) trips
      // here.
      if (opts_.debug_check_bounds) {
        double scratch_bound = bound_zero;
        for (std::size_t dd = 0; dd < d; ++dd) {
          const std::size_t kk = order[dd];
          scratch_bound = std::max(scratch_bound, blb[kk][idx[kk]]);
        }
        HETSCHED_ASSERT(scratch_bound == cur_bound,
                        "search::Engine::best: incremental bound diverged "
                        "from the from-scratch recomputation");
      }
      // Strictly-greater cut: a subtree whose optimistic bound merely
      // *ties* the incumbent may still hold the argmin through the
      // enumeration-order tie-break, so it survives. Together with the
      // serial (estimate, index) reduction below this keeps the result
      // bit-identical to the serial oracle for any thread count.
      HETSCHED_ATOMIC_DOC(relaxed, "advisory incumbent for pruning; stale "
                                   "reads only weaken cuts");
      if (opts_.prune &&
          cur_bound > incumbent.load(std::memory_order_relaxed)) {
        L.pruned += suffix[d];
        return;
      }
      // hetsched-lint: hot-path-begin — batched leaf sweep; no heap
      // allocation permitted (hot-path-alloc rule).
      if (batch != nullptr && suffix[d] <= opts_.batch_leaves) {
        // The whole remaining subtree fits one batch: enumerate its
        // leaf rows and price them in a single SoA sweep. Pruning below
        // this node is forgone — its root bound survived, and pricing a
        // batched leaf is cheaper than bounding it.
        const std::size_t cnt = suffix[d];
        for (std::size_t i = 0; i < cnt; ++i) {
          std::size_t odo = i;
          for (std::size_t dd = d; dd < K; ++dd) {
            const std::size_t kk = order[dd];
            idx[kk] = odo % kinds[kk].choices.size();
            odo /= kinds[kk].choices.size();
          }
          std::size_t* row = rows.data() + i * K;
          for (std::size_t kk = 0; kk < K; ++kk) row[kk] = idx[kk];
        }
        batch->estimate_rows(rows.data(), cnt, vals.data(), scratch);
        for (std::size_t i = 0; i < cnt; ++i) {
          const std::size_t* row = rows.data() + i * K;
          for (std::size_t kk = 0; kk < K; ++kk) idx_tmp[kk] = row[kk];
          const std::size_t cand = space.candidate_index(idx_tmp);
          if (cand == core::ConfigSpace::npos) continue;  // all-absent
          ++L.visited;
          ++L.batch_evals;
          const Seconds v = vals[i];
          if (std::isnan(v)) {
            ++L.uncovered;
            continue;
          }
          if (opts_.debug_check_bounds) {
            double leaf_bound = cur_bound;
            for (std::size_t dd = d; dd < K; ++dd) {
              const std::size_t kk = order[dd];
              leaf_bound = std::max(leaf_bound, blb[kk][row[kk]]);
            }
            HETSCHED_ASSERT(leaf_bound <= v * (1.0 + 1e-9) + 1e-12,
                            "search::Engine::best: pruning bound exceeds "
                            "true leaf estimate (inadmissible bound)");
          }
          if (v < L.est || (v == L.est && cand < L.idx)) {
            L.est = v;
            L.idx = cand;
          }
          atomic_min(incumbent, v);
        }
        for (std::size_t dd = d; dd < K; ++dd) idx[order[dd]] = 0;
        return;
      }
      // hetsched-lint: hot-path-end
      if (d == K) {
        const std::size_t cand = space.candidate_index(idx);
        if (cand == core::ConfigSpace::npos) return;  // all-absent
        ++L.visited;
        cluster::Config cfg = config_from_idx(kinds, idx);
        const Seconds v = priced(est, cfg, n);
        if (std::isnan(v)) {
          ++L.uncovered;
          return;
        }
        // Admissibility sweep: the path bound must never exceed the true
        // leaf value, or a cut could discard the argmin. Tolerance covers
        // rounding between the bound's and the estimator's evaluation
        // order of the same closed forms.
        if (opts_.debug_check_bounds)
          HETSCHED_ASSERT(cur_bound <= v * (1.0 + 1e-9) + 1e-12,
                          "search::Engine::best: pruning bound exceeds "
                          "true leaf estimate (inadmissible bound)");
        if (v < L.est || (v == L.est && cand < L.idx)) {
          L.est = v;
          L.idx = cand;
        }
        atomic_min(incumbent, v);
        return;
      }
      const std::size_t k = order[d];
      for (std::size_t c = 0; c < kinds[k].choices.size(); ++c) {
        idx[k] = c;
        self(self, d + 1, std::max(cur_bound, blb[k][c]));
      }
      idx[k] = 0;
    };
    dfs(dfs, depth, prefix_bound);
  });

  // Deterministic reduction: serial scan in task order, min by
  // (estimate, enumeration index).
  const Local* best = nullptr;
  for (const Local& L : locals) {
    stats_.visited += L.visited;
    stats_.pruned += L.pruned;
    stats_.uncovered += L.uncovered;
    stats_.batch_evals += L.batch_evals;
    // Leaves priced per top-level task: the spread of this histogram is
    // the work-balance story of the sweep.
    HETSCHED_HISTOGRAM_RECORD("search.task_leaves", L.visited);
    if (L.idx == core::ConfigSpace::npos) continue;
    if (best == nullptr || L.est < best->est ||
        (L.est == best->est && L.idx < best->idx))
      best = &L;
  }
  stats_.cache_hits = cache_.hits() - hits0;
  stats_.cache_misses = cache_.misses() - misses0;
  stats_.cache_evictions = cache_.evictions() - evictions0;
  stats_.steals = pool_.steals() - steals0;
  flush_stats_to_metrics(stats_);
  HETSCHED_GAUGE_SET("search.cache.entries", cache_.size());
  obs_span.arg("candidates", static_cast<long long>(stats_.candidates))
      .arg("n", n)
      .arg("visited", static_cast<long long>(stats_.visited))
      .arg("pruned", static_cast<long long>(stats_.pruned));
  HETSCHED_CHECK(best != nullptr,
                 "search::Engine::best: models cover no candidate "
                 "configuration");
  return core::Ranked{space.config_at(best->idx), best->est};
}

}  // namespace hetsched::search
