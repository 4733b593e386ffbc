#include "core/optimizer.hpp"

#include <algorithm>
#include <limits>

#include "cluster/pe_kind.hpp"
#include "support/error.hpp"

namespace hetsched::core {

ConfigSpace::ConfigSpace(std::vector<KindOptions> kinds)
    : kinds_(std::move(kinds)) {
  HETSCHED_CHECK(!kinds_.empty(), "ConfigSpace requires at least one kind");
  for (const auto& k : kinds_) {
    HETSCHED_CHECK(!k.choices.empty(), "ConfigSpace: empty choice list");
    int absent = 0;
    for (const auto& [pes, m] : k.choices) {
      HETSCHED_CHECK(pes >= 0, "ConfigSpace: negative PE count");
      if (pes == 0)
        ++absent;
      else
        HETSCHED_CHECK(m >= 1, "ConfigSpace: procs_per_pe >= 1 required");
    }
    HETSCHED_CHECK(absent <= 1,
                   "ConfigSpace: at most one absent choice per kind "
                   "(duplicates would enumerate the same configuration)");
  }
}

ConfigSpace ConfigSpace::paper_eval() {
  KindOptions athlon{cluster::athlon_1330().name, {{0, 0}}};
  for (int m = 1; m <= 6; ++m) athlon.choices.emplace_back(1, m);
  KindOptions p2{cluster::pentium2_400().name, {{0, 0}}};
  for (int pes = 1; pes <= 8; ++pes) p2.choices.emplace_back(pes, 1);
  return ConfigSpace({std::move(athlon), std::move(p2)});
}

namespace {

cluster::Config config_from_choice(
    const std::vector<ConfigSpace::KindOptions>& kinds,
    const std::vector<std::size_t>& idx) {
  cluster::Config cfg;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const auto [pes, m] = kinds[i].choices[idx[i]];
    if (pes > 0)
      cfg.usage.push_back(cluster::KindUsage{kinds[i].kind, pes, m});
  }
  return cfg;
}

}  // namespace

ConfigSpace ConfigSpace::ranges(const std::vector<KindRange>& kinds) {
  std::vector<KindOptions> opts;
  opts.reserve(kinds.size());
  for (const auto& r : kinds) {
    HETSCHED_CHECK(r.min_pes >= 1 && r.min_pes <= r.max_pes,
                   "ConfigSpace::ranges: need 1 <= min_pes <= max_pes");
    HETSCHED_CHECK(r.min_m >= 1 && r.min_m <= r.max_m,
                   "ConfigSpace::ranges: need 1 <= min_m <= max_m");
    KindOptions ko{r.kind, {}};
    if (r.optional) ko.choices.emplace_back(0, 0);
    for (int pes = r.min_pes; pes <= r.max_pes; ++pes)
      for (int m = r.min_m; m <= r.max_m; ++m) ko.choices.emplace_back(pes, m);
    opts.push_back(std::move(ko));
  }
  return ConfigSpace(std::move(opts));
}

ConfigSpace ConfigSpace::for_cluster(const cluster::ClusterSpec& spec,
                                     int max_m) {
  HETSCHED_CHECK(max_m >= 1, "ConfigSpace::for_cluster: max_m >= 1 required");
  std::vector<KindRange> kinds;
  for (const auto& name : spec.kind_names()) {
    const int avail = static_cast<int>(spec.pes_of_kind(name).size());
    kinds.push_back(KindRange{name, 1, avail, 1, max_m, /*optional=*/true});
  }
  return ranges(kinds);
}

std::vector<cluster::Config> ConfigSpace::all() const {
  std::vector<cluster::Config> out;
  std::vector<std::size_t> idx(kinds_.size(), 0);
  while (true) {
    cluster::Config cfg = config_from_choice(kinds_, idx);
    if (cfg.total_procs() > 0) out.push_back(std::move(cfg));
    // Odometer increment.
    std::size_t d = 0;
    while (d < kinds_.size() && ++idx[d] == kinds_[d].choices.size()) {
      idx[d] = 0;
      ++d;
    }
    if (d == kinds_.size()) break;
  }
  return out;
}

std::size_t ConfigSpace::empty_rank() const {
  std::size_t rank = 0, stride = 1;
  for (const auto& k : kinds_) {
    std::size_t absent = npos;
    for (std::size_t c = 0; c < k.choices.size(); ++c)
      if (k.choices[c].first == 0) absent = c;
    if (absent == npos) return npos;  // no empty combination exists
    rank += absent * stride;
    stride *= k.choices.size();
  }
  return rank;
}

std::size_t ConfigSpace::size() const {
  std::size_t n = 1;
  for (const auto& k : kinds_) n *= k.choices.size();
  return n - (empty_rank() == npos ? 0 : 1);
}

cluster::Config ConfigSpace::config_at(std::size_t index) const {
  HETSCHED_CHECK(index < size(), "ConfigSpace::config_at: index out of range");
  const std::size_t er = empty_rank();
  std::size_t raw = index + (er != npos && index >= er ? 1 : 0);
  std::vector<std::size_t> idx(kinds_.size());
  for (std::size_t k = 0; k < kinds_.size(); ++k) {
    idx[k] = raw % kinds_[k].choices.size();
    raw /= kinds_[k].choices.size();
  }
  return config_from_choice(kinds_, idx);
}

std::vector<Ranked> rank_all(const Estimator& est, const ConfigSpace& space,
                             int n) {
  std::vector<Ranked> out;
  for (auto& cfg : space.all()) {
    if (!est.covers(cfg)) continue;
    const Seconds t = est.estimate(cfg, n);
    out.push_back(Ranked{std::move(cfg), t});
  }
  // Stable: ties keep enumeration order, making the ranking a total
  // deterministic order the parallel engine can reproduce exactly.
  std::stable_sort(out.begin(), out.end(),
                   [](const Ranked& a, const Ranked& b) {
                     return a.estimate < b.estimate;
                   });
  return out;
}

Ranked best_exhaustive(const Estimator& est, const ConfigSpace& space,
                       int n) {
  const std::vector<Ranked> ranked = rank_all(est, space, n);
  HETSCHED_CHECK(!ranked.empty(),
                 "best_exhaustive: models cover no candidate configuration");
  return ranked.front();
}

GreedyResult best_greedy(const Estimator& est, const ConfigSpace& space,
                         int n) {
  const auto& kinds = space.kinds();
  GreedyResult res;

  // Start: for each kind, the choice with the most PEs at the smallest m
  // ("use everything once"), i.e. lexicographically (max pes, min m).
  std::vector<std::size_t> idx(kinds.size(), 0);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < kinds[i].choices.size(); ++c) {
      const auto [pes, m] = kinds[i].choices[c];
      const auto [bp, bm] = kinds[i].choices[best];
      if (pes > bp || (pes == bp && m < bm)) best = c;
    }
    idx[i] = best;
  }

  auto eval = [&](const std::vector<std::size_t>& pos) -> Seconds {
    const cluster::Config cfg = config_from_choice(kinds, pos);
    if (cfg.total_procs() <= 0 || !est.covers(cfg))
      return std::numeric_limits<Seconds>::infinity();
    ++res.evaluations;
    return est.estimate(cfg, n);
  };

  Seconds cur = eval(idx);
  HETSCHED_CHECK(cur < std::numeric_limits<Seconds>::infinity(),
                 "best_greedy: starting configuration is not covered");

  // Neighbourhood of a choice: the options reachable by one step in the
  // (pes, m) plane — pes +/- 1 at the same m, m +/- 1 at the same pes,
  // plus dropping the kind entirely or re-adding it minimally. Stepping
  // through the flattened choice list instead would jump between
  // unrelated configurations and strand the search.
  const auto neighbours = [&](std::size_t kind_idx, std::size_t choice_idx) {
    const auto& choices = kinds[kind_idx].choices;
    const auto [pes, m] = choices[choice_idx];
    std::vector<std::size_t> out;
    for (std::size_t c = 0; c < choices.size(); ++c) {
      if (c == choice_idx) continue;
      const auto [cp, cm] = choices[c];
      const bool pes_step = std::abs(cp - pes) == 1 && cm == m;
      const bool m_step = cp == pes && std::abs(cm - m) == 1;
      const bool drop = cp == 0 && pes > 0;
      const bool add = pes == 0 && cp == 1 && cm == 1;
      if (pes_step || m_step || drop || add) out.push_back(c);
    }
    return out;
  };

  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      for (const std::size_t c : neighbours(i, idx[i])) {
        std::vector<std::size_t> cand = idx;
        cand[i] = c;
        const Seconds t = eval(cand);
        if (t < cur) {
          cur = t;
          idx = cand;
          improved = true;
        }
      }
    }
  }

  res.best = Ranked{config_from_choice(kinds, idx), cur};
  return res;
}

}  // namespace hetsched::core
