#include "core/batch.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "support/error.hpp"
#include "support/units.hpp"

namespace hetsched::core {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

BatchEstimator::BatchEstimator(const Estimator& est, const ConfigSpace& space,
                               int n) {
  HETSCHED_CHECK(n >= 1, "BatchEstimator: n >= 1 required");
  const EstimatorOptions& eo = est.options();
  use_binning_ = eo.use_binning;
  use_adjustment_ = eo.use_adjustment;
  check_memory_ = eo.check_memory;
  comm_uses_processors_ = eo.comm_uses_processors;
  paged_penalty_ = eo.paged_penalty;
  nb_ = eo.nb;
  n_ = n;
  if (check_memory_)
    HETSCHED_CHECK(nb_ >= 1, "Grid1xP: nb >= 1 required");

  const double nn = n;
  const auto& kinds = space.kinds();
  kind_count_ = kinds.size();

  std::size_t total = 0;
  for (const auto& k : kinds) total += k.choices.size();
  off_.reserve(kind_count_);
  pes_.reserve(total);
  m_.reserve(total);
  procs_.reserve(total);
  nt_ok_.reserve(total);
  pt_ok_.reserve(total);
  adj_ok_.reserve(total);
  nt_sum_.reserve(total);
  cs_.reserve(total);
  k7a_.reserve(total);
  k8_.reserve(total);
  ccs_.reserve(total);
  k9_.reserve(total);
  cn_.reserve(total);
  k10c_.reserve(total);
  k11_.reserve(total);
  adj_a_.reserve(total);
  adj_b_.reserve(total);

  for (const auto& kind : kinds) {
    off_.push_back(pes_.size());
    int kind_max_procs = 0;
    for (const auto& [pes, m] : kind.choices) {
      kind_max_procs = std::max(kind_max_procs, pes * m);
      pes_.push_back(pes);
      m_.push_back(m);
      procs_.push_back(pes * m);
      // Defaults for the absent choice (and for missing models): flags
      // off, coefficients zero. eval_row never reads a coefficient
      // whose flag is off.
      unsigned char nt_ok = 0, pt_ok = 0, adj_ok = 0;
      double nt_sum = 0, cs = 0, k7a = 0, k8 = 0;
      double ccs = 0, k9 = 0, cn = 0, k10c = 0, k11 = 0;
      double adj_a = 0, adj_b = 0;
      if (pes > 0) {
        if (const NtModel* nt = est.nt(NtKey{kind.kind, pes, m})) {
          nt_ok = 1;
          // The scalar path stores Tai(N) and Tci(N) then adds them —
          // one addition, reproduced here at snapshot time.
          nt_sum = nt->tai(nn) + nt->tci(nn);
        }
        if (const PtModel* pt = est.pt(kind.kind, m)) {
          pt_ok = 1;
          const PtModel::State s = pt->state();
          // A(N) and C(N) exactly as PtModel's private curves compute
          // them; k7*A and k10*C are single multiplies the scalar
          // expression performs as a unit, so folding them is exact.
          // k9*C is NOT folded: the scalar groups (k9*Q)*C.
          const double a_curve = s.a_p_base * s.a_base.tai(nn);
          cs = s.compute_scale;
          k7a = s.kt[0] * a_curve;
          k8 = s.kt[1];
          ccs = s.comm_scale;
          cn = s.c_base.tci(nn);
          k9 = s.kc[0];
          k10c = s.kc[1] * cn;
          k11 = s.kc[2];
        }
        if (const LinearMap* adj = est.adjustment(kind.kind, m)) {
          adj_ok = 1;
          adj_a = adj->a;
          adj_b = adj->b;
        }
      }
      nt_ok_.push_back(nt_ok);
      pt_ok_.push_back(pt_ok);
      adj_ok_.push_back(adj_ok);
      nt_sum_.push_back(nt_sum);
      cs_.push_back(cs);
      k7a_.push_back(k7a);
      k8_.push_back(k8);
      ccs_.push_back(ccs);
      k9_.push_back(k9);
      cn_.push_back(cn);
      k10c_.push_back(k10c);
      k11_.push_back(k11);
      adj_a_.push_back(adj_a);
      adj_b_.push_back(adj_b);
    }
    max_total_procs_ += kind_max_procs;
  }

  if (check_memory_) {
    const cluster::ClusterSpec& spec = est.spec();
    os_reserved_ = spec.os_reserved;
    proc_overhead_ = spec.proc_overhead;
    node_memory_.reserve(spec.nodes.size());
    for (const auto& node : spec.nodes) {
      node_memory_.push_back(node.memory);
      // A node that pages on its OS baseline alone pages every
      // configuration — including ones that place nothing on it, which
      // the per-row accumulation below never visits.
      if (spec.os_reserved > node.memory) base_paged_ = true;
    }
    for (const auto& kind : kinds) {
      kind_pe_off_.push_back(kind_pe_nodes_.size());
      const std::vector<cluster::PeRef> pes = spec.pes_of_kind(kind.kind);
      for (const auto& pe : pes)
        kind_pe_nodes_.push_back(static_cast<std::uint32_t>(pe.node));
      kind_avail_.push_back(static_cast<int>(pes.size()));
      kind_name_.push_back(kind.kind);
    }
  }
}

BatchEstimator::Scratch BatchEstimator::make_scratch() const {
  Scratch sc;
  if (check_memory_) {
    sc.footprint.assign(node_memory_.size(), os_reserved_);
    sc.touched.assign(static_cast<std::size_t>(std::max(0, max_total_procs_)),
                      0);
  }
  return sc;
}

// hetsched-lint: hot-path-begin — the batched leaf-evaluation path must
// stay allocation-free (hot-path-alloc rule, docs/STATIC_ANALYSIS.md).

bool BatchEstimator::paged_row(const std::size_t* row, int total_procs,
                               Scratch& sc) const {
  if (base_paged_) return true;
  // Exact mirror of Estimator::predicted_paged through the same
  // add_kind_footprint, accumulated per node in rank order; only the
  // touched nodes are tested and reset.
  const ColumnShares shares(n_, nb_, total_procs);
  int r = 0;
  for (std::size_t k = 0; k < kind_count_; ++k) {
    const std::size_t j = off_[k] + row[k];
    const int pes = pes_[j];
    if (pes == 0) continue;
    HETSCHED_CHECK(pes <= kind_avail_[k],
                   "make_placement: not enough PEs of kind " + kind_name_[k]);
    r = add_kind_footprint(shares, kind_pe_nodes_.data() + kind_pe_off_[k],
                           pes, m_[j], r, proc_overhead_,
                           sc.footprint.data(), sc.touched.data());
  }
  bool paged = false;
  for (int i = 0; i < r; ++i)
    if (sc.footprint[sc.touched[i]] > node_memory_[sc.touched[i]])
      paged = true;
  for (int i = 0; i < r; ++i) sc.footprint[sc.touched[i]] = os_reserved_;
  return paged;
}

Seconds BatchEstimator::eval_row(const std::size_t* row,
                                 Scratch& sc) const {
  int used = 0;
  int total_procs = 0;
  int total_pes = 0;
  std::size_t only = 0;
  for (std::size_t k = 0; k < kind_count_; ++k) {
    const std::size_t j = off_[k] + row[k];
    if (pes_[j] == 0) continue;
    ++used;
    only = j;
    total_procs += procs_[j];
    total_pes += pes_[j];
  }
  if (used == 0) return kNaN;  // all-absent: not a candidate

  double total = 0.0;
  bool exact_bin = false;
  if (use_binning_ && used == 1 && nt_ok_[only]) {
    // Exact N-T bin (covers: single-usage config with its own model).
    exact_bin = true;
    total = std::max(0.0, nt_sum_[only]);
  } else {
    // covers(): with binning on, a single-PE configuration without its
    // own N-T model is uncovered (different physics).
    if (use_binning_ && total_pes == 1) return kNaN;
    const double p = static_cast<double>(total_procs);
    const double q =
        comm_uses_processors_ ? static_cast<double>(total_pes) : p;
    for (std::size_t k = 0; k < kind_count_; ++k) {
      const std::size_t j = off_[k] + row[k];
      if (pes_[j] == 0) continue;
      if (!pt_ok_[j]) return kNaN;  // covers(): P-T model required
      // Same grouping as PtModel::tai / ::tci with the n-only factors
      // pre-folded; components clamped at zero exactly as the scalar
      // Breakdown clamps them.
      const double tai = std::max(0.0, cs_[j] * (k7a_[j] / p + k8_[j]));
      const double tci = std::max(
          0.0, ccs_[j] * (k9_[j] * q * cn_[j] + k10c_[j] / q + k11_[j]));
      total = std::max(total, tai + tci);
    }
  }

  if (use_adjustment_ && !exact_bin) {
    // First used kind (in kind order == usage order) with a fitted
    // (kind, m) adjustment wins, as in the scalar path.
    for (std::size_t k = 0; k < kind_count_; ++k) {
      const std::size_t j = off_[k] + row[k];
      if (pes_[j] == 0) continue;
      if (adj_ok_[j]) {
        total = std::max(0.0, adj_a_[j] * total + adj_b_[j]);
        break;
      }
    }
  }

  if (check_memory_ && paged_row(row, total_procs, sc))
    total *= paged_penalty_;
  return total;
}

void BatchEstimator::estimate_rows(const std::size_t* rows, std::size_t count,
                                   Seconds* out, Scratch& scratch) const {
  for (std::size_t i = 0; i < count; ++i)
    out[i] = eval_row(rows + i * kind_count_, scratch);
}

// hetsched-lint: hot-path-end

Seconds BatchEstimator::estimate_row(const std::size_t* row,
                                     Scratch& scratch) const {
  return eval_row(row, scratch);
}

std::size_t BatchEstimator::count_covered(
    const std::vector<unsigned char>& excluded, int max_procs) const {
  HETSCHED_CHECK(excluded.size() == kind_count_,
                 "BatchEstimator::count_covered: one flag per kind");
  const int cap = std::clamp(max_procs, 0, max_total_procs_);
  const auto end = [&](std::size_t k) {
    return k + 1 < kind_count_ ? off_[k + 1] : pes_.size();
  };
  // eval_row covers a row of two or more kinds when every used choice
  // has a P-T model: ways[p] counts the partial rows over the kinds so
  // far with p processes whose used choices all have one (an excluded
  // kind is left out); next[] gathers the following kind's.
  std::vector<std::size_t> ways(static_cast<std::size_t>(cap) + 1, 0);
  std::vector<std::size_t> next(ways.size());
  ways[0] = 1;
  std::size_t optional = 0;  // kinds that can be left out
  for (std::size_t k = 0; k < kind_count_; ++k) {
    std::fill(next.begin(), next.end(), std::size_t{0});
    for (std::size_t j = off_[k]; j < end(k); ++j) {
      if (pes_[j] == 0)
        ++optional;
      else if (excluded[k] || !pt_ok_[j])
        continue;
      for (int p = 0; p + procs_[j] <= cap; ++p) next[p + procs_[j]] += ways[p];
    }
    ways.swap(next);
  }
  std::size_t covered =
      std::accumulate(ways.begin(), ways.end(), std::size_t{0});
  // Rows of fewer than two kinds have their own rules: the all-absent
  // row is no candidate, and a kind alone (every other kind left out)
  // is covered by its exact N-T bin, else by its P-T model unless
  // binning refuses it a single PE.
  if (optional == kind_count_) --covered;
  for (std::size_t k = 0; k < kind_count_; ++k) {
    bool own_absent = false;
    for (std::size_t j = off_[k]; j < end(k); ++j) own_absent |= pes_[j] == 0;
    if (excluded[k] || optional + (own_absent ? 0 : 1) != kind_count_) continue;
    for (std::size_t j = off_[k]; j < end(k); ++j) {
      if (pes_[j] == 0 || procs_[j] > cap) continue;
      covered += (use_binning_ && nt_ok_[j]) ||
                 (pt_ok_[j] && !(use_binning_ && pes_[j] == 1));
      covered -= pt_ok_[j];
    }
  }
  return covered;
}

}  // namespace hetsched::core
