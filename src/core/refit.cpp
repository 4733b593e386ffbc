#include "core/refit.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <string>

#include "linalg/lls.hpp"
#include "obs/hooks.hpp"
#include "support/error.hpp"

namespace hetsched::core {

namespace {

/// The single active usage entry of a homogeneous configuration, or
/// nullptr when the configuration is mixed/empty.
const cluster::KindUsage* sole_usage(const cluster::Config& config) {
  const cluster::KindUsage* active = nullptr;
  for (const auto& u : config.usage) {
    if (u.pes <= 0) continue;
    if (active != nullptr) return nullptr;
    active = &u;
  }
  return active;
}

/// Relative error of a prediction against the measured total.
double rel_err(double predicted, const Observation& o) {
  return (predicted - o.measured_total()) / o.measured_total();
}

/// Mean |relative error| of `predict(model, o)` against measured totals
/// over [begin, end) of a window.
template <typename Model, typename Predict>
double holdout_error(const std::deque<Observation>& window, std::size_t begin,
                     const Model& model, Predict predict) {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = begin; i < window.size(); ++i) {
    const Observation& o = window[i];
    sum += std::abs(rel_err(predict(model, o), o));
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

std::size_t distinct_ns(const std::deque<Observation>& window,
                        std::size_t end) {
  std::set<int> ns;
  for (std::size_t i = 0; i < end; ++i) ns.insert(window[i].n);
  return ns.size();
}

ClassRefit skip(ClassRefit cr, const char* reason) {
  cr.action = "skipped";
  cr.reason = reason;
  return cr;
}

/// Counts a class's window into `cr`. Returns the number of fit rows
/// (the window minus the holdout), or 0 when the window is below
/// min_samples.
std::size_t count_window(ClassRefit& cr, const std::deque<Observation>& window,
                         const RefitOptions& opts) {
  cr.samples = window.size();
  if (window.size() < opts.min_samples) return 0;
  const std::size_t fit_count = window.size() - opts.holdout;
  cr.distinct_n = distinct_ns(window, fit_count);
  return fit_count;
}

/// One fit row: a design row and its sample.
template <std::size_t Cols>
struct FitRow {
  std::array<double, Cols> x;
  double y;
};

/// Folds the fit rows `row(o)` of window[0, fit_count), oldest first,
/// into one QR factorization and solves it. The buffer already slides
/// the window, so nothing is ever removed from the factors. nullopt
/// when the rows do not determine the coefficients.
template <std::size_t Cols, typename Row>
std::optional<std::array<double, Cols>> fold_solve(
    const std::deque<Observation>& window, std::size_t fit_count, Row row) {
  linalg::QrFactors f = linalg::qr_empty(Cols);
  double sum_y = 0.0;
  for (std::size_t i = 0; i < fit_count; ++i) {
    FitRow<Cols> r = row(window[i]);
    linalg::qr_add_row(f, r.x, r.y);  // consumes r.x
    sum_y += r.y;
  }
  try {
    const std::vector<double> c = linalg::qr_solve(f, fit_count, sum_y).coeffs;
    std::array<double, Cols> out{};
    std::copy(c.begin(), c.end(), out.begin());
    return out;
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// The holdout verdict: scores the candidate and the incumbent on the
/// window's newest samples, [fit_count, end), and accepts the candidate
/// unless it scores worse there.
template <typename Model, typename Predict>
bool holdout_accepts(ClassRefit& cr, const std::deque<Observation>& window,
                     std::size_t fit_count, const RefitOptions& opts,
                     const Model& candidate, const Model& incumbent,
                     Predict predict) {
  cr.candidate_err = holdout_error(window, fit_count, candidate, predict);
  cr.incumbent_err = holdout_error(window, fit_count, incumbent, predict);
  if (opts.holdout > 0 && cr.candidate_err > cr.incumbent_err) {
    cr.action = "rejected";
    cr.reason = "holdout-worse";
    return false;
  }
  cr.action = "accepted";
  return true;
}

/// The pass's refined model: a copy of the incumbent, made when the
/// first class is accepted.
Estimator& refined_model(std::optional<Estimator>& model,
                         const Estimator& incumbent) {
  if (!model.has_value()) model.emplace(incumbent);
  return *model;
}

}  // namespace

ObservationBuffer::ObservationBuffer(std::size_t per_class_capacity,
                                     std::size_t max_classes)
    : per_class_capacity_(per_class_capacity), max_classes_(max_classes) {
  HETSCHED_CHECK(per_class_capacity >= 1,
                 "ObservationBuffer: per-class capacity must be >= 1");
  HETSCHED_CHECK(max_classes >= 1,
                 "ObservationBuffer: class cap must be >= 1");
}

std::string ObservationBuffer::class_key(const cluster::Config& config) {
  const cluster::KindUsage* u = sole_usage(config);
  if (u == nullptr) return std::string(kMixClass);
  // Single-PE bin: the observation exercises the N-T model.
  if (u->pes == 1)
    return "nt:" + u->kind + "/1/" + std::to_string(u->procs_per_pe);
  return "pt:" + u->kind + '/' + std::to_string(u->procs_per_pe);
}

bool ObservationBuffer::add(Observation obs) {
  HETSCHED_CHECK(obs.n >= 1, "ObservationBuffer: n must be >= 1");
  HETSCHED_CHECK(std::isfinite(obs.measured_tai) && obs.measured_tai >= 0.0 &&
                     std::isfinite(obs.measured_tci) &&
                     obs.measured_tci >= 0.0 && obs.measured_total() > 0.0,
                 "ObservationBuffer: measured parts must be finite, "
                 "non-negative, with a positive total");
  const std::string key = class_key(obs.config);
  auto it = windows_.find(key);
  if (it == windows_.end()) {
    if (windows_.size() >= max_classes_) return false;
    it = windows_.emplace(key, std::deque<Observation>{}).first;
  }
  it->second.push_back(std::move(obs));
  ++size_;
  if (it->second.size() > per_class_capacity_) {
    it->second.pop_front();
    --size_;
  }
  return true;
}

const std::deque<Observation>* ObservationBuffer::window(
    const std::string& key) const {
  const auto it = windows_.find(key);
  return it == windows_.end() ? nullptr : &it->second;
}

std::vector<std::string> ObservationBuffer::class_keys() const {
  std::vector<std::string> keys;
  keys.reserve(windows_.size());
  for (const auto& [key, w] : windows_) keys.push_back(key);
  return keys;
}

void ObservationBuffer::clear() {
  windows_.clear();
  size_ = 0;
}

WindowStats window_stats(const std::deque<Observation>& window,
                         std::uint64_t priced_by) {
  WindowStats stats;
  double sum = 0.0;
  double sum_abs = 0.0;
  for (const Observation& o : window) {
    if (o.priced_by != priced_by) continue;
    const double rel = rel_err(o.predicted_total, o);
    const double abs_rel = std::abs(rel);
    ++stats.count;
    sum += rel;
    sum_abs += abs_rel;
    stats.max_abs_rel_err = std::max(stats.max_abs_rel_err, abs_rel);
  }
  if (stats.count > 0) {
    stats.mean_rel_err = sum / static_cast<double>(stats.count);
    stats.mean_abs_rel_err = sum_abs / static_cast<double>(stats.count);
  }
  return stats;
}

RefitEngine::RefitEngine(RefitOptions opts) : opts_(opts) {
  HETSCHED_CHECK(opts_.min_samples > opts_.holdout,
                 "RefitEngine: min_samples must exceed the holdout");
  HETSCHED_CHECK(opts_.min_distinct_n >= 4,
                 "RefitEngine: the Tai polynomial needs 4 distinct N");
  HETSCHED_CHECK(opts_.drift_threshold > 0.0,
                 "RefitEngine: drift threshold must be positive");
}

RefitReport RefitEngine::refit(const Estimator& incumbent,
                               const ObservationBuffer& buf) const {
  RefitReport report;
  for (const std::string& key : buf.class_keys()) {
    if (key == ObservationBuffer::kMixClass) continue;
    const std::deque<Observation>& window = *buf.window(key);
    const cluster::KindUsage* u = sole_usage(window.front().config);
    HETSCHED_ASSERT(u != nullptr,
                    "refit: buffered class without a sole usage entry");
    ClassRefit cr;
    if (u->pes == 1) {
      cr = refit_nt(incumbent, NtKey{u->kind, u->pes, u->procs_per_pe},
                    window, report.model);
    } else {
      cr = refit_pt(incumbent, u->kind, u->procs_per_pe, window,
                    report.model);
    }
    cr.key = key;
    if (cr.action == "accepted") ++report.accepted;
    report.classes.push_back(std::move(cr));
  }
  std::size_t rejected = 0;
  for (const auto& c : report.classes)
    if (c.action == "rejected") ++rejected;
  HETSCHED_GAUGE_SET("core.refined_models",
                     static_cast<std::int64_t>(report.accepted));
  HETSCHED_GAUGE_SET("core.refined_rejected",
                     static_cast<std::int64_t>(rejected));
  return report;
}

ClassRefit RefitEngine::refit_nt(const Estimator& incumbent, const NtKey& key,
                                 const std::deque<Observation>& window,
                                 std::optional<Estimator>& model) const {
  ClassRefit cr;
  cr.is_nt = true;
  cr.kind = key.kind;
  cr.pes = key.pes;
  cr.m = key.m;
  const std::size_t fit_count = count_window(cr, window, opts_);
  if (fit_count == 0) return skip(cr, "insufficient-samples");
  if (cr.distinct_n < opts_.min_distinct_n)
    return skip(cr, "insufficient-distinct-n");
  const NtModel* inc = incumbent.nt(key);
  if (inc == nullptr) return skip(cr, "no-incumbent-model");

  // Fit in the scaled variable s = n / n_ref: the raw Vandermonde
  // columns {N^3..1} span ten orders of magnitude over a sweep, and the
  // row fold (unlike solve_lls) does not equilibrate columns.
  double n_ref = 1.0;
  for (std::size_t i = 0; i < fit_count; ++i)
    n_ref = std::max(n_ref, static_cast<double>(window[i].n));
  const auto scaled = [n_ref](const Observation& o) {
    return static_cast<double>(o.n) / n_ref;
  };
  const auto ca = fold_solve<4>(window, fit_count, [&](const Observation& o) {
    const double s = scaled(o);
    return FitRow<4>{{s * s * s, s * s, s, 1.0}, o.measured_tai};
  });
  const auto cc = fold_solve<3>(window, fit_count, [&](const Observation& o) {
    const double s = scaled(o);
    return FitRow<3>{{s * s, s, 1.0}, o.measured_tci};
  });
  if (!ca || !cc) return skip(cr, "rank-deficient");
  const NtModel refined(
      {(*ca)[0] / (n_ref * n_ref * n_ref), (*ca)[1] / (n_ref * n_ref),
       (*ca)[2] / n_ref, (*ca)[3]},
      {(*cc)[0] / (n_ref * n_ref), (*cc)[1] / n_ref, (*cc)[2]});

  if (holdout_accepts(cr, window, fit_count, opts_, refined, *inc,
                      [](const NtModel& nt, const Observation& o) {
                        return nt.total(o.n);
                      }))
    refined_model(model, incumbent).add_nt(key, refined, Provenance::kRefined);
  return cr;
}

ClassRefit RefitEngine::refit_pt(const Estimator& incumbent,
                                 const std::string& kind, int m,
                                 const std::deque<Observation>& window,
                                 std::optional<Estimator>& model) const {
  ClassRefit cr;
  cr.is_nt = false;
  cr.kind = kind;
  cr.m = m;
  const std::size_t fit_count = count_window(cr, window, opts_);
  if (fit_count == 0) return skip(cr, "insufficient-samples");
  const PtModel* inc = incumbent.pt(kind, m);
  if (inc == nullptr) return skip(cr, "no-incumbent-model");
  // With one PE count the Tci columns q*C(N) and C(N)/q are
  // proportional, so no solve can tell k9 from k10.
  const int first_pes = sole_usage(window.front().config)->pes;
  if (std::all_of(window.begin(),
                  window.begin() + static_cast<std::ptrdiff_t>(fit_count),
                  [first_pes](const Observation& o) {
                    return sole_usage(o.config)->pes == first_pes;
                  }))
    return skip(cr, "rank-deficient");

  // Keep the base curves A(N), C(N) and the composition scales fixed —
  // they encode the class's shape — and refit only k7..k11 on top, so
  // the candidate stays within the paper's model family (§3.3).
  PtModel::State st = inc->state();
  const bool comm_q = incumbent.options().comm_uses_processors;
  const auto p_of = [m](const Observation& o) {
    return static_cast<double>(sole_usage(o.config)->pes) * m;
  };
  const auto q_of = [&](const Observation& o) {
    const double pes = static_cast<double>(sole_usage(o.config)->pes);
    return comm_q ? pes : pes * m;
  };
  const auto kt = fold_solve<2>(window, fit_count, [&](const Observation& o) {
    const double a = st.a_p_base * st.a_base.tai(o.n);
    const double cs = st.compute_scale;
    return FitRow<2>{{cs * a / p_of(o), cs}, o.measured_tai};
  });
  const auto kc = fold_solve<3>(window, fit_count, [&](const Observation& o) {
    const double c = st.c_base.tci(o.n);
    const double ms = st.comm_scale;
    return FitRow<3>{{ms * q_of(o) * c, ms * c / q_of(o), ms}, o.measured_tci};
  });
  if (!kt || !kc) return skip(cr, "rank-deficient");
  st.kt = *kt;
  st.kc = *kc;
  const PtModel refined = PtModel::from_state(st);

  if (holdout_accepts(cr, window, fit_count, opts_, refined, *inc,
                      [&](const PtModel& pt, const Observation& o) {
                        return pt.tai(o.n, p_of(o)) + pt.tci(o.n, q_of(o));
                      }))
    refined_model(model, incumbent).add_pt(kind, m, refined,
                                           Provenance::kRefined);
  return cr;
}

DriftReport RefitEngine::detect_drift(
    const Estimator& incumbent, const ObservationBuffer& buf,
    std::optional<std::uint64_t> incumbent_fingerprint) const {
  DriftReport report;
  for (const std::string& key : buf.class_keys()) {
    if (key == ObservationBuffer::kMixClass) continue;
    const std::deque<Observation>& window = *buf.window(key);
    if (!incumbent.covers(window.front().config)) continue;
    double sum_abs = 0.0;
    std::set<int> drifted_ns;
    std::set<int> drifted_pes;
    for (const Observation& o : window) {
      const bool priced = incumbent_fingerprint.has_value() &&
                          o.priced_by == incumbent_fingerprint;
      const double pred =
          priced ? o.predicted_total : incumbent.estimate(o.config, o.n);
      const double rel = std::abs(rel_err(pred, o));
      sum_abs += rel;
      if (rel > opts_.drift_threshold) {
        drifted_ns.insert(o.n);
        drifted_pes.insert(sole_usage(o.config)->pes);
      }
    }
    const double mean_abs = sum_abs / static_cast<double>(window.size());
    if (!opts_.degraded(window.size(), mean_abs)) continue;
    const cluster::KindUsage* u = sole_usage(window.front().config);
    DriftClass dc;
    dc.key = key;
    dc.is_nt = u->pes == 1;
    dc.kind = u->kind;
    dc.m = u->procs_per_pe;
    dc.pe_counts.assign(drifted_pes.begin(), drifted_pes.end());
    dc.ns.assign(drifted_ns.begin(), drifted_ns.end());
    dc.count = window.size();
    dc.mean_abs_rel_err = mean_abs;
    report.classes.push_back(std::move(dc));
  }
  HETSCHED_GAUGE_SET("core.refined_drifted",
                     static_cast<std::int64_t>(report.classes.size()));
  return report;
}

void apply_drift(Estimator& model, const DriftReport& report) {
  for (const DriftClass& dc : report.classes) {
    if (dc.is_nt) {
      HETSCHED_ASSERT(!dc.pe_counts.empty(),
                      "apply_drift: N-T drift class without a PE count");
      const NtKey key{dc.kind, dc.pe_counts.front(), dc.m};
      if (const NtModel* nt = model.nt(key))
        model.add_nt(key, *nt, Provenance::kDrifted);
    } else {
      if (const PtModel* pt = model.pt(dc.kind, dc.m))
        model.add_pt(dc.kind, dc.m, *pt, Provenance::kDrifted);
    }
  }
}

}  // namespace hetsched::core
