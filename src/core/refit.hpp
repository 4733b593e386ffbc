// Online model refinement from live observations (ROADMAP item 1).
//
// The paper fits its Nt/Pt models once from an offline measurement
// campaign; this module closes the production loop instead: every
// completed run's (config, N, measured Tai/Tci) lands in a bounded
// ObservationBuffer with per-class sliding windows, and a RefitEngine
// periodically turns those windows into candidate coefficients. The
// buffer is the only sliding window: each pass folds a class's fit rows
// into one QR factorization with Givens rotations (linalg::qr_add_row)
// and solves it, so nothing is ever downdated. Candidates are tagged
// with the `refined` provenance and only accepted when they
// beat the incumbent model on a held-out slice of the newest
// observations — the uncertainty-aware framing of Bayesian performance
// prediction (PAPERS.md, arXiv 2110.14545): trust a refit only when the
// evidence says it generalizes. Drift detection downgrades classes
// whose live error exceeds tolerance to the `drifted` provenance and
// names the exact (kind, N) cells a targeted re-measure plan must cover
// (measure::remeasure_plan builds the plans; core cannot depend on
// measure).
//
// The buffer is also the ledger that answers "is this model class
// wrong" (window_stats, RefitOptions::degraded).
//
// Everything here is deterministic: same buffer + same incumbent =>
// same report, byte for byte (the server's `refit` op result documents
// and the golden transcripts rely on it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/config.hpp"
#include "core/estimator.hpp"

namespace hetsched::core {

/// One completed run fed back from production. Measured computation and
/// communication seconds; when the caller only has the measured total,
/// split it by the incumbent prediction's tai/tci ratio (what the
/// server's `observe` ingest does).
///
/// An observation may also carry its price: the total the serving model
/// predicted for it, and that model's content fingerprint (the server
/// uses search::estimator_fingerprint). Equal fingerprints must mean
/// equal predictions; detect_drift then reuses the price instead of
/// re-estimating. An unpriced observation (no fingerprint) is always
/// re-estimated.
struct Observation {
  cluster::Config config;
  int n = 0;
  double measured_tai = 0.0;
  double measured_tci = 0.0;
  double predicted_total = 0.0;
  std::optional<std::uint64_t> priced_by = std::nullopt;

  double measured_total() const { return measured_tai + measured_tci; }
};

/// Bounded ring of observations with one sliding window per model
/// class. A class is the model an observation can refine: single-PE
/// configurations refine their N-T model ("nt:kind/pes/m"), homogeneous
/// multi-PE configurations refine their (kind, m) P-T model
/// ("pt:kind/m"). Configurations of two or more kinds touch several
/// models at once; they share one window, kMixClass, which the ledger
/// scores and no refit reads. Oldest observations fall off a full class
/// window; the class set itself is capped so a misbehaving feed cannot
/// grow memory without bound.
///
/// Not thread-safe: the server guards its buffer with a mutex.
class ObservationBuffer {
 public:
  /// Class key of every configuration of two or more kinds.
  static constexpr std::string_view kMixClass = "mix";

  explicit ObservationBuffer(std::size_t per_class_capacity = 64,
                             std::size_t max_classes = 64);

  /// Model-class key of a configuration; kMixClass when it spans
  /// several kinds.
  static std::string class_key(const cluster::Config& config);

  /// Ingests one observation; false when refused because max_classes
  /// is reached and its class is new. Requires n >= 1 and finite,
  /// non-negative measured parts with a positive total.
  bool add(Observation obs);

  std::size_t size() const { return size_; }
  std::size_t classes() const { return windows_.size(); }
  std::size_t per_class_capacity() const { return per_class_capacity_; }

  /// Sliding window of one class, oldest first; nullptr when absent.
  const std::deque<Observation>* window(const std::string& key) const;

  /// All class keys, sorted (deterministic iteration order for refits).
  std::vector<std::string> class_keys() const;

  void clear();

 private:
  std::size_t per_class_capacity_;
  std::size_t max_classes_;
  std::size_t size_ = 0;
  std::map<std::string, std::deque<Observation>> windows_;
};

struct RefitOptions {
  /// Fewest window samples before a class refit is attempted (the
  /// newest `holdout` of them are excluded from the fit).
  std::size_t min_samples = 8;
  /// Fewest distinct N values in the fit slice (the Tai polynomial has
  /// four coefficients).
  std::size_t min_distinct_n = 4;
  /// Newest samples per class held out of the fit; the acceptance guard
  /// compares candidate vs incumbent mean |relative error| on them.
  std::size_t holdout = 2;
  /// Drift: a class whose window mean |relative error| against the
  /// incumbent exceeds this (with at least drift_min_count samples) is
  /// downgraded to the `drifted` provenance.
  double drift_threshold = 0.25;
  std::size_t drift_min_count = 8;

  /// The one rule for "is this model class wrong", which `observe`,
  /// `health` and detect_drift all apply.
  bool degraded(std::size_t count, double mean_abs_rel_err) const {
    return count >= drift_min_count && mean_abs_rel_err > drift_threshold;
  }
};

/// One class window scored against one model: the observations that
/// model priced, with rel err = (predicted - measured) / measured.
struct WindowStats {
  std::size_t count = 0;
  double mean_rel_err = 0.0;
  double mean_abs_rel_err = 0.0;
  double max_abs_rel_err = 0.0;
};

/// The statistics of the observations in `window` priced by the model
/// with fingerprint `priced_by`, from their stored prices (no estimator
/// call): a model with new content starts at count 0, and a drift
/// downgrade or an identical reload keeps the evidence.
WindowStats window_stats(const std::deque<Observation>& window,
                         std::uint64_t priced_by);

/// Outcome of one class's refit attempt. `action` is a stable tag the
/// server renders verbatim: "accepted", "rejected" (holdout worse),
/// "skipped" (see `reason`).
struct ClassRefit {
  std::string key;
  bool is_nt = false;
  std::string kind;
  int pes = 0;  ///< N-T classes only (1 for the single-PE bin)
  int m = 0;
  std::string action;
  std::string reason;  ///< "" when accepted
  std::size_t samples = 0;
  std::size_t distinct_n = 0;
  /// Mean |relative error| on the holdout slice (only when a candidate
  /// was actually fitted and compared).
  double incumbent_err = 0.0;
  double candidate_err = 0.0;
};

struct RefitReport {
  std::vector<ClassRefit> classes;  ///< sorted by key
  std::size_t accepted = 0;
  /// Copy of the incumbent with every accepted class's model replaced
  /// by its refined candidate (provenance kRefined). Absent when no
  /// class was accepted; the incumbent is copied only when one is.
  std::optional<Estimator> model;
};

/// One drifted model class and the exact cells to re-measure.
struct DriftClass {
  std::string key;
  bool is_nt = false;
  std::string kind;
  int m = 0;
  std::vector<int> pe_counts;  ///< distinct PE counts among drifted runs
  std::vector<int> ns;         ///< distinct N of runs past the threshold
  std::size_t count = 0;
  double mean_abs_rel_err = 0.0;
};

struct DriftReport {
  std::vector<DriftClass> classes;  ///< sorted by key
  bool empty() const { return classes.empty(); }
};

/// Turns per-class observation windows into refined candidate models.
class RefitEngine {
 public:
  explicit RefitEngine(RefitOptions opts = {});

  const RefitOptions& options() const { return opts_; }

  /// Attempts a refit of every class in `buf` against `incumbent`
  /// (kMixClass refines no single model and is skipped).
  /// Deterministic; never modifies the incumbent.
  RefitReport refit(const Estimator& incumbent,
                    const ObservationBuffer& buf) const;

  /// Flags classes (kMixClass aside) that RefitOptions::degraded
  /// judges against `incumbent`, with the distinct (kind, N) cells to
  /// re-measure.
  /// With the incumbent's content fingerprint, an observation priced by
  /// that same fingerprint keeps its price; every other observation is
  /// re-estimated. The report is the same either way.
  DriftReport detect_drift(
      const Estimator& incumbent, const ObservationBuffer& buf,
      std::optional<std::uint64_t> incumbent_fingerprint = {}) const;

 private:
  // Each refits one class against the incumbent; an accepted class is
  // added to `model`, which is copied from the incumbent on first use.
  ClassRefit refit_nt(const Estimator& incumbent, const NtKey& key,
                      const std::deque<Observation>& window,
                      std::optional<Estimator>& model) const;
  ClassRefit refit_pt(const Estimator& incumbent, const std::string& kind,
                      int m, const std::deque<Observation>& window,
                      std::optional<Estimator>& model) const;

  RefitOptions opts_;
};

/// Downgrades every class in `report` to Provenance::kDrifted on
/// `model` (classes whose model is absent are ignored).
void apply_drift(Estimator& model, const DriftReport& report);

}  // namespace hetsched::core
