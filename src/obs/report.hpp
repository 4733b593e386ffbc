// Model-accuracy telemetry: the run report.
//
// PR 2 made the *execution* of this repository observable (metrics,
// trace spans). This layer makes the thing the paper lives or dies on —
// *prediction accuracy* — observable the same way. Every
// (config, N, model family, bin, predicted, measured) tuple flowing
// through the evaluation harness is recorded as a PredictionRecord;
// aggregation reduces them to per-family / per-bin calibration
// summaries (count, mean/max |error|, Pearson correlation, an |error|
// histogram — the statistics behind the paper's Tables 4/7/9 and
// Figs 6-15); serialization writes a versioned run-report JSON artifact
// next to the existing --trace-out/--metrics-out outputs
// (`--report-out=FILE`, see obs/io.hpp).
//
// On top of the artifact sit pure functions the tools/hetsched_report
// CLI and the CI regression gate are thin wrappers around:
// merge_reports() combines per-bench reports into one trajectory file
// (BENCH_*.json), diff_reports() compares a report against a committed
// baseline with per-metric thresholds.
//
// Layering: obs stays a leaf — this header knows nothing about
// core::Estimator or measure::Runner; the measurement layer constructs
// the records (see measure/evaluation.cpp) and hands them to the
// process-wide Recorder.
//
// Thread-safety: Recorder is safe from any thread (one mutex; the
// record paths run once per evaluated configuration, far from any hot
// loop). The free functions are pure.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "support/thread_annotations.hpp"

namespace hetsched::obs::report {

/// Version tag every artifact carries; parsers reject anything else.
inline constexpr char kSchema[] = "hetsched.run_report.v1";

/// Upper edges of the |relative error| histogram bins; bin i covers
/// [edge[i-1], edge[i]) with edge[-1] = 0, and one open overflow bin
/// follows the last edge.
inline constexpr std::array<double, 7> kHistEdges = {
    0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.00};
inline constexpr std::size_t kHistBins = kHistEdges.size() + 1;

/// Histogram bin an |relative error| value falls into.
std::size_t hist_bin(double abs_rel_err);

/// One prediction/measurement pair: what the estimator said a
/// configuration would cost at size n, and what the measurement said.
struct PredictionRecord {
  std::string family;  ///< model family / variant ("Basic", "NL-raw", ...)
  std::string bench;   ///< emitting binary or section
  std::string config;  ///< cluster::Config::to_string() of the candidate
  int n = 0;           ///< problem size
  std::string bin;     ///< estimator bin: "single-pe", "multi-pe", "paged"
  /// Least trusted model behind the prediction: "measured", "composed"
  /// (§3.5 scaled copy) or "fallback" (degraded mode after measurement
  /// failures, docs/ROBUSTNESS.md). Optional in the artifact — records
  /// written before this field default to "measured".
  std::string provenance = "measured";
  bool adjusted = false;  ///< §4.1 anchor correction applied
  double tai = 0;         ///< predicted Tai of the binding PE kind [s]
  double tci = 0;         ///< predicted Tci of the binding PE kind [s]
  double predicted = 0;   ///< predicted total T [s]
  double measured = 0;    ///< measured T [s]

  /// Signed relative error (predicted - measured) / measured;
  /// 0 when measured is 0 (degenerate, never produced by the harness).
  double rel_err() const;
};

/// Calibration summary of a set of records — the paper's error
/// statistics in machine-readable form.
struct AccuracyStats {
  std::uint64_t count = 0;
  double mean_rel_err = 0;      ///< signed bias
  double mean_abs_rel_err = 0;  ///< the Tables 4/7/9 "error" statistic
  double max_abs_rel_err = 0;
  double pearson_r = 0;  ///< corr(predicted, measured); 0 if degenerate
  std::array<std::uint64_t, kHistBins> hist{};  ///< |rel err| histogram
};

/// Aggregates records (all of them — callers pre-filter by family/bin).
AccuracyStats aggregate(const std::vector<const PredictionRecord*>& recs);

/// Per-family roll-up: everything, plus per-estimator-bin and
/// per-model-provenance splits (the latter is how composed/fallback
/// accuracy is told apart from measured accuracy).
struct FamilyAccuracy {
  AccuracyStats all;
  std::map<std::string, AccuracyStats> bins;
  std::map<std::string, AccuracyStats> provenance;
};

/// Thrown by from_json() and the merge/diff helpers on malformed or
/// incompatible report documents.
class SchemaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The versioned artifact `--report-out=` writes.
struct RunReport {
  std::string name;
  std::vector<PredictionRecord> records;
  /// Named scalar results: `bench.<name>.wall_s` wall times,
  /// `error.<family>.*` table-level error statistics,
  /// `cost.<family>.*` measurement-cost accounting.
  std::map<std::string, double> scalars;
  /// Aggregates by family; recompute_accuracy() derives them from
  /// `records`, merge/parse carry them even when records are stripped.
  std::map<std::string, FamilyAccuracy> accuracy;

  /// Rebuilds `accuracy` from `records`.
  void recompute_accuracy();

  /// Serializes as one JSON document (schema kSchema).
  void write_json(std::ostream& os) const;

  /// Strict inverse of write_json(); throws SchemaError on anything
  /// that is not a well-formed v1 report.
  static RunReport from_json(const json::Value& doc);

  /// parse_file + from_json. Throws json::ParseError / SchemaError.
  static RunReport load(const std::string& path);
};

/// Combines per-bench reports into one: records concatenated, scalars
/// unioned (conflicting values for the same name throw SchemaError),
/// aggregates recomputed from the combined records. `strip_records`
/// drops the raw records from the result (aggregates survive) — used
/// for committed baselines, which should stay diff-friendly.
RunReport merge_reports(const std::vector<RunReport>& parts,
                        std::string name, bool strip_records = false);

/// Per-metric thresholds of the regression gate.
struct DiffOptions {
  /// Error-like metrics regress when current > baseline +
  /// max(abs_tol, rel_tol * |baseline|).
  double abs_tol = 0.02;
  double rel_tol = 0.25;
  /// Wall-time scalars (`*.wall_s`) regress when current >
  /// baseline * wall_ratio + 1 s — an order-of-magnitude hang guard
  /// that stays robust across machines of different speed.
  double wall_ratio = 10.0;
  /// Treat baseline metrics absent from the current report as
  /// regressions instead of skipping them (full-suite runs only).
  bool require_all = false;
};

/// One compared metric.
struct DiffItem {
  std::string metric;
  double baseline = 0;
  double current = 0;
  double limit = 0;  ///< the value current was allowed to reach
  bool regressed = false;
};

struct DiffResult {
  std::vector<DiffItem> checked;      ///< every compared metric
  std::vector<std::string> skipped;   ///< baseline metrics absent now
  bool regressed() const;
  /// Names of the offending metrics (empty when the gate passes).
  std::vector<std::string> regressions() const;
};

/// Compares `current` against `baseline`: the accuracy aggregates
/// (mean/max error up = worse, correlation down = worse, count down =
/// lost coverage), the `error.*` scalars (up = worse) and the
/// `*.wall_s` scalars (ratio guard). Other scalars are informational.
DiffResult diff_reports(const RunReport& baseline, const RunReport& current,
                        const DiffOptions& opts = {});

/// Process-wide accuracy recorder. Disabled (and free) by default;
/// --report-out=FILE (obs/io.hpp) or an explicit enable() switches it
/// on. The evaluation harness stamps records with the current
/// family/bench context, which bench binaries set as they go.
class Recorder {
 public:
  static Recorder& instance();

  /// Switches recording on and starts the wall-time clock.
  void enable();
  bool enabled() const;

  void set_family(const std::string& family);
  void set_bench(const std::string& bench);
  std::string family() const;
  std::string bench() const;

  /// Appends a record (no-op when disabled). Empty family/bench fields
  /// are stamped from the current context.
  void record(PredictionRecord r);

  /// Sets scalar `name` (no-op when disabled; last write wins).
  void set_scalar(const std::string& name, double value);

  /// Snapshot: all records and scalars, aggregates recomputed, the
  /// elapsed wall time since enable() added as `bench.<bench>.wall_s`.
  /// `name` defaults to the bench context.
  RunReport build(const std::string& name = "") const;

  /// Back to the disabled, empty state (tests).
  void reset();

 private:
  Recorder() = default;

  mutable std::mutex mu_;
  bool enabled_ HETSCHED_GUARDED_BY(mu_) = false;
  /// steady-clock seconds at enable()
  double start_s_ HETSCHED_GUARDED_BY(mu_) = 0;
  std::string family_ HETSCHED_GUARDED_BY(mu_);
  std::string bench_ HETSCHED_GUARDED_BY(mu_) = "run";
  std::vector<PredictionRecord> records_ HETSCHED_GUARDED_BY(mu_);
  std::map<std::string, double> scalars_ HETSCHED_GUARDED_BY(mu_);
};

}  // namespace hetsched::obs::report
