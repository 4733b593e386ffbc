// Measurement runner: executes plans against the simulated cluster and
// reduces HPL runs to estimation samples.
//
// This is the stand-in for the paper's six hours of wall-clock benchmark
// runs; on the simulator a full Basic sweep takes under a second. Runs are
// cached by (configuration, N) so evaluation passes that revisit
// configurations pay once, and run_plan simulates a plan's runs on every
// core (DESIGN.md note 17).
#pragma once

#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/spec.hpp"
#include "core/sample.hpp"
#include "measure/faults.hpp"
#include "measure/plan.hpp"

namespace hetsched::measure {

/// A measurable workload: simulate `config` at problem size n with the
/// given noise salt and reduce the run to a Sample. The default is the
/// HPL cost engine; other applications (e.g. apps::run_stencil_workload)
/// plug in here — the estimation pipeline above is workload-agnostic.
/// Runner::run_plan calls it concurrently from several threads, so it
/// must be safe to call concurrently and a pure function of its
/// arguments.
using WorkloadFn = std::function<core::Sample(
    const cluster::ClusterSpec&, const cluster::Config&, int n,
    std::uint64_t salt)>;

/// The default workload: simulated HPL with block size nb.
WorkloadFn hpl_workload(int nb = 64);

/// Bounded re-runs of faulted measurements. A run gets `max_attempts`
/// tries; failed attempts wait an exponentially growing backoff in
/// *simulated* time (accounted into Sample::measured_cost, never a wall
/// clock) before the re-run. When every attempt fails, the run is
/// abandoned and Runner::measure throws MeasurementFailure.
struct RetryPolicy {
  int max_attempts = 3;
  /// Also re-run attempts whose outcome was a detected outlier (a
  /// watchdog that notices a wildly slow run). Off by default: a real
  /// campaign cannot recognize a silent outlier — robust fitting is the
  /// defense of record (docs/ROBUSTNESS.md).
  bool retry_outliers = false;
  double backoff_base_s = 1.0;  ///< wait before the first re-run
  double backoff_mult = 2.0;    ///< growth per further re-run
};

/// A (config, n) measurement abandoned after exhausting the retry budget.
struct FailedRun {
  cluster::Config config;
  int n = 0;
  int attempts = 0;  ///< attempts spent before giving up
};

class Runner {
 public:
  /// `salt` decorrelates the noise of independent measurement campaigns.
  explicit Runner(cluster::ClusterSpec spec, int nb = 64,
                  std::uint64_t salt = 1);

  /// Runner over a custom workload.
  Runner(cluster::ClusterSpec spec, WorkloadFn workload,
         std::uint64_t salt = 1);

  /// Runs (or fetches from cache) one configuration at size n. Throws
  /// MeasurementFailure when fault injection exhausts the retry budget
  /// (also on any later call for the same key — a failed run is failed
  /// exactly once, with one round of accounting).
  const core::Sample& measure(const cluster::Config& config, int n);

  /// Runs `repeats` independent trials and averages them into one sample
  /// (wall and per-kind times averaged, measuring cost accumulated).
  /// Throws MeasurementFailure when any trial exhausts the retry budget.
  const core::Sample& measure_repeated(const cluster::Config& config, int n,
                                       int repeats);

  /// Executes a full plan: every construction configuration at every
  /// construction size, plus the adjustment anchors. Permanently failed
  /// runs are skipped (recorded via MeasurementSet::failures() and
  /// failures() here) instead of aborting the campaign. The plan's
  /// uncached runs are simulated in parallel, one thread per hardware
  /// core at most, then committed in plan order: the result, the cache,
  /// every counter and failures() equal a serial measure_repeated pass
  /// over the plan, bit for bit.
  core::MeasurementSet run_plan(const MeasurementPlan& plan);

  /// Installs a fault-injection plan (measure/faults.hpp). Replaces any
  /// previous plan; a default-constructed FaultPlan disables injection.
  void set_faults(FaultPlan plan);

  /// Installs the retry policy applied when injected faults fail runs.
  void set_retry(RetryPolicy policy);

  /// Number of actual (non-cached) simulated runs so far.
  std::size_t runs_executed() const { return runs_; }

  /// Re-runs scheduled by the retry policy so far.
  std::size_t retries_executed() const { return retries_; }

  /// Fault events injected so far (failures + stragglers + outliers).
  std::size_t faults_injected() const { return faults_injected_; }

  /// Runs abandoned after exhausting the retry budget, in plan order.
  const std::vector<FailedRun>& failures() const { return failures_; }

  const FaultInjector& faults() const { return injector_; }
  const RetryPolicy& retry() const { return retry_; }

  const cluster::ClusterSpec& spec() const { return spec_; }

 private:
  /// One cache key's simulation before it is committed: the averaged
  /// sample (or the failure), and every tally the runner and the
  /// `measure.*` metrics take from it, in the order they arose.
  struct Outcome {
    core::Sample sample;
    bool failed = false;        ///< an attempt budget ran out
    std::exception_ptr error;   ///< the workload threw; rethrown on commit
    std::size_t started = 0;    ///< workload calls begun (measure.runs)
    std::size_t faults = 0;     ///< injected fault events
    std::size_t aborted = 0;    ///< attempts the injector failed
    std::vector<double> walls;  ///< one per completed workload call
    std::vector<double> waits;  ///< backoff before each re-run
  };

  std::string cache_key(const cluster::Config& config, int n,
                        int repeats) const;

  /// The cached sample of `key`, counting a cache hit; nullptr if the
  /// key has not been measured. Throws MeasurementFailure for a key that
  /// already failed permanently.
  const core::Sample* cached(const std::string& key) const;

  /// Simulates `repeats` trials of (config, n) under the retry policy.
  /// Touches no runner state, so distinct keys may run concurrently.
  Outcome simulate(const cluster::Config& config, int n, int repeats,
                   const std::string& key) const;

  /// One trial from per-trial hash `h_base`, tallied into `out`; empty
  /// when every attempt failed.
  std::optional<core::Sample> attempt_run(const cluster::Config& config,
                                          int n, std::uint64_t h_base,
                                          Outcome& out) const;

  /// Applies `out` to the runner and the metrics as a cache miss of
  /// `key`: caches the sample, or registers the failure and throws
  /// MeasurementFailure, or rethrows the workload's exception.
  const core::Sample& commit(const std::string& key,
                             const cluster::Config& config, int n,
                             const Outcome& out);

  cluster::ClusterSpec spec_;
  WorkloadFn workload_;
  std::uint64_t salt_;
  std::size_t runs_ = 0;
  std::size_t retries_ = 0;
  std::size_t faults_injected_ = 0;
  std::map<std::string, core::Sample> cache_;
  FaultInjector injector_;
  RetryPolicy retry_;
  std::vector<FailedRun> failures_;
  std::set<std::string> failed_keys_;
};

}  // namespace hetsched::measure
