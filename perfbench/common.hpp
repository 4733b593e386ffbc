// Shared definitions of the advisor benchmark: the served models, the
// seeded request streams of each workload and the answer oracles.
//
// Everything a workload sends is a pure function of (workload, seed), so
// the socket run, the traced in-process replay and the correctness
// replays all see the same sequence. See README.md for the workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/spec.hpp"
#include "core/optimizer.hpp"
#include "measure/plan.hpp"
#include "obs/json.hpp"
#include "server/snapshot.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace hetsched;

enum class Workload { kPaperHot, kLargeCold, kRefitChurn };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// The model a workload's server answers from: cluster, measurement plan
/// fitted at start-up, candidate space and the sizes prewarmed.
struct ServedModel {
  cluster::ClusterSpec spec;
  measure::MeasurementPlan plan;
  core::ConfigSpace space;
  std::vector<int> prewarm;
};
ServedModel served_model(Workload w);

/// Fits the plan and snapshots the model over the space, prewarmed: the
/// same calls hetsched_advisord's build_snapshot makes.
std::shared_ptr<const server::ModelSnapshot> build_snapshot(
    const ServedModel& model);

/// Server pool width (server::ServiceOptions::threads), fixed so that
/// runs on boxes of different sizes serve with the same threads.
inline constexpr int kServerPoolThreads = 2;

/// The 16 hot problem sizes of the read mix: 400, 800, ..., 6400.
std::vector<int> hot_sizes();

// --- request bodies (everything after the id member) ----------------------

std::string config_json(const cluster::Config& config);
std::string estimate_body(const cluster::Config& config, int n);
std::string advise_body(int n, int top, const std::vector<std::string>& exclude,
                        int max_total_procs);
std::string observe_body(const cluster::Config& config, int n,
                         double measured);
std::string op_body(const std::string& op);  ///< parameterless op
/// `{"hsp":1,"id":<id>,` + body.
std::string with_id(std::uint64_t id, const std::string& body);

// --- the read mix of paper-hot and of refit-churn's reader ----------------

struct ReadTemplate {
  bool advise = false;
  int n = 0;
  int top = 0;                       ///< advise only
  std::vector<std::string> exclude;  ///< advise only
  cluster::Config config;            ///< estimate only
  std::string body;
};

/// Every distinct read of the mix (advise top 1-3 with no or one kind
/// excluded, estimate of each candidate, at each hot size) and a seeded
/// Zipf draw over them.
class ReadMix {
 public:
  ReadMix(const core::ConfigSpace& space, std::uint64_t seed);
  const std::vector<ReadTemplate>& templates() const { return templates_; }
  /// Next read of a single-request connection (half advise, half estimate).
  std::size_t next(Rng& rng) const;
  /// Next read of a pipelined burst (estimates only).
  std::size_t next_estimate(Rng& rng) const;

 private:
  std::size_t draw_size(Rng& rng) const;
  std::vector<ReadTemplate> templates_;
  std::vector<std::size_t> advise_at_;    ///< first advise template per size
  std::vector<std::size_t> estimate_at_;  ///< first estimate template per size
  std::size_t estimates_per_size_ = 0;
  std::vector<double> size_cdf_;          ///< Zipf over a seeded permutation
};

/// Seeds of the independent request streams of one run.
inline std::uint64_t stream_seed(std::uint64_t seed, int stream) {
  return seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL * (stream + 1);
}

// --- large-cold: every advise carries its own constraints -----------------

struct ColdAdvise {
  int n = 0;
  int top = 1;
  std::vector<std::string> exclude;
  int max_total_procs = 0;
};
ColdAdvise next_cold_advise(Rng& rng, const core::ConfigSpace& space);

// --- writes: observes of homogeneous runs, rounds closed by refits -------

/// One writer op: an observe of (config, n) or, when `refit`, a refit.
struct WriteOp {
  bool refit = false;
  cluster::Config config;
  int n = 0;
};
inline constexpr int kWriterRounds = 32;
inline constexpr int kObservesPerRefit = 256;
/// The space's homogeneous configurations (a single kind), in the
/// space's order: the runs a writer reports.
std::vector<cluster::Config> homogeneous_configs(const core::ConfigSpace& space);
/// The problem sizes a writer reports: 2000-8000.
std::vector<int> writer_sizes();
/// `rounds` rounds of `observes` observes, each of a (configuration, size)
/// drawn with `seed` from `configs` x writer_sizes(), each round closed
/// by a refit.
std::vector<WriteOp> writer_sequence(const std::vector<cluster::Config>& configs,
                                     int rounds, int observes,
                                     std::uint64_t seed);
/// refit-churn's writer: kWriterRounds rounds of kObservesPerRefit
/// observes of the paper space's homogeneous runs (Athlon 1xM,
/// Pentium-II kx1). The sequence is the same for every run seed: the
/// refined model, and with it refit-churn's estimate_err and
/// selection_err, swings by a factor of three between writer sequences,
/// so a seeded sequence would bury any change to the refit under
/// seed-to-seed spread. The run seed varies the reads.
std::vector<WriteOp> churn_writes(const ServedModel& model);
/// The writes of the workloads whose read mix has none (paper-hot,
/// large-cold): kProbeRounds rounds of kProbeObserves observes of the
/// space's homogeneous runs, drawn with the run seed. Connection 1
/// cycles through their observes in the timed window, and the write
/// probe after the window sends the whole sequence.
inline constexpr int kProbeRounds = 96;
inline constexpr int kProbeObserves = 8;
std::vector<WriteOp> probe_writes(const ServedModel& model, std::uint64_t seed);
/// Measured wall time the writer reports for each op of `ops` (0 for
/// refits): the simulator's on `spec`, in a campaign of its own.
std::vector<double> writer_measurements(const cluster::ClusterSpec& spec,
                                        const std::vector<WriteOp>& ops);

/// Simulator wall times for (config, n) pairs on `spec`, measured by
/// measure::Runner with noise salt `salt` over two worker threads.
std::vector<double> simulate(
    const cluster::ClusterSpec& spec, std::uint64_t salt,
    const std::vector<std::pair<cluster::Config, int>>& runs);

// --- answer checks ---------------------------------------------------------

bool satisfies(const cluster::Config& config,
               const std::vector<std::string>& exclude, int max_total_procs);
/// Oracle top-k: core::rank_all filtered by the constraints.
std::vector<core::Ranked> oracle_top(const std::vector<core::Ranked>& ranked,
                                     const std::vector<std::string>& exclude,
                                     int max_total_procs, int top);
/// Parses a `config` member ([[kind,pes,m],...]); nullopt when malformed.
std::optional<cluster::Config> parse_config(const obs::json::Value& v);
/// The result object of an ok response, nullptr otherwise.
const obs::json::Value* ok_result(const obs::json::Value& response);

/// Exact sample quantile (nearest rank) of `v`; reorders `v`.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

}  // namespace perfbench
