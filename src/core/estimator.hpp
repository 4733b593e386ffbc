// The estimator: predicts total HPL execution time for a candidate
// configuration, combining every modeling device of the paper.
//
//  * Binning (§3.4): single-PE configurations (P = Mi, no inter-PE
//    traffic) use their N-T model; multi-PE configurations use the P-T
//    models, one per PE kind, combined as max_i (Tai + Tci).
//  * Memory bin (§3.4): configurations whose predicted per-node footprint
//    exceeds physical memory are flagged "paged" and penalized — the
//    regime the single Athlon enters at N = 10000 (Fig 3(a)).
//  * Composition (§3.5): PE kinds with too few processors to fit a P-T
//    model carry one composed from another kind (scaled copies).
//  * Adjustment (§4.1): per-(kind, Mi) linear corrections fitted at anchor
//    measurements patch the systematic communication-model deviation for
//    high multiprocessing levels (M1 >= 3).
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "core/nt_model.hpp"
#include "core/pt_model.hpp"
#include "support/units.hpp"

namespace hetsched::core {

struct EstimatorOptions {
  bool use_binning = true;     ///< N-T for single-PE configs (else P-T always)
  bool use_adjustment = true;  ///< apply the linear anchor corrections
  bool check_memory = true;    ///< penalize predicted-paged configurations
  double paged_penalty = 20.0; ///< time multiplier in the paged bin
  int nb = 64;                 ///< block size assumed by the memory model
  /// Evaluate Tci at the processor count Q instead of the process count P
  /// (our refinement: co-resident processes share the broadcast ring, so
  /// communication scales with processors — see pt_model.hpp). The paper
  /// uses P for both.
  bool comm_uses_processors = true;
};

/// Linear correction t ~ a * tau + b.
struct LinearMap {
  double a = 1.0;
  double b = 0.0;
  Seconds apply(Seconds t) const { return a * t + b; }
};

/// Where a model came from — the trust gradient reports split accuracy
/// by (see docs/ROBUSTNESS.md):
///   measured  — fitted directly from this configuration class's samples;
///   refined   — online refit from live observations (core/refit.hpp):
///               own production data, but a sliding window rather than a
///               controlled campaign, so it ranks just below measured;
///   composed  — §3.5 scaled copy of another kind's model (the class has
///               single-PE data but no PE sweep);
///   fallback  — degraded-mode composition after fault retries exhausted
///               the class's samples (little or no own data);
///   drifted   — the drift detector found live observations contradicting
///               this class's model (least trusted: positive evidence of
///               wrongness, pending re-measurement).
/// Enumerator order is the trust order; Breakdown::provenance combines
/// the serving models with std::max.
enum class Provenance { kMeasured, kRefined, kComposed, kFallback, kDrifted };

/// Stable lowercase tag ("measured" / "refined" / "composed" /
/// "fallback" / "drifted").
const char* to_string(Provenance p);

/// Inverse of to_string; throws hetsched::Error on unknown tags.
Provenance provenance_from_string(const std::string& tag);

class Estimator {
 public:
  /// Per-kind prediction detail.
  struct KindEstimate {
    std::string kind;
    int m = 0;
    Seconds tai = 0;
    Seconds tci = 0;
  };
  struct Breakdown {
    std::vector<KindEstimate> kinds;
    bool single_pe_bin = false;  ///< which model bin served the prediction
    bool paged = false;          ///< memory-bin flag
    bool adjusted = false;
    /// Least trusted provenance among the models that served the
    /// prediction (measured < refined < composed < fallback < drifted).
    Provenance provenance = Provenance::kMeasured;
    Seconds total = 0;
  };

  /// Predicted execution time of `config` at size n. Throws if the model
  /// set cannot cover the configuration.
  Seconds estimate(const cluster::Config& config, int n) const;

  /// Full detail of the same prediction.
  Breakdown breakdown(const cluster::Config& config, int n) const;

  /// True if estimate() would succeed for this configuration.
  bool covers(const cluster::Config& config) const;

  /// Predicted per-node memory footprint of `config` at size n, in bytes
  /// (OS reservation + per-process working set and overhead, exact
  /// block-cyclic column shares). The memory bin flags the config paged
  /// when any entry exceeds its node's physical memory.
  std::vector<Bytes> predicted_footprint(const cluster::Config& config,
                                         int n) const;

  const EstimatorOptions& options() const { return opts_; }
  /// Mutable options (ablation benches flip components on one model set).
  EstimatorOptions& options() { return opts_; }

  // -- wiring (used by ModelBuilder and tests) ------------------------------
  Estimator(cluster::ClusterSpec spec, EstimatorOptions opts);
  void add_nt(const NtKey& key, NtModel model,
              Provenance provenance = Provenance::kMeasured);
  void add_pt(const std::string& kind, int m, PtModel model,
              Provenance provenance = Provenance::kMeasured);
  void add_adjustment(const std::string& kind, int m, LinearMap map);

  const NtModel* nt(const NtKey& key) const;
  const PtModel* pt(const std::string& kind, int m) const;
  const LinearMap* adjustment(const std::string& kind, int m) const;

  /// Provenance of a stored model; kMeasured if the key is absent (the
  /// degenerate default keeps call sites branch-free).
  Provenance nt_provenance(const NtKey& key) const;
  Provenance pt_provenance(const std::string& kind, int m) const;

  // -- introspection (persistence, diagnostics) -----------------------------
  struct NtEntry {
    NtKey key;
    NtModel model;
    Provenance provenance = Provenance::kMeasured;
  };
  struct PtEntry {
    std::string kind;
    int m = 0;
    PtModel model;
    Provenance provenance = Provenance::kMeasured;
  };
  struct AdjustEntry {
    std::string kind;
    int m = 0;
    LinearMap map;
  };
  /// Entries in the lexicographic order of their "kind/pes/m" (N-T) or
  /// "kind/m" text, so m = 10 sorts before m = 2: the order the model
  /// fingerprint and the model file hash and write (DESIGN.md note 18).
  std::vector<NtEntry> nt_entries() const;
  std::vector<PtEntry> pt_entries() const;
  std::vector<AdjustEntry> adjust_entries() const;
  const cluster::ClusterSpec& spec() const { return spec_; }

  /// Human-readable inventory: model counts, coefficient summaries,
  /// adjustments. For CLI diagnostics.
  std::string describe() const;

 private:
  /// Integer model key: kind index into kinds_, PEs (0 in P-T and
  /// adjustment keys) and processes per PE. Lookups compare integers
  /// and format no text.
  struct Key {
    std::size_t kind = 0;
    int pes = 0;
    int m = 0;
    auto operator<=>(const Key&) const = default;
  };
  static constexpr std::size_t kNoKind = static_cast<std::size_t>(-1);

  /// Index of `kind` in kinds_, or kNoKind when neither the spec nor a
  /// stored model names it.
  std::size_t find_kind(const std::string& kind) const;
  /// Index of `kind`, appending a kind the spec does not list.
  std::size_t intern_kind(const std::string& kind);
  const NtEntry* find_nt(const std::string& kind, int pes, int m) const;
  const PtEntry* find_pt(const std::string& kind, int m) const;

  /// The prediction; fills `detail` (kinds, flags, provenance) when
  /// non-null. estimate() passes null and builds no per-kind detail.
  Seconds evaluate(const cluster::Config& config, int n,
                   Breakdown* detail) const;
  /// Adds every process's memory-bin footprint to `footprint` (one
  /// accumulator per node, pre-set to the OS reservation), validating the
  /// configuration exactly as cluster::make_placement does.
  void add_footprint(const cluster::Config& config, int n,
                     Bytes* footprint) const;
  bool predicted_paged(const cluster::Config& config, int n) const;

  cluster::ClusterSpec spec_;
  EstimatorOptions opts_;
  /// Kind names by index: the spec's kinds in first-appearance order,
  /// then kinds only a stored model names, in the order they were added.
  std::vector<std::string> kinds_;
  /// PE -> node table of each spec kind, in make_placement's PE order.
  std::vector<std::vector<std::uint32_t>> kind_nodes_;
  std::map<Key, NtEntry> nt_;
  std::map<Key, PtEntry> pt_;
  std::map<Key, AdjustEntry> adjust_;
};

// hetsched-lint: hot-path-begin — the memory bin's footprint arithmetic,
// shared by Estimator and BatchEstimator::paged_row; allocation-free.

/// Closed-form column shares of the memory bin's 1xP block-cyclic grid:
/// the value hpl::Grid1xP::local_cols computes with its block loop.
/// Blocks owned by rank r are r, r+P, r+2P, ..., all nb wide except
/// possibly the last global block.
struct ColumnShares {
  /// Requires size >= 1, block >= 1 and nprocs >= 1.
  ColumnShares(int size, int block, int nprocs)
      : n(size), nb(block), p(nprocs), nblocks((size + block - 1) / block) {
    const int last = nblocks - 1;
    const int last_start = last * nb;
    last_short = (last_start + nb <= n) ? 0 : nb - (n - last_start);
    last_owner = last % p;
  }
  int cols(int rank) const {
    const int count = rank < nblocks ? (nblocks - 1 - rank) / p + 1 : 0;
    int c = count * nb;
    if (rank == last_owner && count > 0) c -= last_short;
    return c;
  }
  int n;
  int nb;
  int p;
  int nblocks;
  int last_short = 0;  ///< columns the last block lacks of a full nb
  int last_owner = 0;
};

/// Adds the footprints of one kind's ranks — `m` slots over the PEs
/// `pe_node[0..pes)`, numbered from `rank` in make_placement's order —
/// to the per-node accumulators, in rank order (which keeps every sum
/// bit-identical to a placement walk). When `touched` is non-null,
/// touched[r] receives rank r's node. Returns the next rank.
inline int add_kind_footprint(const ColumnShares& sh,
                              const std::uint32_t* pe_node, int pes, int m,
                              int rank, Bytes proc_overhead, Bytes* footprint,
                              std::uint32_t* touched) {
  for (int s = 0; s < m; ++s) {
    for (int pp = 0; pp < pes; ++pp, ++rank) {
      const std::uint32_t node = pe_node[pp];
      const Bytes ws =
          static_cast<double>(sh.n) * sh.cols(rank) * kDoubleBytes +
          static_cast<double>(sh.n) * sh.nb * kDoubleBytes;
      footprint[node] += ws + proc_overhead;
      if (touched != nullptr) touched[rank] = node;
    }
  }
  return rank;
}

// hetsched-lint: hot-path-end

}  // namespace hetsched::core
