// Batched configuration estimation over a structure-of-arrays
// coefficient snapshot.
//
// Estimator::estimate prices one configuration through ordered model
// maps and a per-call kind lookup, under a microsecond — fine for a
// handful of calls, too slow at million-candidate search scale. A
// BatchEstimator snapshots, once per (estimator, space, n) triple,
// everything those lookups would produce:
// per-(kind, choice) flat arrays of the N-T bin total, the P-T
// coefficients folded with the problem size (k7*A(N), C(N), k10*C(N)),
// the adjustment map and the PE-to-node geometry of the memory bin. A
// row of per-kind choice indices is then priced with arithmetic and
// flag tests only — zero allocation per call, contiguous reads.
//
// Bit-identity contract: for every candidate row, estimate_rows yields
// the exact IEEE-754 double Estimator::estimate would return (NaN where
// covers() is false, and for the all-absent row). The snapshot folds
// only subexpressions the scalar path evaluates as a unit — e.g.
// Tci = ccs * ((k9*Q)*C + (k10*C)/Q + k11) keeps C(N) live and folds
// k10*C but not k9*C, because C++ associativity groups the scalar
// expression that way. tests/search_batch_parity_test.cpp sweeps
// randomized spaces asserting the equality bitwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/estimator.hpp"
#include "core/optimizer.hpp"

namespace hetsched::core {

/// Allocation-free batched estimate sweeps over one ConfigSpace.
///
/// Thread-safety: the snapshot is immutable after construction;
/// estimate_rows is const and safe to call concurrently provided each
/// caller passes its own Scratch.
///
/// Complexity: construction is O(total choices + nodes); estimate_rows
/// is O(rows * kinds), plus O(total processes) per row when the memory
/// bin is enabled.
class BatchEstimator {
 public:
  /// Snapshots `est`'s models and options for `space`'s choice lists at
  /// problem size `n`. The estimator and space may be destroyed
  /// afterwards; the snapshot is self-contained.
  BatchEstimator(const Estimator& est, const ConfigSpace& space, int n);

  std::size_t kind_count() const { return kind_count_; }
  int n() const { return n_; }

  /// Reusable per-caller working memory, sized at construction so
  /// estimate_rows never allocates. One per concurrent caller.
  struct Scratch {
    std::vector<Bytes> footprint;        ///< per-node accumulators
    std::vector<std::uint32_t> touched;  ///< nodes dirtied this row
  };
  Scratch make_scratch() const;

  /// Prices `count` candidate rows. `rows` holds count * kind_count()
  /// per-kind choice indices, row-major in the space's kind order.
  /// out[i] is bit-identical to Estimator::estimate of row i's
  /// configuration, or NaN where the models do not cover it (also for
  /// the all-absent row, which the scalar API refuses instead).
  void estimate_rows(const std::size_t* rows, std::size_t count,
                     Seconds* out, Scratch& scratch) const;

  /// Single-row convenience over estimate_rows.
  Seconds estimate_row(const std::size_t* row, Scratch& scratch) const;

  /// Rows estimate_rows would price as a number among those leaving out
  /// every kind with excluded[k] != 0 and running at most `max_procs`
  /// processes, counted from the coverage flags: O(choices * max_procs).
  std::size_t count_covered(const std::vector<unsigned char>& excluded,
                            int max_procs) const;

 private:
  Seconds eval_row(const std::size_t* row, Scratch& scratch) const;
  bool paged_row(const std::size_t* row, int total_procs,
                 Scratch& scratch) const;

  // --- options snapshot ---
  bool use_binning_ = true;
  bool use_adjustment_ = true;
  bool check_memory_ = true;
  bool comm_uses_processors_ = true;
  double paged_penalty_ = 1.0;
  int nb_ = 1;
  int n_ = 1;

  // --- per-(kind, choice) SoA, flattened; choice j of kind k lives at
  // off_[k] + j ---
  std::size_t kind_count_ = 0;
  std::vector<std::size_t> off_;
  std::vector<int> pes_;    ///< processors of the choice (0 = absent)
  std::vector<int> m_;      ///< processes per processor
  std::vector<int> procs_;  ///< pes * m
  std::vector<unsigned char> nt_ok_;   ///< exact N-T bin exists
  std::vector<unsigned char> pt_ok_;   ///< P-T model exists
  std::vector<unsigned char> adj_ok_;  ///< adjustment map exists
  std::vector<double> nt_sum_;  ///< Tai(N) + Tci(N) of the exact bin
  std::vector<double> cs_;      ///< P-T compute_scale
  std::vector<double> k7a_;     ///< k7 * A(N)
  std::vector<double> k8_;      ///< k8
  std::vector<double> ccs_;     ///< P-T comm_scale
  std::vector<double> k9_;      ///< k9
  std::vector<double> cn_;      ///< C(N)
  std::vector<double> k10c_;    ///< k10 * C(N)
  std::vector<double> k11_;     ///< k11
  std::vector<double> adj_a_;
  std::vector<double> adj_b_;

  // --- memory-bin geometry (used only when check_memory_) ---
  std::vector<std::size_t> kind_pe_off_;    ///< kind -> kind_pe_nodes_ slice
  std::vector<std::uint32_t> kind_pe_nodes_;  ///< PE -> node, per kind
  std::vector<int> kind_avail_;             ///< PEs available per kind
  std::vector<std::string> kind_name_;      ///< for placement errors
  std::vector<Bytes> node_memory_;
  Bytes os_reserved_ = 0;
  Bytes proc_overhead_ = 0;
  bool base_paged_ = false;  ///< some node pages even when unused
  int max_total_procs_ = 0;  ///< touched-list capacity
};

}  // namespace hetsched::core
