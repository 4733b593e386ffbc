// Configuration search: the combinatorial optimization of §3.1.
//
// The paper enumerates every candidate configuration and picks the minimum
// predicted time (62 candidates on its cluster). Its §5 names search-space
// reduction as future work; `best_greedy` implements a simple coordinate
// hill-climbing heuristic and the bench suite compares it against the
// exhaustive optimum.
#pragma once

#include <vector>

#include "cluster/config.hpp"
#include "core/estimator.hpp"

namespace hetsched::core {

/// The candidate space, expressed per kind as a list of (pes, procs_per_pe)
/// options; (0, 0) means "kind unused" (at most one absent option per
/// kind). The space is the cartesian product minus the empty
/// configuration. Candidates are indexable without materializing the
/// product: `config_at(i)` decodes the i-th candidate of the `all()`
/// enumeration order directly, which is what lets the parallel search
/// engine (src/search) chunk the space across threads.
class ConfigSpace {
 public:
  struct KindOptions {
    std::string kind;
    std::vector<std::pair<int, int>> choices;  // (pes, m)
  };

  /// Inclusive per-kind ranges, the common production shape: use
  /// min_pes..max_pes processors of the kind, each running min_m..max_m
  /// processes; `optional` additionally allows leaving the kind out.
  struct KindRange {
    std::string kind;
    int min_pes = 1;
    int max_pes = 1;
    int min_m = 1;
    int max_m = 1;
    bool optional = true;
  };

  explicit ConfigSpace(std::vector<KindOptions> kinds);

  /// The paper's evaluation space (Table 2): Athlon absent or 1 PE with
  /// M1 = 1..6; Pentium-II absent or 1..8 PEs with M2 = 1.
  static ConfigSpace paper_eval();

  /// Multi-kind generalization: the cross product of per-kind PE and
  /// multiprocessing ranges.
  static ConfigSpace ranges(const std::vector<KindRange>& kinds);

  /// The space induced by a cluster: for every PE kind of `spec`, use
  /// 0 (absent) .. all available PEs of that kind, at 1..max_m processes
  /// per PE.
  static ConfigSpace for_cluster(const cluster::ClusterSpec& spec,
                                 int max_m);

  /// Every candidate configuration, in enumeration order (kind 0's
  /// choice list varies fastest).
  std::vector<cluster::Config> all() const;

  /// Number of candidates, computed without materializing the product.
  std::size_t size() const;

  /// The i-th candidate of the `all()` order, decoded on the fly.
  cluster::Config config_at(std::size_t index) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  const std::vector<KindOptions>& kinds() const { return kinds_; }

 private:
  /// Raw odometer rank of the all-absent combination, or npos if some
  /// kind has no absent choice (then no empty combination exists).
  std::size_t empty_rank() const;

  std::vector<KindOptions> kinds_;
};

struct Ranked {
  cluster::Config config;
  Seconds estimate = 0;
};

/// All candidates the estimator covers, sorted by predicted time; ties
/// keep enumeration order (the deterministic total order the parallel
/// engine reproduces exactly).
std::vector<Ranked> rank_all(const Estimator& est, const ConfigSpace& space,
                             int n);

/// Exhaustive optimum (throws if no candidate is covered by the models).
/// Serial reference implementation — kept as the oracle the search
/// engine's parity tests compare against.
Ranked best_exhaustive(const Estimator& est, const ConfigSpace& space, int n);

/// Coordinate hill-climbing: start from every kind maxed out at m = 1 (or
/// its closest available option), repeatedly move one kind one step along
/// its option list while the prediction improves. Returns the local
/// optimum and the number of estimator calls spent.
struct GreedyResult {
  Ranked best;
  std::size_t evaluations = 0;
};
GreedyResult best_greedy(const Estimator& est, const ConfigSpace& space,
                         int n);

}  // namespace hetsched::core
