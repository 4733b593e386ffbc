// Work-stealing thread pool with a deterministic-by-construction
// parallel loop: one blocking `parallel_for` over an index range, no
// task graph. The repository's one thread pool — the configuration
// search (src/search), the measurement campaign (measure::Runner) and
// the server's batch fan-out all run on it.
//
// Work is uneven in every user: under a branch-and-bound search a
// pruned subtree costs nanoseconds while a surviving one prices
// hundreds of leaves, and a campaign's simulated runs span three orders
// of magnitude. So every context owns a deque of index chunks, runs its
// own front-to-back, and — when `stealing` is enabled — takes chunks
// from the *back* of a victim's deque once its own is empty, so
// imbalance migrates to whoever is idle.
//
// Determinism contract: which *context* runs index i depends on
// scheduling, but fn receives every index in [0, n) exactly once —
// each chunk sits in exactly one deque and is removed exactly once.
// Writing results into slot i and reducing the slots serially
// afterwards yields bit-identical output for any thread count and any
// steal pattern.
//
// With `stealing == false` the pool degrades to a fixed round-robin
// partition of the chunks with no migration — the differential tests
// toggle this to pin that stealing changes wall time only, never the
// answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace hetsched::support {

class WorkStealingPool {
 public:
  /// A pool of `threads` execution contexts *including* the caller:
  /// `threads - 1` workers are spawned, and the thread invoking
  /// parallel_for always participates. `threads == 0` sizes the pool to
  /// the hardware concurrency; `threads == 1` spawns nothing and runs
  /// loops inline.
  explicit WorkStealingPool(std::size_t threads = 0, bool stealing = true);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Execution contexts (workers + the participating caller).
  std::size_t size() const;

  /// Whether idle contexts migrate chunks from busy ones.
  bool stealing() const;

  /// Invokes fn(i) exactly once for every i in [0, n), distributed over
  /// the pool, and blocks until all of them completed. If the body
  /// throws, the first exception is rethrown on the caller after the
  /// loop is abandoned (remaining indices are skipped). Concurrent
  /// parallel_for calls from different threads are serialized.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  /// Cumulative chunks stolen across all parallel_for calls on this
  /// pool. The search engine reports per-sweep deltas as the
  /// `search.steal_count` metric (docs/OBSERVABILITY.md).
  std::uint64_t steals() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hetsched::support
