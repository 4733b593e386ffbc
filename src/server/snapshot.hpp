// Immutable model snapshot: everything one advisor answer depends on.
//
// The service publishes a `shared_ptr<const ModelSnapshot>` through a
// mutex-guarded slot (see service.hpp). A request thread copies the
// pointer once and answers entirely from that object — estimator,
// candidate space, fingerprints, warmed batch sweeps — so a concurrent
// reload (refit, new model file) swaps the slot without tearing a
// reader: in-flight requests finish on the old snapshot,
// which the shared_ptr keeps alive, and the next request sees the new
// one. This is the open-lmake shape: the book-keeping engine stays
// resident and hot while the model underneath it is replaced.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/batch.hpp"
#include "core/estimator.hpp"
#include "core/optimizer.hpp"
#include "support/thread_annotations.hpp"

namespace hetsched::server {

/// One immutable (estimator, candidate space) pair with identity.
///
/// Thread-safety: logically immutable; every member is safe to call
/// concurrently. batch_for() memoizes lazily under an internal mutex,
/// which only serializes the *first* query per problem size — the
/// returned BatchEstimator is shared and itself concurrency-safe (one
/// Scratch per caller).
class ModelSnapshot {
 public:
  /// Snapshots `est` over candidate space `space`, computing both
  /// identity fingerprints (model content and cluster geometry).
  ModelSnapshot(core::Estimator est, core::ConfigSpace space);
  /// Same, with the cluster fingerprint of `est.spec()` already known:
  /// a refit keeps the spec, so its snapshot reuses the incumbent's.
  ModelSnapshot(core::Estimator est, core::ConfigSpace space,
                std::string cluster_fingerprint);

  const core::Estimator& estimator() const { return estimator_; }
  const core::ConfigSpace& space() const { return space_; }

  /// Content fingerprint of the model set (search::estimator_fingerprint):
  /// changes whenever any coefficient or option changes.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Fingerprint of the cluster geometry the models were fitted on
  /// (core::cluster_fingerprint).
  const std::string& cluster_fingerprint() const {
    return cluster_fingerprint_;
  }

  /// Number of candidate configurations in the space.
  std::size_t candidates() const { return candidates_; }

  /// Warmed batched estimator for problem size `n`, built on first use
  /// and memoized (bounded: the oldest-size entry is dropped past
  /// kMaxWarmSizes — advisor traffic concentrates on few sizes, and a
  /// rebuild costs only O(choices)).
  std::shared_ptr<const core::BatchEstimator> batch_for(int n) const;

  /// Sizes currently memoized (for stats reporting).
  std::size_t warmed_sizes() const;

  static constexpr std::size_t kMaxWarmSizes = 64;

 private:
  // The snapshot proper is immutable after construction — that is its
  // entire point (readers share it through shared_ptr without locks);
  // only the warm-cache memo mutates, under warm_mu_.
  core::Estimator estimator_ HETSCHED_NOT_GUARDED("immutable after construction");
  core::ConfigSpace space_ HETSCHED_NOT_GUARDED("immutable after construction");
  std::uint64_t fingerprint_ HETSCHED_NOT_GUARDED(
      "immutable after construction") = 0;
  std::string cluster_fingerprint_ HETSCHED_NOT_GUARDED(
      "immutable after construction");
  std::size_t candidates_ HETSCHED_NOT_GUARDED(
      "immutable after construction") = 0;

  mutable std::mutex warm_mu_;
  mutable std::map<int, std::shared_ptr<const core::BatchEstimator>> warm_
      HETSCHED_GUARDED_BY(warm_mu_);
};

}  // namespace hetsched::server
