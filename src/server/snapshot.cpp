#include "server/snapshot.hpp"

#include <utility>

#include "core/model_io.hpp"
#include "search/cache.hpp"

namespace hetsched::server {

ModelSnapshot::ModelSnapshot(core::Estimator est, core::ConfigSpace space)
    : ModelSnapshot(std::move(est), std::move(space), std::string()) {
  cluster_fingerprint_ = core::cluster_fingerprint(estimator_.spec());
}

ModelSnapshot::ModelSnapshot(core::Estimator est, core::ConfigSpace space,
                             std::string cluster_fingerprint)
    : estimator_(std::move(est)),
      space_(std::move(space)),
      fingerprint_(search::estimator_fingerprint(estimator_)),
      cluster_fingerprint_(std::move(cluster_fingerprint)),
      candidates_(space_.size()) {}

std::shared_ptr<const core::BatchEstimator> ModelSnapshot::batch_for(
    int n) const {
  std::lock_guard<std::mutex> l(warm_mu_);
  const auto it = warm_.find(n);
  if (it != warm_.end()) return it->second;
  auto batch = std::make_shared<const core::BatchEstimator>(estimator_,
                                                            space_, n);
  if (warm_.size() >= kMaxWarmSizes) warm_.erase(warm_.begin());
  warm_.emplace(n, batch);
  return batch;
}

std::size_t ModelSnapshot::warmed_sizes() const {
  std::lock_guard<std::mutex> l(warm_mu_);
  return warm_.size();
}

}  // namespace hetsched::server
