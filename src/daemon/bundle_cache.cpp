#include "daemon/bundle_cache.hpp"

#include <utility>

#include "core/contracts.hpp"

namespace vmincqr::daemon {

BundleCache::BundleCache(std::size_t capacity) : capacity_(capacity) {
  VMINCQR_REQUIRE(capacity > 0, "BundleCache: capacity must be positive");
}

std::shared_ptr<const serve::VminPredictor> BundleCache::get(
    const std::string& key) {
  const parallel::ScopedLock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  order_.splice(order_.begin(), order_, it->second);
  return it->second->second;
}

void BundleCache::put(const std::string& key,
                      std::shared_ptr<const serve::VminPredictor> predictor) {
  VMINCQR_REQUIRE(predictor != nullptr, "BundleCache: null predictor");
  // The bundle this put displaces (the key's previous predictor, or the LRU
  // victim) may be the last reference to a decoded model. `displaced` is
  // declared before the lock, so it is destroyed after the unlock, as in
  // SwapCell::store: get() never waits on a model teardown.
  std::shared_ptr<const serve::VminPredictor> displaced;
  const parallel::ScopedLock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    displaced = std::exchange(it->second->second, std::move(predictor));
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  order_.emplace_front(key, std::move(predictor));
  index_[key] = order_.begin();
  // One insertion overfills a full cache by exactly one entry.
  if (order_.size() > capacity_) {
    displaced = std::move(order_.back().second);
    index_.erase(order_.back().first);
    order_.pop_back();
    ++stats_.evictions;
  }
}

std::size_t BundleCache::size() const {
  const parallel::ScopedLock lock(mutex_);
  return order_.size();
}

BundleCacheStats BundleCache::stats() const {
  const parallel::ScopedLock lock(mutex_);
  return stats_;
}

}  // namespace vmincqr::daemon
