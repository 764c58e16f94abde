#include "parallel/sync.hpp"

namespace vmincqr::parallel {

void OneShotEvent::set() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    set_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

void OneShotEvent::wait() const {
  if (is_set()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return set_.load(std::memory_order_acquire); });
}

bool OneShotEvent::is_set() const {
  return set_.load(std::memory_order_acquire);
}

void Gate::open() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
  }
  cv_.notify_all();
}

void Gate::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  open_ = false;
}

void Gate::wait_open() const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return open_; });
}

bool Gate::is_open() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return open_;
}

}  // namespace vmincqr::parallel
