// Bounded multi-producer FIFO queue — the admission-control primitive behind
// the serving daemon's backpressure contract (DESIGN.md §11).
//
// Semantics, in order of importance:
//   1. Bounded. try_push never blocks and never grows the queue past its
//      capacity: a full queue sheds (returns Push::kFull) so the CALLER
//      turns overload into a typed rejection instead of unbounded latency.
//   2. FIFO. pop_batch drains from the front in admission order; with a
//      single consumer, service order equals admission order.
//   3. Admission sequencing. Every accepted push gets the next value of a
//      monotone sequence counter, assigned under the same lock as the
//      insertion — so sequence order IS queue order even with concurrent
//      producers (the daemon's FIFO-fairness proof leans on this).
//   4. Clean shutdown. close() wakes blocked consumers; items already
//      admitted keep draining — pop_batch returns 0 only when the queue is
//      both closed and empty.
//   5. Spin, yield, then park. An empty pop_batch first waits in
//      spin_then_yield (sync.hpp) on two atomic hints, the size and the
//      closed flag, and only then blocks on the condition variable. An item
//      that arrives during that wait is taken without the futex wake of a
//      parked consumer, and the producer's notify_one finds no sleeper, so
//      it makes no system call either; a close() ends the wait at once. The
//      hints are only hints: every decision is re-made under the lock.
//
// Like everything in src/parallel/, this is the only place the raw std
// threading primitives it uses may appear (raw-thread lint rule).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "parallel/sync.hpp"

namespace vmincqr::parallel {

/// try_push outcome: accepted, shed on a full queue, or refused because the
/// queue is closed (shutdown in progress).
enum class Push : std::uint8_t { kAccepted, kFull, kClosed };

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    VMINCQR_REQUIRE(capacity > 0, "BoundedQueue: capacity must be positive");
  }
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking admission. On kAccepted, *sequence receives the item's
  /// admission number (0-based, monotone in queue order); it is untouched
  /// on kFull / kClosed.
  Push try_push(T item, std::uint64_t* sequence = nullptr) {
    return try_push_sequenced(std::move(item), [&](std::uint64_t admitted) {
      if (sequence != nullptr) *sequence = admitted;
    });
  }

  /// Like try_push, but invokes on_admit(sequence) UNDER the queue lock,
  /// before the item becomes poppable. Anything on_admit writes is therefore
  /// ordered before any consumer's view of the item (pop_batch takes the
  /// same lock) — the daemon uses this to stamp the admission sequence into
  /// the shared response slot without racing its batcher.
  template <typename OnAdmit>
  Push try_push_sequenced(T item, OnAdmit&& on_admit) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return Push::kClosed;
      if (items_.size() >= capacity_) return Push::kFull;
      on_admit(next_sequence_);
      ++next_sequence_;
      items_.push_back(std::move(item));
      if (items_.size() > max_depth_) max_depth_ = items_.size();
      size_hint_.store(items_.size(), std::memory_order_release);
    }
    ready_cv_.notify_one();
    return Push::kAccepted;
  }

  /// Blocks until at least one item is available (or the queue is closed),
  /// then moves up to max_items from the front into `out` (cleared first).
  /// Returns the number drained; 0 means closed AND empty — the consumer's
  /// signal to exit after a clean drain. On an empty open queue it waits in
  /// spin_then_yield before it parks.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items) {
    VMINCQR_REQUIRE(max_items > 0, "BoundedQueue: max_items must be positive");
    out.clear();
    spin_then_yield([this] {
      return size_hint_.load(std::memory_order_acquire) != 0 ||
             closed_hint_.load(std::memory_order_acquire);
    });
    std::unique_lock<std::mutex> lock(mutex_);
    ready_cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    while (!items_.empty() && out.size() < max_items) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    size_hint_.store(items_.size(), std::memory_order_release);
    return out.size();
  }

  /// Stops admissions (subsequent try_push returns kClosed) and wakes every
  /// blocked consumer. Already-admitted items remain poppable. Idempotent.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      closed_hint_.store(true, std::memory_order_release);
    }
    ready_cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t depth() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// High-water mark of depth() over the queue's lifetime — the soak test's
  /// evidence that backpressure actually bounded the queue.
  [[nodiscard]] std::size_t max_depth() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return max_depth_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::deque<T> items_;
  std::size_t capacity_;
  std::size_t max_depth_ = 0;
  std::uint64_t next_sequence_ = 0;
  bool closed_ = false;
  /// items_.size() as of the last push or pop and closed_, each stored
  /// under mutex_; read without it only by pop_batch's wait.
  std::atomic<std::size_t> size_hint_{0};
  std::atomic<bool> closed_hint_{false};
};

}  // namespace vmincqr::parallel
