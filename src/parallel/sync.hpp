// Blocking-synchronization primitives for the serving layer, wrapped so the
// raw std threading machinery stays confined to src/parallel/ (the
// raw-thread and atomic-outside-parallel lint rules enforce that boundary).
//
// These are NOT for compute code: the deterministic pool primitives in
// parallel_for.hpp remain the only sanctioned way to parallelize numeric
// work, and nothing here may appear inside a pool task. The daemon layer
// composes these for control-plane concurrency only — request hand-off,
// lifecycle gating, artifact swaps — where blocking is the point and no
// floating-point result depends on scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace vmincqr::parallel {

/// One spin-wait pause: tells the core this is a polling loop, so it backs
/// off speculative loads and yields pipeline resources to a sibling
/// hyperthread. `pause` on x86 (about 20 ns on a current Xeon), `yield` on
/// aarch64, nothing elsewhere. Spin loops bound themselves by a count of
/// these, never by a clock (clock-in-hot-path lint rule).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Pause budget of spin_then_yield: cpu_relax() calls before the yield
/// phase. About 35 to 45 us: a `pause` measured 16 to 17 ns on an idle
/// 4-vCPU Xeon VM and 19 to 23 ns beside a parallel build. Covers the gap
/// between back-to-back requests of a busy client without leaving the core.
inline constexpr int kSpinBeforePark = 2000;

/// Yield budget of spin_then_yield: std::this_thread::yield() calls after
/// the pauses, before the caller parks. About 230 to 260 us: an uncontended
/// yield measured 0.23 to 0.26 us on the same host. A yield keeps the thread
/// runnable when the core is free, but hands the core to any other runnable
/// thread when it is not, so this phase is what makes a wait this long
/// affordable on an oversubscribed host.
inline constexpr int kYieldBeforePark = 1000;

/// The one wait a handoff in src/parallel/ makes before it parks (the
/// daemon batcher's BoundedQueue::pop_batch, ThreadPool::run's wait for its
/// workers, OneShotEvent::wait): polls `ready` (an acquire load of a hint
/// the other side stores under the site's lock) for up to kSpinBeforePark
/// pauses, then for up to kYieldBeforePark yields. True as soon as `ready`
/// holds; false once both budgets are spent, and the caller then parks on
/// its condition variable.
///
/// Either way the caller re-makes every decision under its lock: a hint
/// only decides whether to spend the wait, never what happens next. So
/// `ready` must also hold when the site is closing or stopping, or a close
/// waits out both budgets before the parked path sees it. The budgets are
/// counts, never a clock (clock-in-hot-path), so a waiter spends at most
/// one budget of CPU per idle period; an idle thread then sleeps.
template <typename Ready>
bool spin_then_yield(const Ready& ready) {
  for (int spin = 0; spin < kSpinBeforePark; ++spin) {
    if (ready()) return true;
    cpu_relax();
  }
  for (int round = 0; round < kYieldBeforePark; ++round) {
    if (ready()) return true;
    std::this_thread::yield();
  }
  return ready();
}

/// Plain mutual exclusion for control-plane state (queue bookkeeping, LRU
/// maps, stats counters). Lockable with ScopedLock below.
class Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() { mutex_.lock(); }
  void unlock() { mutex_.unlock(); }

 private:
  friend class ConditionVar;
  std::mutex mutex_;
};

/// RAII lock over Mutex; never copied, never moved, never unlocked early.
class ScopedLock {
 public:
  explicit ScopedLock(Mutex& mutex) : mutex_(mutex) { mutex_.lock(); }
  ~ScopedLock() { mutex_.unlock(); }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  Mutex& mutex_;
};

/// One-shot completion event: set() exactly once, any number of waiters.
/// The daemon fulfils one per admitted request; shed requests are set
/// before the ticket is handed back, so wait() never blocks on them.
///
/// The flag is atomic so is_set() is a lock-free poll (an open-loop client
/// polls its tickets without contending with the batcher's set()), and so
/// wait() polls it through spin_then_yield before it parks: a response that
/// lands within the budget needs no futex wake. set() still stores it under
/// the mutex that wait() sleeps on, so a waiter cannot check the flag, miss
/// the store and then sleep through the notify.
class OneShotEvent {
 public:
  /// Marks the event set and wakes every waiter. Idempotent.
  void set();
  /// Blocks until set() has happened (returns immediately afterwards):
  /// spin_then_yield on the flag, then parks.
  void wait() const;
  /// Lock-free. True means everything written before set() is visible to
  /// the caller (release store in set(), acquire load here).
  [[nodiscard]] bool is_set() const;

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::atomic<bool> set_{false};
};

/// Reusable open/closed gate, open on construction. wait_open() blocks while
/// closed. The daemon parks its batcher on one for pause(): closing the gate
/// holds the NEXT batch, it never interrupts one in flight.
class Gate {
 public:
  void open();
  void close();
  void wait_open() const;
  [[nodiscard]] bool is_open() const;

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool open_ = true;
};

}  // namespace vmincqr::parallel
