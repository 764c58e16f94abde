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
/// polls its tickets without contending with the batcher's set()). set()
/// still stores it under the mutex that wait() sleeps on, so a waiter
/// cannot check the flag, miss the store and then sleep through the notify.
class OneShotEvent {
 public:
  /// Marks the event set and wakes every waiter. Idempotent.
  void set();
  /// Blocks until set() has happened (returns immediately afterwards).
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
