// Fixed-size, work-stealing-free thread pool — the ONLY place in the tree
// allowed to touch raw std::thread machinery (enforced by the `raw-thread`
// lint rule and the `parallel` leaf layer in layers.toml).
//
// Design constraints, in order:
//   1. Determinism. The pool never decides *what* work happens — callers hand
//      it a fixed chunk grid (see parallel_for.hpp) and the pool only decides
//      *where* each chunk runs. Chunk c executes on lane (c % n_threads); the
//      calling thread participates as lane 0. No stealing, no dynamic
//      scheduling, so the set of chunks is identical at every thread count.
//   2. Laziness. Workers start on the first run() after construction or
//      shutdown(); a process that never parallelizes never spawns a thread.
//   3. Reentrancy. run() from inside a worker task executes inline on that
//      worker (sequentially, in chunk order) instead of deadlocking on the
//      pool's own lanes.
//   4. Cheap join. run()'s caller waits for its workers in spin_then_yield
//      (sync.hpp) before it parks, so workers that finish soon after it
//      cost no futex wake. Idle workers park at once: spinning there burns
//      the cores of an oversubscribed host (see thread_pool.cpp).
//
// Thread-count resolution: set_max_threads() override > VMINCQR_THREADS env
// > std::thread::hardware_concurrency(), min 1.
#pragma once

#include <cstddef>
#include <functional>

namespace vmincqr::parallel {

/// Threads the pool will run with on its next (re)start: the
/// set_max_threads() override if set, else VMINCQR_THREADS when it parses to
/// a positive integer, else hardware concurrency; never 0.
std::size_t max_threads();

/// Overrides max_threads() process-wide (0 restores env/hardware resolution)
/// and shuts the pool down so the next run() restarts at the new width.
/// Must not be called from inside a pool task.
void set_max_threads(std::size_t n);

class ThreadPool {
 public:
  /// The process-wide pool. All primitives in parallel_for.hpp go through it.
  static ThreadPool& instance();

  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Executes fn(c) for every chunk c in [0, n_chunks), blocking until all
  /// chunks finish. Lane assignment is static: chunk c runs on lane
  /// (c % n_threads), lane 0 being the caller. Exceptions thrown by chunks
  /// are captured and the one from the LOWEST chunk index is rethrown — the
  /// same exception a sequential in-order run would surface first. Nested
  /// calls from worker threads run all chunks inline, in order.
  void run(std::size_t n_chunks, const std::function<void(std::size_t)>& fn);

  /// Joins and discards all workers. The pool restarts lazily on the next
  /// run(), re-reading max_threads(). Safe to call repeatedly; must not be
  /// called from inside a pool task.
  void shutdown();

  /// Threads run() will use right now: current worker count + 1 when
  /// started, else what the next start would resolve to.
  std::size_t n_threads();

  /// True on a thread currently executing a pool task (nested-run guard).
  static bool in_worker();

 private:
  struct Impl;
  /// Lazily constructed so a never-parallel process pays nothing.
  Impl& impl();
  Impl* impl_ = nullptr;
};

}  // namespace vmincqr::parallel
