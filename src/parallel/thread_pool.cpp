#include "parallel/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "parallel/sync.hpp"

namespace vmincqr::parallel {
namespace {

/// set_max_threads() override; 0 means "no override, resolve from env/hw".
/// Guarded by the pool's batch mutex being quiescent: writes happen only
/// outside pool tasks (contract-checked in set_max_threads).
std::size_t g_thread_override = 0;

/// True while the current thread is executing a pool task. Nested run()
/// calls consult this to execute inline instead of deadlocking.
thread_local bool tl_in_worker = false;

std::size_t resolve_from_env() {
  const char* env = std::getenv("VMINCQR_THREADS");
  if (env != nullptr) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

std::size_t max_threads() {
  return g_thread_override != 0 ? g_thread_override : resolve_from_env();
}

void set_max_threads(std::size_t n) {
  VMINCQR_REQUIRE(!ThreadPool::in_worker(),
                  "set_max_threads must not be called from a pool task");
  g_thread_override = n;
  ThreadPool::instance().shutdown();
}

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::vector<std::thread> workers;
  bool started = false;
  bool stopping = false;

  // Current batch, published under `mutex` and identified by `generation`
  // so a worker never re-runs a batch it has already finished.
  std::uint64_t generation = 0;
  const std::function<void(std::size_t)>* batch_fn = nullptr;
  std::size_t batch_chunks = 0;
  std::size_t batch_lanes = 0;
  std::size_t workers_pending = 0;

  // Hint of `workers_pending`, stored under `mutex` with every change. run()'s
  // caller polls it through spin_then_yield before it parks on done_cv, so
  // workers that finish within the budget cost it no futex wake. It decides
  // only whether to keep waiting: the decision is re-made under `mutex`.
  //
  // Idle workers do NOT wait this way; they park at once. Three workers
  // per process spinning after every region made `ctest -j4` (four
  // processes on four vCPUs) about 15 % slower: on an oversubscribed host
  // their pauses burn the cores the other processes' fits are queued for.
  std::atomic<std::size_t> pending_hint{0};

  // Deterministic error propagation: keep the exception from the lowest
  // chunk index, matching what a sequential in-order run would throw first.
  std::exception_ptr first_error;
  std::size_t first_error_chunk = 0;

  void record_error(std::size_t chunk, std::exception_ptr error) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (first_error == nullptr || chunk < first_error_chunk) {
      first_error = std::move(error);
      first_error_chunk = chunk;
    }
  }

  /// Runs lane's share of the batch: chunks lane, lane+lanes, lane+2*lanes...
  /// A throwing chunk ends this lane's share (its later chunks are skipped),
  /// mirroring how a sequential run stops at the first throw.
  void run_lane(std::size_t lane, std::size_t chunks, std::size_t lanes,
                const std::function<void(std::size_t)>& fn) {
    for (std::size_t c = lane; c < chunks; c += lanes) {
      try {
        fn(c);
      } catch (...) {
        record_error(c, std::current_exception());
        return;
      }
    }
  }

  /// `spawn_generation` is the batch counter at spawn time: a worker must
  /// only pick up batches published AFTER it started. Starting from 0 would
  /// let a worker spawned after a shutdown/restart cycle (generation > 0)
  /// sail through the wait predicate and chase batch_fn — a pointer into a
  /// long-gone caller stack frame.
  void worker_main(std::uint64_t spawn_generation) {
    tl_in_worker = true;
    std::uint64_t seen = spawn_generation;
    std::size_t lane = 0;
    while (true) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t chunks = 0;
      std::size_t lanes = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock,
                     [&] { return stopping || generation != seen; });
        if (stopping) return;
        seen = generation;
        fn = batch_fn;
        chunks = batch_chunks;
        lanes = batch_lanes;
        lane = lane_of(std::this_thread::get_id());
      }
      run_lane(lane, chunks, lanes, *fn);
      {
        const std::lock_guard<std::mutex> lock(mutex);
        --workers_pending;
        pending_hint.store(workers_pending, std::memory_order_release);
        if (workers_pending == 0) done_cv.notify_all();
      }
    }
  }

  /// Lane index of a worker thread: position in `workers` + 1 (the caller
  /// of run() is lane 0). Called under `mutex`.
  std::size_t lane_of(std::thread::id id) {
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (workers[i].get_id() == id) return i + 1;
    }
    VMINCQR_REQUIRE(false, "pool lane lookup from a non-worker thread");
    return 0;
  }

  void ensure_started() {
    if (started) return;
    const std::size_t lanes = max_threads();
    workers.reserve(lanes > 0 ? lanes - 1 : 0);
    stopping = false;
    for (std::size_t i = 1; i < lanes; ++i) {
      workers.emplace_back([this, gen = generation] { worker_main(gen); });
    }
    started = true;
  }

  void stop_and_join() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!started) return;
      stopping = true;
      work_cv.notify_all();
    }
    for (std::thread& w : workers) w.join();
    workers.clear();
    batch_fn = nullptr;  // belt-and-braces: never leave a dangling batch
    started = false;
    stopping = false;
  }
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  if (impl_ != nullptr) {
    impl_->stop_and_join();
    delete impl_;
  }
}

ThreadPool::Impl& ThreadPool::impl() {
  if (impl_ == nullptr) impl_ = new Impl();
  return *impl_;
}

bool ThreadPool::in_worker() { return tl_in_worker; }

std::size_t ThreadPool::n_threads() {
  Impl& p = impl();
  const std::lock_guard<std::mutex> lock(p.mutex);
  return p.started ? p.workers.size() + 1 : max_threads();
}

void ThreadPool::run(std::size_t n_chunks,
                     const std::function<void(std::size_t)>& fn) {
  if (n_chunks == 0) return;
  // Nested call from a pool task: execute inline, in chunk order. The chunk
  // grid is identical either way, so results do not depend on nesting depth.
  if (tl_in_worker) {
    for (std::size_t c = 0; c < n_chunks; ++c) fn(c);
    return;
  }
  Impl& p = impl();
  std::size_t lanes = 0;
  {
    const std::lock_guard<std::mutex> lock(p.mutex);
    p.ensure_started();
    lanes = p.workers.size() + 1;
  }
  if (lanes == 1 || n_chunks == 1) {
    for (std::size_t c = 0; c < n_chunks; ++c) fn(c);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(p.mutex);
    p.batch_fn = &fn;
    p.batch_chunks = n_chunks;
    p.batch_lanes = lanes;
    p.workers_pending = p.workers.size();
    p.first_error = nullptr;
    p.first_error_chunk = 0;
    ++p.generation;
    p.pending_hint.store(p.workers_pending, std::memory_order_release);
    p.work_cv.notify_all();
  }
  // The caller is lane 0: it works its own share instead of just waiting.
  // tl_in_worker marks it so any nested parallelism inside fn runs inline.
  tl_in_worker = true;
  p.run_lane(0, n_chunks, lanes, fn);
  tl_in_worker = false;
  std::exception_ptr error;
  spin_then_yield([&p] {
    return p.pending_hint.load(std::memory_order_acquire) == 0;
  });
  {
    std::unique_lock<std::mutex> lock(p.mutex);
    p.done_cv.wait(lock, [&] { return p.workers_pending == 0; });
    error = std::exchange(p.first_error, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::shutdown() {
  VMINCQR_REQUIRE(!in_worker(),
                  "ThreadPool::shutdown must not be called from a pool task");
  if (impl_ != nullptr) impl_->stop_and_join();
}

}  // namespace vmincqr::parallel
