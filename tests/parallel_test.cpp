// Unit tests for the deterministic parallel substrate (src/parallel/):
// chunk-grid math, pool lifecycle (lazy start, shutdown/restart, width
// changes), exception propagation (lowest chunk index wins, matching a
// sequential first-throw), nested-run inline fallback, and the determinism
// contract on the primitives themselves — the end-to-end model-level proof
// lives in parallel_invariance_test.cpp. Also the control-plane primitives
// the serving daemon is built from: BoundedQueue's admission, FIFO and
// spin-then-park wake, and OneShotEvent's lock-free poll. ParallelSpinWait
// drives every spin_then_yield handoff with the other side's store landing
// in each phase of the wait.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/bounded_queue.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/service_thread.hpp"
#include "parallel/sync.hpp"
#include "parallel/thread_pool.hpp"

using namespace vmincqr;

namespace {

/// Every test that changes the pool width restores env/hardware resolution
/// on exit so test order cannot leak a stale override.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { parallel::set_max_threads(0); }
};

// --- chunk-grid math --------------------------------------------------------

TEST(ChunkGrid, ExplicitGrainIsUsedVerbatim) {
  EXPECT_EQ(parallel::resolve_grain(100, 7), 7u);
  EXPECT_EQ(parallel::chunk_count(100, 7), 15u);  // ceil(100 / 7)
  EXPECT_EQ(parallel::chunk_count(100, 100), 1u);
  EXPECT_EQ(parallel::chunk_count(100, 1000), 1u);
}

TEST(ChunkGrid, AutoGrainTargetsAtMostKAutoMaxChunks) {
  for (std::size_t n : {1u, 2u, 63u, 64u, 65u, 1000u, 4096u, 100000u}) {
    const std::size_t chunks = parallel::chunk_count(n, 0);
    EXPECT_LE(chunks, parallel::kAutoMaxChunks) << "n=" << n;
    EXPECT_GE(chunks, 1u) << "n=" << n;
  }
  // Small n: one item per chunk, n chunks.
  EXPECT_EQ(parallel::chunk_count(5, 0), 5u);
}

TEST(ChunkGrid, ZeroItemsMeansZeroChunks) {
  EXPECT_EQ(parallel::chunk_count(0, 0), 0u);
  EXPECT_EQ(parallel::chunk_count(0, 8), 0u);
}

TEST(ChunkGrid, ChunkRangesTileTheIndexSpaceExactly) {
  for (std::size_t n : {1u, 2u, 7u, 64u, 65u, 129u}) {
    for (std::size_t grain : {0u, 1u, 2u, 5u, 64u}) {
      const std::size_t chunks = parallel::chunk_count(n, grain);
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto r = parallel::chunk_range(n, grain, c);
        EXPECT_EQ(r.begin, expected_begin) << "n=" << n << " grain=" << grain;
        EXPECT_LT(r.begin, r.end);
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, n) << "n=" << n << " grain=" << grain;
    }
  }
}

TEST(ChunkGrid, GridNeverDependsOnThreadCount) {
  ThreadOverrideGuard guard;
  std::vector<std::size_t> reference;
  parallel::for_each_chunk(100, 9, [&](std::size_t c, std::size_t b,
                                       std::size_t e) {
    reference.push_back(c);
    reference.push_back(b);
    reference.push_back(e);
  }, /*use_pool=*/false);
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    parallel::set_max_threads(threads);
    std::vector<std::vector<std::size_t>> per_chunk(
        parallel::chunk_count(100, 9));
    parallel::for_each_chunk(100, 9, [&](std::size_t c, std::size_t b,
                                         std::size_t e) {
      per_chunk[c] = {c, b, e};
    });
    std::vector<std::size_t> flat;
    for (const auto& triple : per_chunk) {
      flat.insert(flat.end(), triple.begin(), triple.end());
    }
    EXPECT_EQ(flat, reference) << "threads=" << threads;
  }
}

// --- parallel_for -----------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  for (std::size_t n : {0u, 1u, 2u, 3u, 100u, 257u}) {
    std::vector<int> hits(n, 0);
    parallel::parallel_for(n, /*grain=*/1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(n));
  }
}

TEST(ParallelFor, FewerItemsThanThreadsStillCoversAll) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(8);
  std::vector<int> hits(3, 0);
  parallel::parallel_for(3, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelFor, InlinePathMatchesPoolPath) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  std::vector<double> pooled(1000), inlined(1000);
  const auto fill = [](std::vector<double>& out) {
    return [&out](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        out[i] = 1.0 / (1.0 + static_cast<double>(i));
      }
    };
  };
  parallel::parallel_for(1000, 0, fill(pooled), /*use_pool=*/true);
  parallel::parallel_for(1000, 0, fill(inlined), /*use_pool=*/false);
  EXPECT_EQ(pooled, inlined);
}

// --- deterministic reduction ------------------------------------------------

/// An FP sum whose result depends on association order: catches any pool
/// that folds partials in completion order rather than chunk order.
double chunked_sum(std::size_t n, std::size_t grain, bool use_pool) {
  return parallel::parallel_deterministic_reduce(
      n, grain, 0.0,
      [](std::size_t b, std::size_t e) {
        double s = 0.0;
        for (std::size_t i = b; i < e; ++i) {
          s += 1.0 / (static_cast<double>(i) + 0.1);
        }
        return s;
      },
      [](double acc, double part) { return acc + part; }, use_pool);
}

TEST(DeterministicReduce, BitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(1);
  const double reference = chunked_sum(10007, 64, true);
  for (std::size_t threads : {2u, 3u, 5u, 8u}) {
    parallel::set_max_threads(threads);
    // EXPECT_EQ on doubles: exact bit-for-bit agreement, not a tolerance.
    EXPECT_EQ(chunked_sum(10007, 64, true), reference)
        << "threads=" << threads;
  }
  EXPECT_EQ(chunked_sum(10007, 64, false), reference) << "inline path";
}

TEST(DeterministicReduce, EmptyInputReturnsInit) {
  const double r = parallel::parallel_deterministic_reduce(
      0, 0, 42.0, [](std::size_t, std::size_t) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(r, 42.0);
}

TEST(DeterministicReduce, FoldOrderIsAscendingChunkIndex) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  // Non-commutative combine (string concatenation) exposes the fold order.
  const std::string order = parallel::parallel_deterministic_reduce(
      10, 2, std::string{},
      [](std::size_t b, std::size_t) { return std::to_string(b / 2); },
      [](std::string acc, std::string part) { return acc + part; });
  EXPECT_EQ(order, "01234");
}

// --- exception propagation --------------------------------------------------

TEST(ThreadPoolErrors, LowestChunkExceptionWinsAtEveryWidth) {
  ThreadOverrideGuard guard;
  for (std::size_t threads : {1u, 2u, 8u}) {
    parallel::set_max_threads(threads);
    try {
      parallel::ThreadPool::instance().run(16, [](std::size_t c) {
        if (c >= 3) {
          throw std::runtime_error("chunk " + std::to_string(c));
        }
      });
      FAIL() << "expected a throw at threads=" << threads;
    } catch (const std::runtime_error& e) {
      // The sequential first-throw: chunk 3, never 4..15.
      EXPECT_STREQ(e.what(), "chunk 3") << "threads=" << threads;
    }
  }
}

TEST(ThreadPoolErrors, PoolIsReusableAfterAThrow) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  EXPECT_THROW(parallel::ThreadPool::instance().run(
                   8, [](std::size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
  std::vector<int> hits(8, 0);
  parallel::ThreadPool::instance().run(8, [&](std::size_t c) { hits[c] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 8);
}

// --- nesting ----------------------------------------------------------------

TEST(ThreadPoolNesting, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  std::vector<std::vector<int>> inner_hits(6, std::vector<int>(5, 0));
  std::vector<int> nested_flag(6, 0);
  parallel::parallel_for(6, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      nested_flag[i] = parallel::ThreadPool::in_worker() ? 1 : 0;
      parallel::parallel_for(5, 1, [&, i](std::size_t ib, std::size_t ie) {
        for (std::size_t j = ib; j < ie; ++j) ++inner_hits[i][j];
      });
    }
  });
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(nested_flag[i], 1) << "outer chunk " << i
                                 << " not marked in_worker";
    EXPECT_EQ(inner_hits[i], (std::vector<int>{1, 1, 1, 1, 1}));
  }
}

TEST(ThreadPoolNesting, InWorkerIsFalseOutsideTasks) {
  EXPECT_FALSE(parallel::ThreadPool::in_worker());
}

// --- lifecycle --------------------------------------------------------------

TEST(ThreadPoolLifecycle, SetMaxThreadsControlsWidth) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(3);
  EXPECT_EQ(parallel::max_threads(), 3u);
  EXPECT_EQ(parallel::ThreadPool::instance().n_threads(), 3u);
  parallel::set_max_threads(0);
  EXPECT_GE(parallel::max_threads(), 1u);
}

TEST(ThreadPoolLifecycle, RepeatedShutdownAndRestartStaysCorrect) {
  ThreadOverrideGuard guard;
  for (int cycle = 0; cycle < 5; ++cycle) {
    parallel::set_max_threads(static_cast<std::size_t>(cycle % 3 + 1));
    std::vector<int> hits(12, 0);
    parallel::ThreadPool::instance().run(12,
                                         [&](std::size_t c) { hits[c] = 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 12)
        << "cycle " << cycle;
    parallel::ThreadPool::instance().shutdown();
    parallel::ThreadPool::instance().shutdown();  // idempotent
  }
}

TEST(ThreadPoolLifecycle, ZeroChunksIsANoOp) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  bool called = false;
  parallel::ThreadPool::instance().run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// --- BoundedQueue / OneShotEvent ------------------------------------------

/// Holds the calling thread for `budgets` of pop_batch's spin budget,
/// counted in the same pauses the spin counts, so a consumer that started
/// spinning beforehand has run out of budget and parked by the end. No
/// clock is read, and the margin scales with the platform's pause length.
void outlast_spin_budgets(int budgets) {
  for (int i = 0; i < budgets * parallel::kSpinBeforePark; ++i) {
    parallel::cpu_relax();
  }
}

TEST(ParallelBoundedQueue, PopBatchWakesOnItemsPushedAfterTheSpinBudget) {
  parallel::BoundedQueue<int> queue(4);
  std::vector<int> seen;
  std::size_t last = 1;
  parallel::ServiceThread consumer;
  consumer.start([&] {
    std::vector<int> batch;
    while ((last = queue.pop_batch(batch, 4)) != 0) {
      seen.insert(seen.end(), batch.begin(), batch.end());
    }
  });
  // Each push lands long after the consumer drained the previous one and
  // parked: the wake must come from notify_one, not from the spin.
  for (int item = 0; item < 3; ++item) {
    outlast_spin_budgets(100);
    ASSERT_EQ(queue.try_push(item), parallel::Push::kAccepted);
  }
  outlast_spin_budgets(100);
  queue.close();
  consumer.join();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(last, 0u);
}

TEST(ParallelBoundedQueue, CloseWakesAParkedConsumer) {
  parallel::BoundedQueue<int> queue(2);
  std::vector<int> batch = {99};
  std::size_t drained = 1;
  parallel::ServiceThread consumer;
  consumer.start([&] { drained = queue.pop_batch(batch, 2); });
  outlast_spin_budgets(100);
  queue.close();
  consumer.join();
  EXPECT_EQ(drained, 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(queue.closed());
}

TEST(ParallelBoundedQueue, AdmittedItemsDrainAfterClose) {
  parallel::BoundedQueue<int> queue(4);
  for (int item = 0; item < 3; ++item) {
    ASSERT_EQ(queue.try_push(item), parallel::Push::kAccepted);
  }
  queue.close();
  queue.close();  // idempotent
  EXPECT_EQ(queue.try_push(3), parallel::Push::kClosed);
  std::vector<int> batch;
  ASSERT_EQ(queue.pop_batch(batch, 2), 2u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1}));
  ASSERT_EQ(queue.pop_batch(batch, 2), 1u);
  EXPECT_EQ(batch, (std::vector<int>{2}));
  EXPECT_EQ(queue.pop_batch(batch, 2), 0u);
  EXPECT_TRUE(batch.empty());
}

TEST(ParallelBoundedQueue, FullAndClosedOutcomesAndFifoSequences) {
  parallel::BoundedQueue<int> queue(3);
  std::uint64_t sequence = 99;
  for (int item = 0; item < 3; ++item) {
    ASSERT_EQ(queue.try_push(item, &sequence), parallel::Push::kAccepted);
    EXPECT_EQ(sequence, static_cast<std::uint64_t>(item));
  }
  sequence = 99;
  EXPECT_EQ(queue.try_push(3, &sequence), parallel::Push::kFull);
  EXPECT_EQ(sequence, 99u) << "a shed push must not touch the sequence";
  EXPECT_EQ(queue.depth(), 3u);

  std::vector<int> batch;
  ASSERT_EQ(queue.pop_batch(batch, 2), 2u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1}));
  // Sequence numbers count admissions, not slots: a shed push takes none.
  ASSERT_EQ(queue.try_push(4, &sequence), parallel::Push::kAccepted);
  EXPECT_EQ(sequence, 3u);

  queue.close();
  sequence = 99;
  EXPECT_EQ(queue.try_push(5, &sequence), parallel::Push::kClosed);
  EXPECT_EQ(sequence, 99u);
  ASSERT_EQ(queue.pop_batch(batch, 8), 2u);
  EXPECT_EQ(batch, (std::vector<int>{2, 4}));
  EXPECT_EQ(queue.pop_batch(batch, 8), 0u);
  EXPECT_EQ(queue.max_depth(), 3u);
  EXPECT_EQ(queue.capacity(), 3u);
}

TEST(ParallelBoundedQueue, ConcurrentProducersDrainInSequenceOrder) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 300;
  // Items are slot indices; each admission writes its sequence into the
  // slot under the queue lock, as the daemon stamps its response slots.
  std::vector<std::uint64_t> sequence_of(kProducers * kPerProducer, 0);
  parallel::BoundedQueue<std::size_t> queue(16);
  std::vector<std::size_t> drained;
  parallel::ServiceThread consumer;
  consumer.start([&] {
    std::vector<std::size_t> batch;
    while (queue.pop_batch(batch, 5) != 0) {
      drained.insert(drained.end(), batch.begin(), batch.end());
    }
  });
  {
    std::vector<parallel::ServiceThread> producers(kProducers);
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers[p].start([&, p] {
        for (std::size_t i = 0; i < kPerProducer; ++i) {
          const std::size_t slot = p * kPerProducer + i;
          // A full queue sheds; the producer retries until admitted.
          while (queue.try_push_sequenced(slot, [&](std::uint64_t s) {
                   sequence_of[slot] = s;
                 }) != parallel::Push::kAccepted) {
            parallel::cpu_relax();
          }
        }
      });
    }
    for (auto& producer : producers) producer.join();
  }
  queue.close();
  consumer.join();

  ASSERT_EQ(drained.size(), kProducers * kPerProducer);
  std::vector<std::size_t> next_of_producer(kProducers, 0);
  for (std::size_t k = 0; k < drained.size(); ++k) {
    const std::size_t slot = drained[k];
    EXPECT_EQ(sequence_of[slot], k) << "drain position " << k;
    const std::size_t p = slot / kPerProducer;
    EXPECT_EQ(slot % kPerProducer, next_of_producer[p]) << "producer " << p;
    ++next_of_producer[p];
  }
  EXPECT_LE(queue.max_depth(), queue.capacity());
}

TEST(ParallelOneShotEvent, IsSetPublishesWritesMadeBeforeSet) {
  parallel::OneShotEvent event;
  EXPECT_FALSE(event.is_set());
  int payload = 0;
  parallel::ServiceThread setter;
  setter.start([&] {
    payload = 42;
    event.set();
  });
  // Poll without the lock, as an open-loop client polls its tickets; the
  // payload read after a true poll must not race the setter's write.
  while (!event.is_set()) parallel::cpu_relax();
  EXPECT_EQ(payload, 42);
  event.wait();
  event.set();  // idempotent
  EXPECT_TRUE(event.is_set());
  setter.join();
}

// --- spin_then_yield at every handoff ----------------------------------------

/// Pauses one uncontended yield lasts, roughly (0.23 to 0.26 us against 17
/// to 20 ns per pause).
constexpr int kPausesPerYield = 12;

/// Where the other side's store lands, counted in pauses from the moment
/// the waiter signalled that it is about to wait: half-way through the
/// pause budget, half-way through the yield budget, or well past both (the
/// waiter has parked). No clock is read; a loaded host only shifts which
/// phase a delay lands in, and every phase must work.
struct WaitPhase {
  const char* name;
  int pauses;
};

const WaitPhase kWaitPhases[] = {
    {"mid-pause", parallel::kSpinBeforePark / 2},
    {"mid-yield", parallel::kSpinBeforePark +
                      parallel::kYieldBeforePark / 2 * kPausesPerYield},
    {"after-park", 10 * (parallel::kSpinBeforePark +
                         parallel::kYieldBeforePark * kPausesPerYield)},
};

void delay_into(const WaitPhase& phase) {
  for (int i = 0; i < phase.pauses; ++i) parallel::cpu_relax();
}

TEST(ParallelSpinWait, BudgetsAreCounts) {
  int polls = 0;
  EXPECT_FALSE(parallel::spin_then_yield([&] {
    ++polls;
    return false;
  }));
  // One poll before each pause and each yield, and a last one after both.
  EXPECT_EQ(polls,
            parallel::kSpinBeforePark + parallel::kYieldBeforePark + 1);
  polls = 0;
  EXPECT_TRUE(parallel::spin_then_yield([&] { return ++polls == 3; }));
  EXPECT_EQ(polls, 3);
}

TEST(ParallelSpinWait, QueuePushInEveryPhaseWakesTheConsumer) {
  {
    // Before the wait: the item is already queued, pop_batch never waits.
    parallel::BoundedQueue<int> queue(2);
    ASSERT_EQ(queue.try_push(7), parallel::Push::kAccepted);
    std::vector<int> batch;
    ASSERT_EQ(queue.pop_batch(batch, 2), 1u);
    EXPECT_EQ(batch, (std::vector<int>{7}));
  }
  for (const WaitPhase& phase : kWaitPhases) {
    parallel::BoundedQueue<int> queue(2);
    parallel::OneShotEvent waiting;
    std::vector<int> batch;
    std::size_t drained = 0;
    parallel::ServiceThread consumer;
    consumer.start([&] {
      waiting.set();
      drained = queue.pop_batch(batch, 2);
    });
    waiting.wait();
    delay_into(phase);
    ASSERT_EQ(queue.try_push(phase.pauses), parallel::Push::kAccepted);
    consumer.join();
    EXPECT_EQ(drained, 1u) << phase.name;
    EXPECT_EQ(batch, (std::vector<int>{phase.pauses})) << phase.name;
  }
}

TEST(ParallelSpinWait, QueueCloseInEveryPhaseEndsTheWait) {
  for (const WaitPhase& phase : kWaitPhases) {
    parallel::BoundedQueue<int> queue(2);
    parallel::OneShotEvent waiting;
    std::vector<int> batch = {99};
    std::size_t drained = 1;
    parallel::ServiceThread consumer;
    consumer.start([&] {
      waiting.set();
      drained = queue.pop_batch(batch, 2);
    });
    waiting.wait();
    delay_into(phase);
    queue.close();
    consumer.join();
    EXPECT_EQ(drained, 0u) << phase.name;
    EXPECT_TRUE(batch.empty()) << phase.name;
  }
}

TEST(ParallelSpinWait, EventSetInEveryPhaseReleasesTheWaiter) {
  {
    // Before the wait: wait() returns without waiting.
    parallel::OneShotEvent event;
    event.set();
    event.wait();
    EXPECT_TRUE(event.is_set());
  }
  for (const WaitPhase& phase : kWaitPhases) {
    parallel::OneShotEvent event;
    parallel::OneShotEvent waiting;
    int payload = 0;
    int seen = 0;
    parallel::ServiceThread waiter;
    waiter.start([&] {
      waiting.set();
      event.wait();
      seen = payload;
    });
    waiting.wait();
    delay_into(phase);
    payload = phase.pauses + 1;
    event.set();
    waiter.join();
    EXPECT_EQ(seen, phase.pauses + 1) << phase.name;
  }
}

/// Runs `chunks` chunks on the pool and checks each ran exactly once.
void expect_every_chunk_runs(std::size_t chunks, const char* what) {
  std::vector<int> hits(chunks, 0);
  parallel::ThreadPool::instance().run(chunks,
                                       [&](std::size_t c) { ++hits[c]; });
  EXPECT_EQ(hits, std::vector<int>(chunks, 1)) << what;
}

TEST(ParallelSpinWait, PoolRunAfterItsWorkersParked) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  for (const WaitPhase& phase : kWaitPhases) {
    // Idle workers park at once, so the second run finds them parking
    // (mid-pause) or parked, and only the notify can wake them.
    expect_every_chunk_runs(8, phase.name);
    delay_into(phase);
    expect_every_chunk_runs(8, phase.name);
  }
}

TEST(ParallelSpinWait, PoolCallerWaitEndsInEveryPhase) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(2);
  for (const WaitPhase& phase : kWaitPhases) {
    // Chunk 0 runs on the caller (lane 0) and returns at once, so run()'s
    // wait for its worker lands in `phase` while chunk 1 is delayed.
    std::vector<int> done(2, 0);
    parallel::ThreadPool::instance().run(2, [&](std::size_t c) {
      if (c == 1) delay_into(phase);
      done[c] = 1;
    });
    EXPECT_EQ(done, (std::vector<int>{1, 1})) << phase.name;
  }
}

TEST(ParallelSpinWait, ShutdownAndResizeRightAfterARun) {
  ThreadOverrideGuard guard;
  for (int cycle = 0; cycle < 12; ++cycle) {
    const auto width = static_cast<std::size_t>(cycle % 4 + 1);
    // Each call below lands right after a run() returned on the caller's
    // spin, while its workers are still leaving their lanes for the idle
    // wait: the stop must reach them there, not be missed.
    parallel::set_max_threads(width);
    expect_every_chunk_runs(9, "after set_max_threads");
    parallel::ThreadPool::instance().shutdown();
    expect_every_chunk_runs(9, "after shutdown");
    EXPECT_EQ(parallel::ThreadPool::instance().n_threads(), width);
  }
}

}  // namespace
