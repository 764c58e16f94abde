// Serving-daemon battery: hot-swap bit-exactness under concurrent load,
// deterministic backpressure/shedding, FIFO fairness, clean shutdown drain,
// LRU bundle-cache behavior, and swap atomicity against corrupted artifacts.
//
// Everything here is seeded and sleep-free: overload is built with the
// daemon paused (the batcher never races the fill), and the concurrency
// tests assert scheduling-invariant properties (every response bit-exact to
// exactly one epoch; served order == admission order) rather than timings.
// The hot-swap and soak tests are part of the TSan CI job at
// VMINCQR_THREADS=8.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "artifact/bundle.hpp"
#include "conformal/cqr.hpp"
#include "daemon/vmin_daemon.hpp"
#include "models/linear.hpp"
#include "models/region.hpp"
#include "parallel/service_thread.hpp"
#include "parallel/thread_pool.hpp"

using namespace vmincqr;

namespace {

/// Restores env/hardware thread resolution when a test overrides it.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { parallel::set_max_threads(0); }
};

std::unique_ptr<models::LinearRegressor> golden_linear(double intercept) {
  models::LinearParams params;
  params.scaler.means = {1.0, -2.0};
  params.scaler.scales = {2.0, 4.0};
  params.label.mean = 0.5;
  params.label.scale = 0.05;
  params.coef = {intercept, 0.0625, -0.25};
  auto model = std::make_unique<models::LinearRegressor>();
  model->import_params(std::move(params));
  return model;
}

/// Hand-built CQR bundle in the golden-fixture style: every parameter an
/// exact binary fraction, so predictions are platform-independent and two
/// bundles differing only in `calibration` give intervals offset by an
/// exactly representable amount — distinguishable bit-for-bit.
std::vector<std::uint8_t> golden_bundle_bytes(double calibration,
                                              const std::string& label) {
  const core::MiscoverageAlpha level{0.2};
  auto pair = std::make_unique<models::QuantilePairRegressor>(
      level, golden_linear(-0.5), golden_linear(0.5), "QR Linear Regression");
  auto cqr = std::make_unique<conformal::ConformalizedQuantileRegressor>(
      level, std::move(pair));
  cqr->import_calibration({calibration, calibration});

  artifact::VminBundle bundle;
  bundle.scenario = {48.0, 25.0, 2, -1.0};
  bundle.label = label;
  bundle.dataset_columns = {0, 1, 2, 3};
  bundle.selected_features = {1, 3};
  bundle.predictor = std::move(cqr);
  return artifact::encode_bundle(bundle);
}

std::vector<std::uint8_t> bundle_a_bytes() {
  return golden_bundle_bytes(0.015625, "bundle A");  // 1/64
}

std::vector<std::uint8_t> bundle_b_bytes() {
  return golden_bundle_bytes(0.046875, "bundle B");  // 3/64
}

constexpr std::size_t kRows = 16;
constexpr std::size_t kWidth = 4;

/// Deterministic query rows, all exact binary fractions.
std::vector<double> query_row(std::size_t r) {
  return {0.25 * static_cast<double>(r),
          0.25 * static_cast<double>(r) - 1.0,
          0.5 * static_cast<double>(r % 5),
          2.0 - 0.125 * static_cast<double>(r)};
}

linalg::Matrix all_query_rows() {
  linalg::Matrix x(kRows, kWidth);
  for (std::size_t r = 0; r < kRows; ++r) x.set_row(r, query_row(r));
  return x;
}

/// Per-row reference intervals for a bundle, computed OUTSIDE the daemon
/// (the daemon must reproduce these bit-for-bit).
std::vector<serve::IntervalPrediction> reference_for(
    const std::vector<std::uint8_t>& bytes) {
  const auto predictor = serve::VminPredictor::from_bytes(bytes);
  return predictor.predict_batch(all_query_rows());
}

// --- basics -----------------------------------------------------------------

TEST(DaemonBasics, ServesQueriesBitExactToReference) {
  const auto bytes = bundle_a_bytes();
  const auto reference = reference_for(bytes);

  daemon::VminDaemon d;
  const std::uint64_t epoch = d.install_bytes("A", bytes);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(d.active_epoch(), 1u);
  d.start();
  for (std::size_t r = 0; r < kRows; ++r) {
    const auto response = d.ask({query_row(r)});
    ASSERT_EQ(response.status, daemon::ServeStatus::kOk);
    EXPECT_EQ(response.epoch, 1u);
    // EXPECT_EQ on doubles: bit-for-bit, not a tolerance.
    EXPECT_EQ(response.interval.lower, reference[r].lower) << "row " << r;
    EXPECT_EQ(response.interval.upper, reference[r].upper) << "row " << r;
  }
  d.stop();
  const auto stats = d.stats();
  EXPECT_EQ(stats.accepted, kRows);
  EXPECT_EQ(stats.served_ok, kRows);
}

TEST(DaemonBasics, NoArtifactIsTypedNotFatal) {
  daemon::VminDaemon d;
  d.start();
  const auto response = d.ask({query_row(0)});
  EXPECT_EQ(response.status, daemon::ServeStatus::kNoArtifact);
  EXPECT_EQ(response.epoch, 0u);
  d.stop();
  EXPECT_EQ(d.stats().served_no_artifact, 1u);
}

TEST(DaemonBasics, BadWidthIsTypedPerRequest) {
  daemon::VminDaemon d;
  (void)d.install_bytes("A", bundle_a_bytes());
  d.start();
  const auto bad = d.ask({{1.0, 2.0}});  // width 2, bundle expects 4
  EXPECT_EQ(bad.status, daemon::ServeStatus::kBadWidth);
  EXPECT_EQ(bad.epoch, 1u);
  const auto good = d.ask({query_row(0)});
  EXPECT_EQ(good.status, daemon::ServeStatus::kOk);
  d.stop();
  const auto stats = d.stats();
  EXPECT_EQ(stats.served_bad_width, 1u);
  EXPECT_EQ(stats.served_ok, 1u);
}

TEST(DaemonBasics, SubmitAfterStopShedsShutdownPreResolved) {
  daemon::VminDaemon d;
  (void)d.install_bytes("A", bundle_a_bytes());
  d.start();
  d.stop();
  const auto ticket = d.submit({query_row(0)});
  EXPECT_TRUE(ticket.resolved());  // shed at admission: wait() cannot block
  EXPECT_EQ(ticket.wait().status, daemon::ServeStatus::kShedShutdown);
  EXPECT_EQ(d.stats().shed_shutdown, 1u);
}

TEST(DaemonBasics, StopIsIdempotentAndCoversNeverStarted) {
  daemon::VminDaemon never_started;
  never_started.stop();
  never_started.stop();

  daemon::VminDaemon d;
  d.start();
  d.stop();
  d.stop();
}

// --- swap atomicity against corrupted artifacts -----------------------------

TEST(DaemonSwap, CorruptInstallThrowsAndLeavesActiveEpochServing) {
  const auto bytes_a = bundle_a_bytes();
  const auto reference = reference_for(bytes_a);

  daemon::VminDaemon d;
  (void)d.install_bytes("A", bytes_a);
  d.start();

  // Corrupt bundle B at a spread of positions: header, framing, payload,
  // seal. Every install must throw ArtifactError and leave epoch 1 serving.
  const auto bytes_b = bundle_b_bytes();
  for (const std::size_t position :
       {std::size_t{0}, std::size_t{4}, std::size_t{9},
        bytes_b.size() / 2, bytes_b.size() - 1}) {
    auto corrupted = bytes_b;
    corrupted[position] ^= 0xFFU;
    EXPECT_THROW((void)d.install_bytes("B", corrupted),
                 artifact::ArtifactError)
        << "corrupt byte " << position;
    EXPECT_EQ(d.active_epoch(), 1u);
    const auto response = d.ask({query_row(3)});
    ASSERT_EQ(response.status, daemon::ServeStatus::kOk);
    EXPECT_EQ(response.epoch, 1u);
    EXPECT_EQ(response.interval.lower, reference[3].lower);
    EXPECT_EQ(response.interval.upper, reference[3].upper);
  }
  d.stop();
  // The failed installs must not have registered anywhere.
  EXPECT_EQ(d.stats().installs, 1u);
}

TEST(DaemonSwap, BadInputScalerInstallThrowsAndLeavesActiveEpochServing) {
  const auto bytes_a = bundle_a_bytes();
  const auto reference = reference_for(bytes_a);

  daemon::VminDaemon d;
  (void)d.install_bytes("A", bytes_a);
  d.start();

  // A well-formed artifact whose input scaler has a zero scale: the loader
  // rejects it, so it never becomes an epoch that fails every request.
  auto bundle = artifact::decode_bundle(bundle_b_bytes());
  bundle.has_input_scaler = true;
  bundle.input_scaler.means.assign(kWidth, 0.0);
  bundle.input_scaler.scales = {1.0, 0.0, 1.0, 1.0};
  const auto bad_bytes = artifact::encode_bundle(bundle);
  EXPECT_THROW((void)d.install_bytes("B", bad_bytes), std::invalid_argument);
  EXPECT_EQ(d.active_epoch(), 1u);
  EXPECT_THROW((void)d.activate("B"), std::invalid_argument);

  const auto response = d.ask({query_row(3)});
  ASSERT_EQ(response.status, daemon::ServeStatus::kOk);
  EXPECT_EQ(response.epoch, 1u);
  EXPECT_EQ(response.interval.lower, reference[3].lower);
  EXPECT_EQ(response.interval.upper, reference[3].upper);
  d.stop();
  EXPECT_EQ(d.stats().installs, 1u);
  EXPECT_EQ(d.stats().served_internal_error, 0u);
}

// --- LRU bundle cache -------------------------------------------------------

TEST(DaemonCache, LruEvictionAndActivation) {
  daemon::DaemonConfig config;
  config.cache_capacity = 2;
  daemon::VminDaemon d(config);

  EXPECT_EQ(d.install_bytes("A", bundle_a_bytes()), 1u);
  EXPECT_EQ(d.install_bytes("B", bundle_b_bytes()), 2u);
  // Re-activating a resident bundle is a cache hit and a fresh epoch.
  EXPECT_EQ(d.activate("A"), 3u);
  EXPECT_EQ(d.active_epoch(), 3u);

  // Third install evicts the least recently used entry ("B": the activate
  // refreshed "A").
  EXPECT_EQ(d.install_bytes("C", bundle_a_bytes()), 4u);
  EXPECT_THROW((void)d.activate("B"), std::invalid_argument);
  EXPECT_EQ(d.activate("A"), 5u);

  const auto stats = d.stats();
  EXPECT_EQ(stats.installs, 3u);
  EXPECT_EQ(stats.activations, 2u);
  EXPECT_EQ(stats.cache.evictions, 1u);
  EXPECT_EQ(stats.cache.hits, 2u);   // both successful activates
  EXPECT_EQ(stats.cache.misses, 1u); // the failed activate of "B"
}

// --- deterministic backpressure ---------------------------------------------

TEST(DaemonBackpressure, PausedOverloadShedsTypedThenDrainsFifo) {
  constexpr std::size_t kCapacity = 16;
  constexpr std::size_t kOverflow = 5;
  daemon::DaemonConfig config;
  config.queue_capacity = kCapacity;
  config.max_batch_rows = 4;
  daemon::VminDaemon d(config);
  (void)d.install_bytes("A", bundle_a_bytes());

  // Close the gate BEFORE starting: the batcher parks without ever popping,
  // so the overload below is exact — no race, no sleeps.
  d.pause();
  d.start();

  std::vector<daemon::Ticket> admitted;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    auto ticket = d.submit({query_row(i % kRows)});
    EXPECT_FALSE(ticket.resolved()) << "queued work resolved while paused";
    admitted.push_back(std::move(ticket));
  }
  // Queue is now exactly full: every further submission sheds, typed.
  std::vector<daemon::Ticket> shed;
  for (std::size_t i = 0; i < kOverflow; ++i) {
    auto ticket = d.submit({query_row(i % kRows)});
    EXPECT_TRUE(ticket.resolved());
    EXPECT_EQ(ticket.wait().status, daemon::ServeStatus::kShedQueueFull);
    shed.push_back(std::move(ticket));
  }

  // stop() opens the gate, closes admissions, and drains: every admitted
  // request must resolve kOk, in admission order.
  d.stop();
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    const auto& response = admitted[i].wait();
    ASSERT_EQ(response.status, daemon::ServeStatus::kOk) << "ticket " << i;
    EXPECT_EQ(response.sequence, i);
    EXPECT_EQ(response.served_sequence, response.sequence)
        << "FIFO violated at ticket " << i;
  }

  const auto stats = d.stats();
  EXPECT_EQ(stats.accepted, kCapacity);
  EXPECT_EQ(stats.shed_queue_full, kOverflow);
  EXPECT_EQ(stats.served_ok, kCapacity);
  EXPECT_EQ(stats.max_queue_depth, kCapacity);  // bounded: never past K
  // Drain of a 16-deep queue at max_batch_rows=4 is exactly 4 batches.
  EXPECT_EQ(stats.batches, kCapacity / config.max_batch_rows);
}

TEST(DaemonBackpressure, FifoFairnessHoldsWithConcurrentProducers) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 200;
  daemon::DaemonConfig config;
  config.queue_capacity = 64;
  config.max_batch_rows = 8;
  daemon::VminDaemon d(config);
  (void)d.install_bytes("A", bundle_a_bytes());
  d.start();

  std::vector<std::vector<daemon::Ticket>> tickets(kProducers);
  {
    std::vector<parallel::ServiceThread> producers(kProducers);
    for (std::size_t p = 0; p < kProducers; ++p) {
      auto& mine = tickets[p];
      mine.reserve(kPerProducer);
      producers[p].start([&d, &mine, p] {
        for (std::size_t i = 0; i < kPerProducer; ++i) {
          mine.push_back(d.submit({query_row((p + i) % kRows)}));
        }
      });
    }
    for (auto& producer : producers) producer.join();
  }
  d.stop();

  // Admission order between producers is scheduling-dependent, but the
  // fairness invariant is not: every ADMITTED request is served in exactly
  // its admission slot, and a producer's own sequences are increasing.
  std::uint64_t n_accepted = 0;
  std::uint64_t n_shed = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    std::uint64_t previous_sequence = 0;
    bool first = true;
    for (const auto& ticket : tickets[p]) {
      const auto& response = ticket.wait();
      if (response.status == daemon::ServeStatus::kShedQueueFull) {
        ++n_shed;
        continue;
      }
      ASSERT_EQ(response.status, daemon::ServeStatus::kOk);
      EXPECT_EQ(response.served_sequence, response.sequence);
      if (!first) {
        EXPECT_GT(response.sequence, previous_sequence);
      }
      previous_sequence = response.sequence;
      first = false;
      ++n_accepted;
    }
  }
  const auto stats = d.stats();
  EXPECT_EQ(n_accepted + n_shed, kProducers * kPerProducer);
  EXPECT_EQ(stats.accepted, n_accepted);
  EXPECT_EQ(stats.served_ok, n_accepted);  // clean drain: nothing lost
  EXPECT_LE(stats.max_queue_depth, config.queue_capacity);
}

// --- hot swap under concurrent load -----------------------------------------

/// The tentpole invariance test: 8 client threads stream queries while the
/// main thread swaps between bundles A and B mid-stream. Every kOk response
/// must be bit-exact to the reference outputs of the SINGLE epoch that
/// served it (odd epochs are A, even are B) — a torn or mixed swap cannot
/// produce that. Runs at pool widths 1, 2, and 8 (thread-count invariance)
/// and under TSan in CI.
TEST(DaemonHotSwap, ResponsesBitExactToExactlyOneEpochAcrossWidths) {
  const auto bytes_a = bundle_a_bytes();
  const auto bytes_b = bundle_b_bytes();
  const auto reference_a = reference_for(bytes_a);
  const auto reference_b = reference_for(bytes_b);
  ASSERT_NE(reference_a[0].lower, reference_b[0].lower);  // distinguishable

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kAsksPerClient = 150;
  constexpr std::size_t kSwaps = 25;

  ThreadOverrideGuard guard;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    parallel::set_max_threads(width);
    daemon::VminDaemon d;
    ASSERT_EQ(d.install_bytes("A", bytes_a), 1u);  // odd epochs serve A
    d.start();

    std::vector<std::vector<daemon::ServeResponse>> responses(kClients);
    {
      std::vector<parallel::ServiceThread> clients(kClients);
      for (std::size_t c = 0; c < kClients; ++c) {
        auto& mine = responses[c];
        mine.reserve(kAsksPerClient);
        clients[c].start([&d, &mine, c] {
          for (std::size_t i = 0; i < kAsksPerClient; ++i) {
            mine.push_back(d.ask({query_row((c * 3 + i) % kRows)}));
          }
        });
      }
      // Swap artifacts mid-stream from this thread: epoch ids alternate
      // A(odd) / B(even) because installs are the only epoch source here.
      for (std::size_t s = 0; s < kSwaps; ++s) {
        (void)d.install_bytes(s % 2 == 0 ? "B" : "A",
                              s % 2 == 0 ? bytes_b : bytes_a);
      }
      for (auto& client : clients) client.join();
    }
    d.stop();

    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t i = 0; i < responses[c].size(); ++i) {
        const auto& response = responses[c][i];
        ASSERT_EQ(response.status, daemon::ServeStatus::kOk)
            << "width " << width << " client " << c << " ask " << i;
        ASSERT_GE(response.epoch, 1u);
        ASSERT_LE(response.epoch, 1u + kSwaps);
        const std::size_t row = (c * 3 + i) % kRows;
        const auto& expected = (response.epoch % 2 == 1)
                                   ? reference_a[row]
                                   : reference_b[row];
        EXPECT_EQ(response.interval.lower, expected.lower)
            << "width " << width << " client " << c << " ask " << i
            << " epoch " << response.epoch;
        EXPECT_EQ(response.interval.upper, expected.upper)
            << "width " << width << " client " << c << " ask " << i
            << " epoch " << response.epoch;
      }
    }
    const auto stats = d.stats();
    EXPECT_EQ(stats.installs, 1u + kSwaps);
    EXPECT_EQ(stats.served_ok, kClients * kAsksPerClient);
  }
}

// --- concurrency soak -------------------------------------------------------

/// Overload soak with a deliberately tiny queue: heavy concurrent
/// submission, hot swaps mid-flight, constant shedding. Asserts the
/// conservation and boundedness invariants that define the backpressure
/// contract — nothing silently dropped, nothing served twice, queue depth
/// never past capacity, every served response bit-exact to its epoch.
TEST(DaemonSoak, OverloadSoakConservesAndBoundsEverything) {
  const auto bytes_a = bundle_a_bytes();
  const auto bytes_b = bundle_b_bytes();
  const auto reference_a = reference_for(bytes_a);
  const auto reference_b = reference_for(bytes_b);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 300;
  daemon::DaemonConfig config;
  config.queue_capacity = 8;  // tiny: forces real shedding under load
  config.max_batch_rows = 3;
  config.cache_capacity = 2;
  daemon::VminDaemon d(config);
  (void)d.install_bytes("A", bytes_a);
  d.start();

  std::vector<std::vector<daemon::Ticket>> tickets(kProducers);
  {
    std::vector<parallel::ServiceThread> producers(kProducers);
    for (std::size_t p = 0; p < kProducers; ++p) {
      auto& mine = tickets[p];
      mine.reserve(kPerProducer);
      producers[p].start([&d, &mine, p] {
        for (std::size_t i = 0; i < kPerProducer; ++i) {
          mine.push_back(d.submit({query_row((p * 5 + i) % kRows)}));
        }
      });
    }
    // Keep swapping while the soak runs.
    for (std::size_t s = 0; s < 10; ++s) {
      (void)d.install_bytes(s % 2 == 0 ? "B" : "A",
                            s % 2 == 0 ? bytes_b : bytes_a);
    }
    for (auto& producer : producers) producer.join();
  }
  d.stop();

  std::uint64_t n_ok = 0;
  std::uint64_t n_shed = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < tickets[p].size(); ++i) {
      const auto& response = tickets[p][i].wait();
      if (response.status == daemon::ServeStatus::kShedQueueFull) {
        ++n_shed;
        continue;
      }
      ASSERT_EQ(response.status, daemon::ServeStatus::kOk)
          << "producer " << p << " submit " << i;
      EXPECT_EQ(response.served_sequence, response.sequence);
      const std::size_t row = (p * 5 + i) % kRows;
      const auto& expected =
          (response.epoch % 2 == 1) ? reference_a[row] : reference_b[row];
      EXPECT_EQ(response.interval.lower, expected.lower);
      EXPECT_EQ(response.interval.upper, expected.upper);
      ++n_ok;
    }
  }

  const auto stats = d.stats();
  // Conservation: every submission is exactly one of served / shed.
  EXPECT_EQ(n_ok + n_shed, kProducers * kPerProducer);
  EXPECT_EQ(stats.accepted, n_ok);
  EXPECT_EQ(stats.served_ok, n_ok);
  EXPECT_EQ(stats.shed_queue_full, n_shed);
  EXPECT_EQ(stats.shed_shutdown, 0u);
  // Boundedness: admission control held the line.
  EXPECT_LE(stats.max_queue_depth, config.queue_capacity);
  EXPECT_GT(n_ok, 0u);  // the daemon made progress under overload
}

}  // namespace
