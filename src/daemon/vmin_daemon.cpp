#include "daemon/vmin_daemon.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"

namespace vmincqr::daemon {

const ServeResponse& Ticket::wait() const {
  VMINCQR_REQUIRE(state_ != nullptr, "Ticket: wait() on an invalid ticket");
  state_->done.wait();
  return state_->response;
}

VminDaemon::VminDaemon(DaemonConfig config)
    : config_(config),
      cache_(config.cache_capacity),
      queue_(config.queue_capacity) {
  VMINCQR_REQUIRE(config.max_batch_rows > 0,
                  "VminDaemon: max_batch_rows must be positive");
}

VminDaemon::~VminDaemon() { stop(); }

void VminDaemon::start() {
  const parallel::ScopedLock lock(control_mutex_);
  VMINCQR_REQUIRE(!started_, "VminDaemon: already started");
  VMINCQR_REQUIRE(!stopped_, "VminDaemon: one-shot lifecycle, cannot restart");
  started_ = true;
  batcher_.start([this] { run_loop(); });
}

void VminDaemon::stop() {
  bool join_batcher = false;
  {
    const parallel::ScopedLock lock(control_mutex_);
    if (stopped_) return;
    stopped_ = true;
    join_batcher = started_;
  }
  queue_.close();
  gate_.open();
  if (join_batcher) batcher_.join();
}

void VminDaemon::pause() { gate_.close(); }

void VminDaemon::resume() { gate_.open(); }

std::uint64_t VminDaemon::install_bytes(const std::string& key,
                                        const std::vector<std::uint8_t>& bytes) {
  // Decode before touching any daemon state: a malformed artifact throws
  // here and the active epoch keeps serving — the swap is all-or-nothing.
  auto predictor = std::make_shared<const serve::VminPredictor>(
      serve::VminPredictor::from_bytes(bytes));
  cache_.put(key, predictor);
  return publish(std::move(predictor), /*is_install=*/true);
}

std::uint64_t VminDaemon::install_file(const std::string& key,
                                       const std::string& path) {
  auto predictor = std::make_shared<const serve::VminPredictor>(
      serve::VminPredictor::load_file(path));
  cache_.put(key, predictor);
  return publish(std::move(predictor), /*is_install=*/true);
}

std::uint64_t VminDaemon::activate(const std::string& key) {
  auto predictor = cache_.get(key);
  if (predictor == nullptr) {
    throw std::invalid_argument(
        "VminDaemon::activate: bundle not resident in cache: " + key);
  }
  return publish(std::move(predictor), /*is_install=*/false);
}

std::uint64_t VminDaemon::publish(
    std::shared_ptr<const serve::VminPredictor> predictor, bool is_install) {
  VMINCQR_REQUIRE(predictor != nullptr, "VminDaemon: null predictor");
  std::uint64_t id = 0;
  // The epoch this publish replaces retires after control_mutex_ is
  // released, in case it holds the last reference to its bundle.
  std::shared_ptr<const Epoch> retired;
  {
    const parallel::ScopedLock lock(control_mutex_);
    id = next_epoch_id_;
    ++next_epoch_id_;
    auto epoch = std::make_shared<Epoch>();
    epoch->id = id;
    epoch->predictor = std::move(predictor);
    retired = epoch_cell_.exchange(std::move(epoch));
  }
  {
    const parallel::ScopedLock lock(stats_mutex_);
    if (is_install) {
      ++stats_.installs;
    } else {
      ++stats_.activations;
    }
  }
  return id;
}

std::uint64_t VminDaemon::active_epoch() const {
  const auto epoch = epoch_cell_.load();
  return epoch == nullptr ? 0 : epoch->id;
}

Ticket VminDaemon::submit(ChipQuery query) {
  auto pending = std::make_shared<detail::Pending>();
  WorkItem item{std::move(query), pending};
  // The sequence stamp runs under the queue lock, before the item becomes
  // poppable: the batcher's later writes to the same response slot are
  // ordered after it, so no lock is needed on the slot itself.
  const parallel::Push outcome = queue_.try_push_sequenced(
      std::move(item), [&pending](std::uint64_t sequence) {
        pending->response.sequence = sequence;
      });
  switch (outcome) {
    case parallel::Push::kAccepted: {
      const parallel::ScopedLock lock(stats_mutex_);
      ++stats_.accepted;
      break;
    }
    case parallel::Push::kFull: {
      pending->response.status = ServeStatus::kShedQueueFull;
      pending->done.set();
      const parallel::ScopedLock lock(stats_mutex_);
      ++stats_.shed_queue_full;
      break;
    }
    case parallel::Push::kClosed: {
      pending->response.status = ServeStatus::kShedShutdown;
      pending->done.set();
      const parallel::ScopedLock lock(stats_mutex_);
      ++stats_.shed_shutdown;
      break;
    }
  }
  return Ticket(std::move(pending));
}

ServeResponse VminDaemon::ask(ChipQuery query) {
  return submit(std::move(query)).wait();
}

DaemonStats VminDaemon::stats() const {
  DaemonStats out;
  {
    const parallel::ScopedLock lock(stats_mutex_);
    out = stats_;
  }
  out.max_queue_depth = queue_.max_depth();
  out.cache = cache_.stats();
  return out;
}

void VminDaemon::run_loop() {
  std::vector<WorkItem> batch;
  for (;;) {
    gate_.wait_open();
    if (queue_.pop_batch(batch, config_.max_batch_rows) == 0) break;
    serve_batch(batch);
  }
}

void VminDaemon::serve_batch(std::vector<WorkItem>& batch) {
  // One epoch snapshot per batch: every response in this batch is computed
  // by exactly this predictor, regardless of concurrent installs. The
  // snapshot's refcount keeps the bundle alive until the batch finishes.
  const auto epoch = epoch_cell_.load();
  const std::size_t width =
      epoch == nullptr ? 0 : epoch->predictor->expected_features();

  std::uint64_t n_bad_width = 0;
  std::uint64_t n_no_artifact = 0;
  std::vector<std::size_t> ok_rows;
  ok_rows.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ServeResponse& response = batch[i].pending->response;
    response.served_sequence = next_served_sequence_;
    ++next_served_sequence_;
    if (epoch == nullptr) {
      response.status = ServeStatus::kNoArtifact;
      ++n_no_artifact;
      continue;
    }
    response.epoch = epoch->id;
    if (batch[i].query.features.size() != width) {
      response.status = ServeStatus::kBadWidth;
      ++n_bad_width;
      continue;
    }
    ok_rows.push_back(i);
  }

  std::uint64_t n_ok = 0;
  std::uint64_t n_internal = 0;
  if (!ok_rows.empty()) {
    linalg::Matrix x(ok_rows.size(), width);
    for (std::size_t j = 0; j < ok_rows.size(); ++j) {
      const std::vector<double>& row = batch[ok_rows[j]].query.features;
      std::copy(row.begin(), row.end(), x.row_ptr(j));
    }
    try {
      const std::vector<serve::IntervalPrediction> intervals =
          epoch->predictor->predict_batch(x);
      for (std::size_t j = 0; j < ok_rows.size(); ++j) {
        ServeResponse& response = batch[ok_rows[j]].pending->response;
        response.status = ServeStatus::kOk;
        response.interval = intervals[j];
      }
      n_ok = ok_rows.size();
    } catch (const std::exception&) {
      // A throwing predictor must not take the daemon down: answer the
      // batch with a typed error and keep draining.
      for (const std::size_t i : ok_rows) {
        batch[i].pending->response.status = ServeStatus::kInternalError;
      }
      n_internal = ok_rows.size();
    }
  }

  // Responses are fully written before any waiter wakes.
  for (WorkItem& item : batch) item.pending->done.set();

  const parallel::ScopedLock lock(stats_mutex_);
  ++stats_.batches;
  stats_.served_ok += n_ok;
  stats_.served_bad_width += n_bad_width;
  stats_.served_no_artifact += n_no_artifact;
  stats_.served_internal_error += n_internal;
}

}  // namespace vmincqr::daemon
