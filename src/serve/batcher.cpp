#include "serve/batcher.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace dance::serve {

MicroBatcher::MicroBatcher(CostQueryBackend& backend, Options opts)
    : backend_(backend),
      opts_(opts),
      obs_requests_(obs::Registry::global().counter("serve.batch.requests")),
      obs_batches_(obs::Registry::global().counter("serve.batch.executed")),
      obs_shed_(obs::Registry::global().counter("serve.resilience.shed")),
      obs_batch_size_(obs::Registry::global().histogram(
          "serve.batch.size", {1, 2, 4, 8, 16, 32, 64, 128, 256})) {
  if (opts_.max_batch > 1) {
    if (opts_.max_wait_us < 0) opts_.max_wait_us = 0;
    worker_ = std::thread([this] { drain_loop(); });
  }
}

MicroBatcher::~MicroBatcher() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }
}

Response MicroBatcher::query(const Request& request) {
  if (opts_.max_batch <= 1) {
    // Inline mode: no worker, no future — the caller runs the backend.
    const Request* ptr = &request;
    auto responses = backend_.query_batch({ptr, 1});
    count_batch(1);
    return responses.front();
  }

  std::future<Response> future;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (opts_.max_pending > 0 &&
        pending_.size() >= static_cast<std::size_t>(opts_.max_pending)) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      obs_shed_.inc();
      throw Overloaded("MicroBatcher: pending queue full (" +
                       std::to_string(pending_.size()) + " waiting, max_pending=" +
                       std::to_string(opts_.max_pending) + ")");
    }
    Pending p;
    p.request = &request;  // stays alive: the caller blocks on the future
    p.enqueue = std::chrono::steady_clock::now();
    future = p.promise.get_future();
    pending_.push_back(std::move(p));
    // Notify under the lock: the destructor may drain this request and
    // destroy cv_ as soon as the worker can take mu_, so the notify must
    // happen before the unlock that lets it.
    cv_.notify_all();
  }
  return future.get();
}

std::vector<Response> MicroBatcher::query_span(
    std::span<const Request> requests) {
  std::vector<Response> out;
  out.reserve(requests.size());
  const std::size_t step =
      static_cast<std::size_t>(std::max(1, opts_.max_batch));
  for (std::size_t i = 0; i < requests.size(); i += step) {
    const std::size_t n = std::min(step, requests.size() - i);
    auto chunk = backend_.query_batch(requests.subspan(i, n));
    count_batch(n);
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

MicroBatcher::Stats MicroBatcher::stats() const {
  Stats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.max_batch_seen = max_batch_seen_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  return out;
}

void MicroBatcher::count_batch(std::size_t n) {
  const auto sz = static_cast<std::uint64_t>(n);
  requests_.fetch_add(sz, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_batch_seen_.load(std::memory_order_relaxed);
  while (seen < sz && !max_batch_seen_.compare_exchange_weak(
                          seen, sz, std::memory_order_relaxed)) {
  }
  obs_requests_.inc(sz);
  obs_batches_.inc();
  obs_batch_size_.observe(static_cast<double>(sz));
}

void MicroBatcher::drain_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !pending_.empty(); });
      if (stop_ && pending_.empty()) return;
      // A partial batch waits until the deadline of its *oldest* request —
      // pending_ is FIFO, so that is front().enqueue, which survives partial
      // drains (a leftover request keeps its original arrival time instead
      // of having its wait restarted). A full batch (or shutdown) goes
      // immediately.
      const auto deadline =
          pending_.front().enqueue + std::chrono::microseconds(opts_.max_wait_us);
      cv_.wait_until(lk, deadline, [&] {
        return stop_ ||
               pending_.size() >= static_cast<std::size_t>(opts_.max_batch);
      });
      if (stop_ && pending_.empty()) return;
      const std::size_t take = std::min<std::size_t>(
          pending_.size(), static_cast<std::size_t>(opts_.max_batch));
      batch.assign(std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(pending_.begin() +
                                           static_cast<std::ptrdiff_t>(take)));
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(take));
    }
    execute(std::move(batch));
  }
}

void MicroBatcher::execute(std::vector<Pending> batch) {
  std::vector<Request> requests;
  requests.reserve(batch.size());
  for (const Pending& p : batch) requests.push_back(*p.request);
  // Count the batch before fulfilling any promise: the promise/future pair
  // synchronizes-with the waiting caller, so a caller that has observed its
  // own response also observes this batch in stats() despite the relaxed
  // counter updates.
  count_batch(batch.size());
  try {
    auto responses = backend_.query_batch(requests);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(responses[i]);
    }
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    for (Pending& p : batch) p.promise.set_exception(err);
  }
}

}  // namespace dance::serve
