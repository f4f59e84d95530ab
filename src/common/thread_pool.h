// Fixed-size worker pool fed by one lock-free ring per worker.
//
// Built for pipeline stages that fan work out across records — the
// collector's resolver stage and the aggregator's decode stage are its
// users. Tasks receive the index of the worker that runs them
// (0..workers-1), so callers can keep strictly per-worker state (e.g. a
// DelayBudget, whose contract is single-threaded use) without any
// locking: worker i is one thread for the pool's whole lifetime, so state
// indexed by i has one owner.
//
// Single-submitter rule: exactly ONE thread may call Submit for the
// pool's whole lifetime. Each worker owns an SpscRing (common/spsc.h) and
// Submit fills the rings round-robin with an unsynchronized cursor, so a
// second submitter would break the rings' single-producer contract. That
// is exactly the shape of the collector's reader thread and the
// aggregator's receiver thread, the two hottest hand-offs in the
// pipeline; round-robin also keeps per-worker arrival order
// deterministic, which the decode stages' reorder windows rely on.
//
// Submit blocks while the chosen ring is full (backpressure) and fails
// with kClosed after Shutdown. Shutdown drains: every task accepted
// before the close runs to completion before the workers join.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/spsc.h"
#include "common/stats.h"
#include "common/status.h"

namespace sdci {

class ThreadPool {
 public:
  using Task = std::function<void(size_t worker)>;

  // `queue_capacity` is the total feed depth, split evenly across the
  // workers' rings (minimum 4 slots each); 0 means 4 tasks per worker.
  explicit ThreadPool(size_t workers, size_t queue_capacity = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; blocks while its ring is full. kClosed after
  // Shutdown. Only one thread may ever call Submit (see above).
  Status Submit(Task task);

  // Closes the feed, lets the workers drain it, joins them. Idempotent.
  void Shutdown();

  [[nodiscard]] size_t workers() const noexcept { return threads_.size(); }
  // Tasks accepted but not yet picked up by a worker.
  [[nodiscard]] size_t QueueDepth() const;
  // Tasks finished, over the pool's lifetime.
  [[nodiscard]] uint64_t Completed() const noexcept { return completed_.Get(); }

 private:
  void WorkerLoop(size_t index);

  std::vector<std::unique_ptr<SpscRing<Task>>> rings_;  // one per worker
  size_t next_ring_ = 0;  // round-robin cursor; submitter-thread-owned
  std::vector<std::jthread> threads_;
  Counter completed_;
};

}  // namespace sdci
