// Lock-free single-producer/single-consumer ring buffer.
//
// The wait-free complement to BoundedQueue for the pipeline's hottest
// SPSC hop (collector reader -> resolver feed), where the mutex+condvar hand-off cost dominates at
// high event rates. Exactly ONE thread may push and exactly ONE thread
// may pop for the ring's whole lifetime — that contract is what buys the
// lock freedom, and it is the caller's to uphold (ThreadPool assigns one
// ring per worker and admits one submitter for precisely this reason).
//
// Design (the classic cached-index SPSC ring):
//  - capacity is rounded up to a power of two; indices grow monotonically
//    and are masked on access, so full/empty are exact (tail - head).
//  - head_ (consumer) and tail_ (producer) live on separate cache lines;
//    each side keeps a non-atomic cache of the other's index and re-loads
//    it (acquire) only when the cached value says full/empty — the fast
//    path is one relaxed load, one store-release, zero shared-line
//    bouncing.
//  - release on publish / acquire on observe pairs make the slot contents
//    visible without fences on x86 and correctly on weaker architectures
//    (and keep TSan happy).
//
// Shutdown keeps BoundedQueue's drain discipline: Close() makes pushes
// fail with kClosed while pops drain the remaining items before failing.
// Blocking variants spin briefly, then yield, then sleep — bounded wake
// latency without a futex dependency.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/status.h"

namespace sdci {

template <typename T>
class SpscRing {
 public:
  // `capacity` is rounded up to the next power of two (min 2).
  explicit SpscRing(size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? size_t{2} : capacity) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer side. kResourceExhausted when full, kClosed after Close().
  Status TryPush(T item) { return PushImpl(item); }

  // Producer side, blocking while full (backpressure — the BoundedQueue
  // Push discipline). kClosed once the ring is closed.
  Status Push(T item) {
    Backoff backoff;
    while (true) {
      // PushImpl moves `item` out only on success, so it survives full
      // rounds intact.
      Status status = PushImpl(item);
      if (status.ok() || status.code() == StatusCode::kClosed) return status;
      backoff.Wait();
    }
  }

  // Consumer side. nullopt when currently empty (closed or not — check
  // closed-and-drained via Pop for termination).
  std::optional<T> TryPop() {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return std::nullopt;
    }
    std::optional<T> out(std::move(slots_[head & mask_]));
    head_.store(head + 1, std::memory_order_release);
    return out;
  }

  // Consumer side, blocking while empty; drains remaining items after
  // Close() and only then fails with kClosed.
  Result<T> Pop() {
    Backoff backoff;
    while (true) {
      if (auto item = TryPop()) return std::move(*item);
      // Order matters: the closed check comes after an empty TryPop, so a
      // Close() racing a final Push never strands the pushed item.
      if (closed_.load(std::memory_order_acquire)) {
        if (auto item = TryPop()) return std::move(*item);
        return ClosedError("ring closed");
      }
      backoff.Wait();
    }
  }

  // Any thread. Pushes fail afterwards; the consumer drains what remains.
  void Close() { closed_.store(true, std::memory_order_release); }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }
  // Approximate under concurrency (exact when quiescent).
  [[nodiscard]] size_t size() const noexcept {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] size_t capacity() const noexcept { return mask_ + 1; }

 private:
  Status PushImpl(T& item) {
    if (closed_.load(std::memory_order_acquire)) return ClosedError("ring closed");
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return ResourceExhaustedError("ring full");
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return OkStatus();
  }

  // Spin -> yield -> capped sleep. The spin phase covers the common case
  // (the peer is mid-operation on another core); the sleep bounds CPU burn
  // when the peer is descheduled or genuinely idle.
  struct Backoff {
    int rounds = 0;
    void Wait() {
      ++rounds;
      if (rounds < 64) return;  // busy spin
      if (rounds < 128) {
        std::this_thread::yield();
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };

  const uint64_t mask_;
  std::vector<T> slots_;

  // Producer-owned line: tail_ plus the producer's cache of head_.
  alignas(64) std::atomic<uint64_t> tail_{0};
  uint64_t head_cache_ = 0;
  // Consumer-owned line: head_ plus the consumer's cache of tail_.
  alignas(64) std::atomic<uint64_t> head_{0};
  uint64_t tail_cache_ = 0;

  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace sdci
