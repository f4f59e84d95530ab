// ReorderBuffer: the ticketed reorder pattern of the collector's
// pipelined resolver stage.
//
// A single producer issues monotonically increasing *tickets* (arrival
// order); a pool of workers completes tickets out of order; a single
// consumer releases them strictly in ticket order. The buffer bounds how
// far the producer may run ahead of the consumer (`window`), so a stalled
// consumer backpressures the producer instead of letting completed work
// accumulate without limit.
//
// The consumer takes the value at the cursor WITHOUT advancing it
// (AwaitNext), performs its side effects (publish, purge), then calls
// Release(). The in-flight window keeps covering the value being worked
// on, so "window" means exactly "tickets issued but not yet fully
// delivered" — the collector's purge-after-publish contract depends on
// that accounting.
//
// Thread-safety: any number of Complete() callers; one producer thread
// calling Acquire(); one consumer thread calling AwaitNext/Release.
// Occupancy/InFlight/TicketsIssued may be read from anywhere (scrape
// callbacks).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

namespace sdci {

template <typename T>
class ReorderBuffer {
 public:
  // `window` must be >= 1: the max tickets in flight (issued but not yet
  // released) before Acquire() blocks.
  explicit ReorderBuffer(size_t window) : window_(window < 1 ? 1 : window) {}

  ReorderBuffer(const ReorderBuffer&) = delete;
  ReorderBuffer& operator=(const ReorderBuffer&) = delete;

  // Producer: blocks until fewer than `window` tickets are in flight, then
  // issues the next ticket. The wait is plain (non-interruptible): the
  // consumer keeps releasing tickets even during shutdown, so this always
  // terminates.
  [[nodiscard]] uint64_t Acquire() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return next_ticket_ - cursor_ < window_; });
    return next_ticket_++;
  }

  // Worker: files the completed value for `ticket`.
  void Complete(uint64_t ticket, T value) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      completed_.emplace(ticket, std::move(value));
    }
    cv_.notify_all();
  }

  // Producer: no further Acquire() calls will follow. Wakes the consumer
  // so it can drain what remains and observe the end of stream.
  void MarkDone() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
  }

  // Re-arms a buffer after MarkDone() (pipeline restart). Tickets continue
  // from where they left off; parked values, if any, stay parked.
  void Reopen() {
    const std::lock_guard<std::mutex> lock(mutex_);
    done_ = false;
  }

  // Consumer: blocks until the cursor's ticket completes (moves its value
  // into `out`, returns true) or the stream is done and fully released
  // (returns false). Does NOT advance the cursor — call Release() once the
  // value's side effects are durable.
  [[nodiscard]] bool AwaitNext(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      return completed_.count(cursor_) > 0 || (done_ && cursor_ == next_ticket_);
    });
    const auto it = completed_.find(cursor_);
    if (it == completed_.end()) return false;  // done and drained
    out = std::move(it->second);
    completed_.erase(it);
    return true;
  }

  // Consumer: advances the cursor past the value AwaitNext() handed out,
  // freeing one window slot for the producer.
  void Release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++cursor_;
    }
    cv_.notify_all();
  }

  // Values completed but parked behind an earlier in-flight ticket (or not
  // yet claimed by the consumer).
  [[nodiscard]] size_t Occupancy() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return completed_.size();
  }

  // Tickets issued but not yet released.
  [[nodiscard]] size_t InFlight() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<size_t>(next_ticket_ - cursor_);
  }

  [[nodiscard]] uint64_t TicketsIssued() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return next_ticket_;
  }

  [[nodiscard]] size_t window() const noexcept { return window_; }

 private:
  const size_t window_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<uint64_t, T> completed_;
  uint64_t next_ticket_ = 0;  // issued by the producer
  uint64_t cursor_ = 0;       // next ticket the consumer will release
  bool done_ = false;
};

}  // namespace sdci
