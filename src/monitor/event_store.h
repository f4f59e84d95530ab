// Rotating event catalog kept by the Aggregator.
//
// "The monitor also maintains a rotating catalog of events and an API to
// retrieve recent events in order to provide fault tolerance." Bounded by
// a max event count; the oldest events rotate out. Query by global
// sequence lets a consumer that crashed re-fetch everything it missed, as
// long as it comes back before its gap rotates out.
//
// One mutex guards one deque ordered by global_seq. Appends come from a
// single store thread per shard (plus the WAL replay at restore), so the
// lock only ever contends with history-API reads; the fleet scales by
// adding shards, each with its own store, rather than by striping one.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/resource.h"
#include "monitor/event.h"

namespace sdci::monitor {

class EventStore {
 public:
  explicit EventStore(size_t max_events);

  void Append(FsEvent event);

  // Batch appends take the lock once per batch. This is the aggregator's
  // store path (and the centralized baseline's), so the store keeps up
  // with batched ingest without per-event lock traffic.
  void Append(const EventBatch& batch);
  void AppendBatch(std::vector<FsEvent> events);

  // Events with global_seq >= from_seq, oldest first, up to max. Events
  // older than the rotation window are gone; `first_available` (if given)
  // reports the oldest retained sequence so callers can detect gaps.
  [[nodiscard]] std::vector<FsEvent> Query(uint64_t from_seq, size_t max,
                                           uint64_t* first_available = nullptr) const;

  // Events with time in [from, to), up to max, ordered by global_seq. The
  // store's appends are timestamp-monotone in practice (the collector
  // publishes in ChangeLog order; the aggregator assigns sequences in
  // arrival order), which makes the range start a binary search; a store
  // that ever observes an out-of-order append falls back to a linear scan
  // permanently.
  [[nodiscard]] std::vector<FsEvent> QueryTimeRange(VirtualTime from, VirtualTime to,
                                                    size_t max) const;

  [[nodiscard]] uint64_t FirstSeq() const;  // 0 when empty
  [[nodiscard]] uint64_t LastSeq() const;   // 0 when empty
  [[nodiscard]] size_t Size() const;
  [[nodiscard]] uint64_t TotalAppended() const noexcept {
    return total_appended_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] size_t max_events() const noexcept { return max_events_; }

  [[nodiscard]] const MemoryAccountant& memory() const noexcept { return memory_; }

 private:
  // Appends under the lock; handles out-of-order insertion and rotation.
  void AppendRun(const FsEvent* events, size_t count);

  const size_t max_events_;
  mutable std::mutex mutex_;
  std::deque<FsEvent> events_;  // ordered by global_seq
  bool time_monotone_ = true;
  VirtualTime last_time_{};
  std::atomic<uint64_t> total_appended_{0};
  MemoryAccountant memory_;
};

// Rotating write-ahead log of event batches: the durable half of the
// aggregator's catalog (see AggregatorCheckpoint). Appends share the batch
// representation — a refcount bump, no event copies — and rotation drops
// whole batches from the front once the retained event count exceeds the
// capacity, mirroring the EventStore's rotation window so a store restored
// from the WAL answers the same queries the lost one would have.
class EventWal {
 public:
  explicit EventWal(size_t max_events);

  void Append(const EventBatch& batch);

  // Group commit: every batch in the group becomes durable under one lock
  // acquisition — a backlog of collector messages pays the write-ahead
  // cost once per group, and a crash can never observe half of a group (the WAL either has all
  // of a group's batches or none of them).
  void AppendGroup(const std::vector<EventBatch>& batches);

  // The retained batches, oldest first (replay them in order to rebuild
  // the catalog).
  [[nodiscard]] std::vector<EventBatch> Snapshot() const;

  [[nodiscard]] size_t EventCount() const;
  [[nodiscard]] uint64_t TotalAppended() const;  // events, over all time
  [[nodiscard]] uint64_t Commits() const;        // lock acquisitions that appended

 private:
  void AppendLocked(const EventBatch& batch);

  const size_t max_events_;
  mutable std::mutex mutex_;
  std::deque<EventBatch> batches_;
  size_t event_count_ = 0;
  uint64_t total_appended_ = 0;
  uint64_t commits_ = 0;
};

}  // namespace sdci::monitor
