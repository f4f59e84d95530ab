#include "monitor/event_store.h"

#include <algorithm>

namespace sdci::monitor {

EventStore::EventStore(size_t max_events)
    : max_events_(max_events == 0 ? 1 : max_events) {}

void EventStore::AppendRun(const FsEvent* events, size_t count) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < count; ++i) {
    const FsEvent& event = events[i];
    memory_.Charge(event.ApproxBytes());
    if (events_.empty() || event.global_seq >= events_.back().global_seq) {
      if (time_monotone_ && event.time < last_time_) time_monotone_ = false;
      last_time_ = event.time;
      events_.push_back(event);
    } else {
      // A lower sequence after a higher one (concurrent appenders): keep
      // the deque seq-sorted so Query's binary search stays correct. The
      // time index cannot vouch for sorted-by-time anymore, so it drops to
      // linear scans.
      const auto pos = std::upper_bound(
          events_.begin(), events_.end(), event.global_seq,
          [](uint64_t seq, const FsEvent& e) { return seq < e.global_seq; });
      events_.insert(pos, event);
      time_monotone_ = false;
    }
  }
  total_appended_.fetch_add(count, std::memory_order_relaxed);
  while (events_.size() > max_events_) {
    memory_.Release(events_.front().ApproxBytes());
    events_.pop_front();
  }
}

void EventStore::Append(FsEvent event) { AppendRun(&event, 1); }

void EventStore::Append(const EventBatch& batch) {
  AppendRun(batch.events().data(), batch.events().size());
}

void EventStore::AppendBatch(std::vector<FsEvent> events) {
  AppendRun(events.data(), events.size());
}

std::vector<FsEvent> EventStore::Query(uint64_t from_seq, size_t max,
                                       uint64_t* first_available) const {
  std::vector<FsEvent> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (first_available != nullptr) {
    *first_available = events_.empty() ? 0 : events_.front().global_seq;
  }
  const auto begin = std::lower_bound(
      events_.begin(), events_.end(), from_seq,
      [](const FsEvent& e, uint64_t seq) { return e.global_seq < seq; });
  for (auto it = begin; it != events_.end() && out.size() < max; ++it) {
    out.push_back(*it);
  }
  return out;
}

std::vector<FsEvent> EventStore::QueryTimeRange(VirtualTime from, VirtualTime to,
                                                size_t max) const {
  std::vector<FsEvent> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (time_monotone_) {
    // Appends have stayed time-sorted, so the range start is a binary
    // search and the scan stops at the first event past `to`.
    const auto begin = std::lower_bound(
        events_.begin(), events_.end(), from,
        [](const FsEvent& e, VirtualTime t) { return e.time < t; });
    for (auto it = begin; it != events_.end() && it->time < to; ++it) {
      if (out.size() >= max) break;
      out.push_back(*it);
    }
    return out;
  }
  for (const FsEvent& event : events_) {
    if (out.size() >= max) break;
    if (event.time >= from && event.time < to) out.push_back(event);
  }
  return out;
}

uint64_t EventStore::FirstSeq() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.empty() ? 0 : events_.front().global_seq;
}

uint64_t EventStore::LastSeq() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.empty() ? 0 : events_.back().global_seq;
}

size_t EventStore::Size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

EventWal::EventWal(size_t max_events) : max_events_(max_events == 0 ? 1 : max_events) {}

void EventWal::AppendLocked(const EventBatch& batch) {
  event_count_ += batch.size();
  total_appended_ += batch.size();
  batches_.push_back(batch);
  // Rotate whole batches, always retaining at least max_events_ (the
  // window overshoots by up to one batch rather than undershooting, so a
  // store rebuilt from the WAL covers everything the lost one retained).
  while (batches_.size() > 1 && event_count_ - batches_.front().size() >= max_events_) {
    event_count_ -= batches_.front().size();
    batches_.pop_front();
  }
}

void EventWal::Append(const EventBatch& batch) {
  if (batch.empty()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  AppendLocked(batch);
  ++commits_;
}

void EventWal::AppendGroup(const std::vector<EventBatch>& batches) {
  const std::lock_guard<std::mutex> lock(mutex_);
  bool appended = false;
  for (const EventBatch& batch : batches) {
    if (batch.empty()) continue;
    AppendLocked(batch);
    appended = true;
  }
  if (appended) ++commits_;
}

std::vector<EventBatch> EventWal::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {batches_.begin(), batches_.end()};
}

size_t EventWal::EventCount() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return event_count_;
}

uint64_t EventWal::TotalAppended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_appended_;
}

uint64_t EventWal::Commits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return commits_;
}

}  // namespace sdci::monitor
