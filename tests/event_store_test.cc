#include "monitor/event_store.h"

#include <gtest/gtest.h>

#include <deque>
#include <thread>

#include "common/rng.h"

#if defined(__SANITIZE_THREAD__)
#define SDCI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDCI_TSAN 1
#endif
#endif

namespace sdci::monitor {
namespace {

FsEvent EventWithSeq(uint64_t seq) {
  FsEvent event;
  event.global_seq = seq;
  event.time = Micros(static_cast<int64_t>(seq) * 1000);
  event.path = "/p/f" + std::to_string(seq);
  return event;
}

TEST(EventStore, AppendAndQueryAll) {
  EventStore store(100);
  for (uint64_t s = 1; s <= 10; ++s) store.Append(EventWithSeq(s));
  EXPECT_EQ(store.Size(), 10u);
  EXPECT_EQ(store.FirstSeq(), 1u);
  EXPECT_EQ(store.LastSeq(), 10u);
  const auto events = store.Query(1, 100);
  ASSERT_EQ(events.size(), 10u);
  EXPECT_EQ(events.front().global_seq, 1u);
  EXPECT_EQ(events.back().global_seq, 10u);
}

TEST(EventStore, QueryFromMidAndMax) {
  EventStore store(100);
  for (uint64_t s = 1; s <= 10; ++s) store.Append(EventWithSeq(s));
  const auto events = store.Query(5, 3);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].global_seq, 5u);
  EXPECT_EQ(events[2].global_seq, 7u);
  EXPECT_TRUE(store.Query(11, 10).empty());
}

TEST(EventStore, RotationEvictsOldest) {
  EventStore store(5);
  for (uint64_t s = 1; s <= 12; ++s) store.Append(EventWithSeq(s));
  EXPECT_EQ(store.Size(), 5u);
  EXPECT_EQ(store.FirstSeq(), 8u);
  EXPECT_EQ(store.TotalAppended(), 12u);
  uint64_t first_available = 0;
  const auto events = store.Query(1, 100, &first_available);
  EXPECT_EQ(first_available, 8u) << "caller can detect the gap";
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].global_seq, 8u);
}

TEST(EventStore, QueryTimeRange) {
  EventStore store(100);
  for (uint64_t s = 1; s <= 10; ++s) store.Append(EventWithSeq(s));
  // times are s*1000us; [3000us, 6000us) covers seq 3..5
  const auto events = store.QueryTimeRange(Micros(3000), Micros(6000), 100);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].global_seq, 3u);
  EXPECT_EQ(events[2].global_seq, 5u);
}

TEST(EventStore, MemoryFollowsRotation) {
  EventStore store(4);
  for (uint64_t s = 1; s <= 4; ++s) store.Append(EventWithSeq(s));
  const uint64_t full = store.memory().CurrentBytes();
  EXPECT_GT(full, 0u);
  for (uint64_t s = 5; s <= 50; ++s) store.Append(EventWithSeq(s));
  // Still ~4 events retained; memory should not balloon.
  EXPECT_LT(store.memory().CurrentBytes(), full * 2);
  EXPECT_GE(store.memory().PeakBytes(), store.memory().CurrentBytes());
}

TEST(EventStore, EmptyStore) {
  EventStore store(10);
  EXPECT_EQ(store.FirstSeq(), 0u);
  EXPECT_EQ(store.LastSeq(), 0u);
  EXPECT_TRUE(store.Query(0, 10).empty());
}

// Regression for the binary-search QueryTimeRange: on monotone appends it
// must return exactly what the linear scan did — boundary inclusivity,
// duplicate timestamps, and the max cap included.
TEST(EventStore, QueryTimeRangeMatchesLinearScan) {
  EventStore store(64);
  uint64_t seq = 0;
  // Duplicate timestamps (several events per tick) and gaps.
  for (int tick : {1, 1, 1, 4, 4, 9, 9, 9, 9, 12, 20, 20, 31}) {
    auto event = EventWithSeq(++seq);
    event.time = Micros(tick);
    store.Append(event);
  }
  const auto scan = [&](VirtualTime from, VirtualTime to, size_t max) {
    std::vector<uint64_t> seqs;
    for (uint64_t s = 1; s <= seq && seqs.size() < max; ++s) {
      const auto all = store.Query(s, 1);
      if (!all.empty() && all[0].global_seq == s && all[0].time >= from &&
          all[0].time < to) {
        seqs.push_back(s);
      }
    }
    return seqs;
  };
  for (const auto& [from, to] : std::vector<std::pair<int, int>>{
           {0, 100}, {1, 1}, {1, 2}, {1, 9}, {9, 10}, {4, 21}, {31, 32}, {32, 99}}) {
    const auto got = store.QueryTimeRange(Micros(from), Micros(to), 100);
    const auto want = scan(Micros(from), Micros(to), 100);
    ASSERT_EQ(got.size(), want.size()) << "range [" << from << "," << to << ")";
    for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].global_seq, want[i]);
  }
  // The max cap takes the *oldest* max matches, same as the scan always did.
  const auto capped = store.QueryTimeRange(Micros(0), Micros(100), 4);
  ASSERT_EQ(capped.size(), 4u);
  EXPECT_EQ(capped[0].global_seq, 1u);
  EXPECT_EQ(capped[3].global_seq, 4u);
}

TEST(EventStore, QueryTimeRangeSurvivesOutOfOrderAppends) {
  EventStore store(64);
  auto a = EventWithSeq(1);
  a.time = Micros(50);
  auto b = EventWithSeq(2);
  b.time = Micros(10);  // time regression: store must fall back to scanning
  auto c = EventWithSeq(3);
  c.time = Micros(30);
  store.Append(a);
  store.Append(b);
  store.Append(c);
  const auto events = store.QueryTimeRange(Micros(10), Micros(40), 100);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].global_seq, 2u);
  EXPECT_EQ(events[1].global_seq, 3u);
}

// ---- Oracle and concurrency properties of the single-lock store. ----

// A linear model of the store: every event ever appended, seq-sorted,
// minus the oldest beyond capacity.
class StoreModel {
 public:
  explicit StoreModel(size_t capacity) : capacity_(capacity) {}
  void Append(const std::vector<FsEvent>& batch) {
    events_.insert(events_.end(), batch.begin(), batch.end());
    while (events_.size() > capacity_) events_.pop_front();
  }
  [[nodiscard]] std::vector<FsEvent> Query(uint64_t from_seq, size_t max) const {
    std::vector<FsEvent> out;
    for (const FsEvent& event : events_) {
      if (out.size() < max && event.global_seq >= from_seq) out.push_back(event);
    }
    return out;
  }
  [[nodiscard]] std::vector<FsEvent> QueryTimeRange(VirtualTime from, VirtualTime to,
                                                    size_t max) const {
    std::vector<FsEvent> out;
    for (const FsEvent& event : events_) {
      if (out.size() < max && event.time >= from && event.time < to) {
        out.push_back(event);
      }
    }
    return out;
  }
  [[nodiscard]] uint64_t FirstSeq() const {
    return events_.empty() ? 0 : events_.front().global_seq;
  }

 private:
  size_t capacity_;
  std::deque<FsEvent> events_;
};

// Randomized (but deterministic) append/query interleavings: the store
// must answer every Query and QueryTimeRange exactly like the linear
// model fed the same batches in the same order, across rotation.
TEST(EventStoreSharded, MatchesSingleShardOracleOnRandomizedQueries) {
  Rng rng(20260806);
  constexpr size_t kCapacity = 4096;
  EventStore store(kCapacity);
  StoreModel oracle(kCapacity);
  uint64_t seq = 0;
  int64_t time_us = 0;
  for (int round = 0; round < 200; ++round) {
    const auto batch_size = static_cast<size_t>(rng.NextInt(1, 96));
    std::vector<FsEvent> batch;
    for (size_t i = 0; i < batch_size; ++i) {
      FsEvent event = EventWithSeq(++seq);
      // Mostly monotone times with occasional duplicates (several events
      // per tick), as the pipeline produces.
      if (!rng.NextBool(0.3)) time_us += rng.NextInt(0, 5);
      event.time = Micros(time_us);
      batch.push_back(std::move(event));
    }
    oracle.Append(batch);
    store.AppendBatch(std::move(batch));

    const auto from_seq = static_cast<uint64_t>(rng.NextInt(0, static_cast<int64_t>(seq) + 2));
    const auto max = static_cast<size_t>(rng.NextInt(1, 300));
    uint64_t got_first = 0;
    const auto got = store.Query(from_seq, max, &got_first);
    const auto want = oracle.Query(from_seq, max);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    EXPECT_EQ(got_first, oracle.FirstSeq());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].global_seq, want[i].global_seq) << "round " << round;
      EXPECT_EQ(got[i].path, want[i].path);
    }

    const int64_t from_t = rng.NextInt(0, time_us + 2);
    const int64_t to_t = from_t + rng.NextInt(0, time_us / 2 + 2);
    const auto got_range = store.QueryTimeRange(Micros(from_t), Micros(to_t), max);
    const auto want_range = oracle.QueryTimeRange(Micros(from_t), Micros(to_t), max);
    ASSERT_EQ(got_range.size(), want_range.size())
        << "round " << round << " [" << from_t << "," << to_t << ") max " << max;
    for (size_t i = 0; i < got_range.size(); ++i) {
      ASSERT_EQ(got_range[i].global_seq, want_range[i].global_seq);
    }
  }
  EXPECT_EQ(store.Size(), std::min<uint64_t>(seq, kCapacity));
  EXPECT_EQ(store.TotalAppended(), seq);
  EXPECT_EQ(store.FirstSeq(), oracle.FirstSeq());
  EXPECT_EQ(store.LastSeq(), seq);
}

// Concurrent QueryTimeRange readers against concurrent appends (multiple
// writers racing over disjoint seq ranges, so batches land out of order)
// never crash, never return a duplicate or out-of-order sequence, and —
// once the writers join — agree with a store fed in order exactly.
TEST(EventStoreSharded, ConcurrentTimeRangeQueriesMatchOracle) {
#ifdef SDCI_TSAN
  constexpr int kBatches = 120;
#else
  constexpr int kBatches = 600;
#endif
  constexpr size_t kBatchSize = 16;
  constexpr int kWriters = 4;

  // Pre-generate every batch so writers and the oracle see identical data.
  std::vector<std::vector<FsEvent>> batches;
  uint64_t seq = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<FsEvent> batch;
    for (size_t i = 0; i < kBatchSize; ++i) {
      FsEvent event = EventWithSeq(++seq);
      event.time = Micros(static_cast<int64_t>(seq));  // monotone times
      batch.push_back(std::move(event));
    }
    batches.push_back(std::move(batch));
  }
  EventStore oracle(1u << 20);
  for (const auto& batch : batches) oracle.AppendBatch(batch);

  EventStore store(1u << 20);
  std::atomic<size_t> next_batch{0};
  std::atomic<bool> done{false};
  std::vector<std::jthread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      while (true) {
        const size_t index = next_batch.fetch_add(1, std::memory_order_relaxed);
        if (index >= batches.size()) break;
        store.AppendBatch(batches[index]);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(991 + r);
      while (!done.load(std::memory_order_acquire)) {
        const int64_t from = rng.NextInt(0, kBatches * static_cast<int64_t>(kBatchSize));
        const int64_t to = from + rng.NextInt(1, 512);
        const auto got = store.QueryTimeRange(Micros(from), Micros(to), 256);
        for (size_t i = 1; i < got.size(); ++i) {
          // Ordered and duplicate-free.
          ASSERT_GT(got[i].global_seq, got[i - 1].global_seq);
        }
        for (const FsEvent& event : got) {
          // Every result is a real event (times encode sequence here).
          ASSERT_EQ(event.time, Micros(static_cast<int64_t>(event.global_seq)));
        }
      }
    });
  }
  // Join writers first (the first kWriters threads), then release readers.
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  done.store(true, std::memory_order_release);
  threads.clear();  // join readers

  // Converged state: indistinguishable from the oracle.
  Rng rng(31337);
  for (int probe = 0; probe < 50; ++probe) {
    const int64_t from = rng.NextInt(0, static_cast<int64_t>(seq) + 2);
    const int64_t to = from + rng.NextInt(0, 2048);
    const auto got = store.QueryTimeRange(Micros(from), Micros(to), 400);
    const auto want = oracle.QueryTimeRange(Micros(from), Micros(to), 400);
    ASSERT_EQ(got.size(), want.size()) << "[" << from << "," << to << ")";
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].global_seq, want[i].global_seq);
    }
  }
  EXPECT_EQ(store.Size(), oracle.Size());
  EXPECT_EQ(store.LastSeq(), oracle.LastSeq());
}

// One time regression in the middle of a long run drops the store to a
// linear scan; results stay correct and seq-ordered.
TEST(EventStoreSharded, OutOfOrderTimesStayQueryable) {
  EventStore store(1024);
  // Seqs 1..300 but one time regression in the middle of the range.
  for (uint64_t s = 1; s <= 300; ++s) {
    FsEvent event = EventWithSeq(s);
    event.time = s == 150 ? Micros(1) : Micros(static_cast<int64_t>(s) * 10);
    store.Append(event);
  }
  const auto events = store.QueryTimeRange(Micros(0), Micros(100), 1u << 10);
  // times < 100us: seqs 1..9 (10..90us) plus the regressed seq 150 (1us).
  ASSERT_EQ(events.size(), 10u);
  EXPECT_EQ(events.front().global_seq, 1u);
  EXPECT_EQ(events.back().global_seq, 150u);
}

}  // namespace
}  // namespace sdci::monitor
