// The aggregator shard's ingest path: one receive thread binds, sequences
// and group-commits each collector message to the checkpoint WAL, then
// hands it to the store and publish threads. These tests feed it from
// several concurrent publishers and assert its externally visible
// contracts: global_seq monotone in publication order, decode errors
// counted exactly, write-ahead before visibility, group commit folding a
// backlog, and Stats() snapshots that are never torn.
#include "monitor/aggregator.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/strings.h"
#include "monitor/consumer.h"

#if defined(__SANITIZE_THREAD__)
#define SDCI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDCI_TSAN 1
#endif
#endif

namespace sdci::monitor {
namespace {

class AggregatorIngestTest : public ::testing::Test {
 protected:
  AggregatorIngestTest() : authority_(2000.0), profile_(lustre::TestbedProfile::Test()) {}

  AggregatorConfig Config() {
    AggregatorConfig config;
    config.store_capacity = 1u << 16;
    config.wal_group_max = 8;
    return config;
  }

  FsEvent Event(int i) {
    FsEvent event;
    event.mdt_index = static_cast<uint32_t>(i % 3);
    event.record_index = static_cast<uint64_t>(i);
    event.type = lustre::ChangeLogType::kCreate;
    event.time = Micros(i);
    event.path = "/p/f" + std::to_string(i);
    event.name = strings::Format("f{}", i);
    return event;
  }

  void Send(msgq::PubSocket& pub, std::vector<FsEvent> events) {
    pub.Publish(msgq::Message("collect.mdt0", EncodeEventBatch(events)));
  }

  void WaitForStored(Aggregator& aggregator, uint64_t n) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (aggregator.Stats().stored < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  TimeAuthority authority_;
  lustre::TestbedProfile profile_;
  msgq::Context context_;
};

// The headline contract: with 4 collector feeds interleaving on the
// socket, subscribers observe global_seq 1..N in strictly
// increasing publication order, and every event lands exactly once.
TEST_F(AggregatorIngestTest, ParallelIngestKeepsSequencesMonotoneInPublishOrder) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  EventSubscriber consumer(context_, config.publish_endpoint, "fsevent.", 1u << 18,
                           msgq::HwmPolicy::kBlock);
  // Several "collectors" publishing concurrently into the collect socket.
  constexpr int kFeeds = 4;
  constexpr int kBatchesPerFeed = 40;
  constexpr int kBatchSize = 8;
  aggregator.Start();

  std::vector<std::jthread> feeds;
  for (int f = 0; f < kFeeds; ++f) {
    feeds.emplace_back([this, f] {
      auto pub = context_.CreatePub(Config().collect_endpoint);
      for (int b = 0; b < kBatchesPerFeed; ++b) {
        std::vector<FsEvent> batch;
        for (int i = 0; i < kBatchSize; ++i) {
          batch.push_back(Event(f * 10000 + b * kBatchSize + i));
        }
        Send(*pub, std::move(batch));
      }
    });
  }
  feeds.clear();  // join

  constexpr uint64_t kTotal = uint64_t{kFeeds} * kBatchesPerFeed * kBatchSize;
  uint64_t last_seq = 0;
  for (uint64_t n = 0; n < kTotal; ++n) {
    auto event = consumer.NextFor(std::chrono::seconds(10));
    ASSERT_TRUE(event.ok()) << "event " << n << " of " << kTotal;
    EXPECT_GT(event->global_seq, last_seq)
        << "publication order must match sequence order";
    last_seq = event->global_seq;
  }
  WaitForStored(aggregator, kTotal);
  aggregator.Stop();

  const auto stats = aggregator.Stats();
  EXPECT_EQ(stats.received, kTotal);
  EXPECT_EQ(stats.published, kTotal);
  EXPECT_EQ(stats.stored, kTotal);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(last_seq, kTotal) << "sequences are dense: nothing skipped or duplicated";
  // The store serves the full range back, in order, no holes.
  const auto all = aggregator.store().Query(1, kTotal + 10);
  ASSERT_EQ(all.size(), kTotal);
  for (uint64_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(all[i].global_seq, i + 1);
  }
}

// Decode errors interleaved with good traffic are counted exactly and
// never stall sequencing of the good batches around them.
TEST_F(AggregatorIngestTest, DecodeErrorsDoNotStallParallelSequencing) {
  auto config = Config();
  config.expected_decode_errors = 20;
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  constexpr int kGood = 50;
  for (int i = 0; i < kGood; ++i) {
    if (i % 5 == 0) {
      pub->Publish(msgq::Message("collect.mdt0", "garbage payload " + std::to_string(i)));
    }
    if (i % 10 == 0) {
      pub->Publish(msgq::Message("collect.mdt0", EncodeEventBatch({})));
    }
    Send(*pub, {Event(2 * i), Event(2 * i + 1)});
  }
  WaitForStored(aggregator, 2 * kGood);
  aggregator.Stop();

  const auto stats = aggregator.Stats();
  EXPECT_EQ(stats.stored, 2u * kGood);
  EXPECT_EQ(stats.batches_received, static_cast<uint64_t>(kGood));
  EXPECT_EQ(stats.decode_errors, 15u);  // 10 garbage + 5 zero-event
}

// Group commit folds queued messages into one WAL lock acquisition. A
// commit hook stalls the receive thread once, letting the socket fill;
// when it resumes, the backlog must drain in a handful of group commits
// instead of one per batch.
TEST_F(AggregatorIngestTest, GroupCommitAmortizesWalAppends) {
  auto config = Config();
  std::atomic<bool> stalled{false};
  config.commit_hook = [&](size_t) {
    if (!stalled.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  };
  AggregatorCheckpoint checkpoint(config.store_capacity);
  AggregatorAttachments attachments;
  attachments.checkpoint = &checkpoint;
  Aggregator aggregator(profile_, authority_, context_, config, attachments);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  constexpr int kBatches = 16;
  for (int b = 0; b < kBatches; ++b) {
    Send(*pub, {Event(2 * b), Event(2 * b + 1)});
  }
  WaitForStored(aggregator, 2 * kBatches);
  aggregator.Stop();

  const auto stats = aggregator.Stats();
  EXPECT_EQ(stats.batches_received, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.checkpointed, 2u * kBatches);
  EXPECT_GE(stats.wal_commits, 1u);
  EXPECT_LT(stats.wal_commits, static_cast<uint64_t>(kBatches))
      << "the post-stall backlog must commit in groups, not batch-at-a-time";
  // The WAL is byte-complete and ordered despite the grouping.
  uint64_t next = 1;
  for (const EventBatch& batch : checkpoint.WalSnapshot()) {
    for (const FsEvent& event : batch.events()) {
      EXPECT_EQ(event.global_seq, next++);
    }
  }
  EXPECT_EQ(next, 2u * kBatches + 1);
  EXPECT_EQ(checkpoint.NextSeq(), next);
}

// wal_group_max == 1 degenerates to the historical one-commit-per-batch
// WAL; the commit counter proves the knob is honored.
TEST_F(AggregatorIngestTest, GroupSizeOneCommitsPerBatch) {
  auto config = Config();
  config.wal_group_max = 1;
  AggregatorCheckpoint checkpoint(config.store_capacity);
  AggregatorAttachments attachments;
  attachments.checkpoint = &checkpoint;
  Aggregator aggregator(profile_, authority_, context_, config, attachments);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();
  constexpr int kBatches = 12;
  for (int b = 0; b < kBatches; ++b) Send(*pub, {Event(b)});
  WaitForStored(aggregator, kBatches);
  aggregator.Stop();
  EXPECT_EQ(aggregator.Stats().wal_commits, static_cast<uint64_t>(kBatches));
}

// The Stats() torn-read audit, as a test: reader threads hammer Stats(),
// the store's query paths and NextSeq() while the shard's ingest, store
// and publish threads mutate everything underneath. Every snapshot must be internally
// consistent (counters monotone, write-ahead ordering visible: stored
// events were checkpointed first, received events never exceed the
// sequence watermark). Run under TSan in scripts/check.sh, this is also
// the data-race gate for the whole hot path.
TEST_F(AggregatorIngestTest, StatsStayConsistentUnderIngestLoad) {
#ifdef SDCI_TSAN
  constexpr int kBatches = 60;
#else
  constexpr int kBatches = 200;
#endif
  constexpr int kBatchSize = 4;
  const auto config = Config();
  AggregatorCheckpoint checkpoint(config.store_capacity);
  AggregatorAttachments attachments;
  attachments.checkpoint = &checkpoint;
  Aggregator aggregator(profile_, authority_, context_, config, attachments);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots{0};
  std::vector<std::jthread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last_received = 0;
      uint64_t last_stored = 0;
      while (!done.load(std::memory_order_acquire)) {
        // Read order matters for cross-counter assertions: to check
        // A <= B while the writer increments B strictly before A, the
        // earlier-written side (B) must be read *after* A so concurrent
        // progress can only widen the inequality.
        const uint64_t checkpointed_first = checkpoint.TotalAppended();
        const AggregatorStats stats = aggregator.Stats();
        // Monotone counters: a torn read would show a regression.
        EXPECT_GE(stats.received, last_received);
        EXPECT_GE(stats.stored, last_stored);
        last_received = stats.received;
        last_stored = stats.stored;
        // Write-ahead ordering is visible in any snapshot: nothing is
        // stored before it was checkpointed, nothing is checkpointed
        // before it was sequenced.
        EXPECT_LE(stats.stored, stats.checkpointed);
        EXPECT_LE(checkpointed_first, stats.received);
        EXPECT_LE(stats.received, aggregator.NextSeq() - 1);
        // Concurrent store reads against the store thread's appends.
        const auto recent = aggregator.store().Query(
            stats.stored > 8 ? stats.stored - 8 : 1, 16);
        for (size_t i = 1; i < recent.size(); ++i) {
          EXPECT_GT(recent[i].global_seq, recent[i - 1].global_seq);
        }
        (void)aggregator.store().QueryTimeRange(Micros(0), Micros(1 << 20), 32);
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int b = 0; b < kBatches; ++b) {
    std::vector<FsEvent> batch;
    for (int i = 0; i < kBatchSize; ++i) batch.push_back(Event(b * kBatchSize + i));
    Send(*pub, std::move(batch));
  }
  WaitForStored(aggregator, uint64_t{kBatches} * kBatchSize);
  done.store(true, std::memory_order_release);
  readers.clear();  // join
  aggregator.Stop();

  EXPECT_GT(snapshots.load(), 0u);
  const auto stats = aggregator.Stats();
  EXPECT_EQ(stats.received, uint64_t{kBatches} * kBatchSize);
  EXPECT_EQ(stats.stored, uint64_t{kBatches} * kBatchSize);
  EXPECT_EQ(stats.checkpointed, uint64_t{kBatches} * kBatchSize);
}

}  // namespace
}  // namespace sdci::monitor
