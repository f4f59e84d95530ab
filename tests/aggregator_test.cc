#include "monitor/aggregator.h"

#include <gtest/gtest.h>

#include "common/strings.h"
#include "monitor/consumer.h"

namespace sdci::monitor {
namespace {

class AggregatorTest : public ::testing::Test {
 protected:
  AggregatorTest() : authority_(2000.0), profile_(lustre::TestbedProfile::Test()) {}

  AggregatorConfig Config() {
    AggregatorConfig config;
    config.store_capacity = 64;
    return config;
  }

  FsEvent Event(int i) {
    FsEvent event;
    event.mdt_index = 0;
    event.record_index = static_cast<uint64_t>(i);
    event.type = lustre::ChangeLogType::kCreate;
    event.time = Micros(i);
    event.path = "/p/f" + std::to_string(i);
    event.name = strings::Format("f{}", i);
    return event;
  }

  // Publishes a batch into the aggregator's collect endpoint.
  void Send(msgq::PubSocket& pub, std::vector<FsEvent> events) {
    pub.Publish(msgq::Message("collect.mdt0", EncodeEventBatch(events)));
  }

  void WaitForReceived(Aggregator& aggregator, uint64_t n) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (aggregator.Stats().stored < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  TimeAuthority authority_;
  lustre::TestbedProfile profile_;
  msgq::Context context_;
};

TEST_F(AggregatorTest, AssignsGlobalSequenceAndFansOut) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  EventSubscriber consumer(context_, config.publish_endpoint);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  Send(*pub, {Event(1), Event(2)});
  Send(*pub, {Event(3)});

  for (uint64_t expected_seq = 1; expected_seq <= 3; ++expected_seq) {
    auto event = consumer.NextFor(std::chrono::seconds(5));
    ASSERT_TRUE(event.ok());
    EXPECT_EQ(event->global_seq, expected_seq);
  }
  WaitForReceived(aggregator, 3);
  aggregator.Stop();

  const auto stats = aggregator.Stats();
  EXPECT_EQ(stats.received, 3u);
  EXPECT_EQ(stats.published, 3u);
  EXPECT_EQ(stats.stored, 3u);
  EXPECT_EQ(stats.decode_errors, 0u);
  // Two collector messages in, two homogeneous batch messages out.
  EXPECT_EQ(stats.batches_received, 2u);
  EXPECT_EQ(stats.batches_published, 2u);
}

TEST_F(AggregatorTest, PublishesTypeGroupedBatchesNotPerEventMessages) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  // Raw subscriber: sees the actual wire messages, not the per-event view.
  auto raw = context_.CreateSub(config.publish_endpoint);
  raw->Subscribe("fsevent.");
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  // One collector batch: a run of 6 creates then a run of 2 unlinks.
  std::vector<FsEvent> batch;
  for (int i = 1; i <= 8; ++i) {
    FsEvent event = Event(i);
    if (i > 6) event.type = lustre::ChangeLogType::kUnlink;
    batch.push_back(std::move(event));
  }
  Send(*pub, batch);

  // Exactly two messages reach subscribers: one per type run, in original
  // order, each carrying the whole run (no per-event fan-out).
  auto first = raw->ReceiveFor(std::chrono::seconds(5));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->topic, "fsevent.CREAT");
  auto creates = DecodeEventBatch(first->bytes());
  ASSERT_TRUE(creates.ok());
  ASSERT_EQ(creates->size(), 6u);
  for (size_t i = 1; i < creates->size(); ++i) {
    EXPECT_LT((*creates)[i - 1].global_seq, (*creates)[i].global_seq);
  }

  auto second = raw->ReceiveFor(std::chrono::seconds(5));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->topic, "fsevent.UNLNK");
  auto unlinks = DecodeEventBatch(second->bytes());
  ASSERT_TRUE(unlinks.ok());
  EXPECT_EQ(unlinks->size(), 2u);

  WaitForReceived(aggregator, 8);
  aggregator.Stop();
  EXPECT_FALSE(raw->TryReceive().has_value()) << "expected exactly 2 messages";

  const auto stats = aggregator.Stats();
  EXPECT_EQ(stats.batches_received, 1u);
  EXPECT_EQ(stats.batches_published, 2u);
  EXPECT_EQ(stats.published, 8u);
  EXPECT_EQ(stats.stored, 8u);
}

TEST_F(AggregatorTest, ZeroEventBatchCountedAsDecodeError) {
  auto config = Config();
  config.expected_decode_errors = 1;  // fed on purpose below
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();
  // Valid encoding of zero events: the wire contract is >= 1, so this is
  // counted with the malformed payloads rather than silently dropped.
  pub->Publish(msgq::Message("collect.mdt0", EncodeEventBatch({})));
  Send(*pub, {Event(1)});
  WaitForReceived(aggregator, 1);
  aggregator.Stop();
  EXPECT_EQ(aggregator.Stats().decode_errors, 1u);
  EXPECT_EQ(aggregator.Stats().batches_received, 1u);
  EXPECT_EQ(aggregator.Stats().stored, 1u);
}

TEST_F(AggregatorTest, TypeTopicsAllowFiltering) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  EventSubscriber creates_only(context_, config.publish_endpoint, "fsevent.CREAT");
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  FsEvent unlink_event = Event(1);
  unlink_event.type = lustre::ChangeLogType::kUnlink;
  Send(*pub, {Event(2), unlink_event, Event(3)});

  auto first = creates_only.NextFor(std::chrono::seconds(5));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, lustre::ChangeLogType::kCreate);
  auto second = creates_only.NextFor(std::chrono::seconds(5));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, lustre::ChangeLogType::kCreate);
  aggregator.Stop();
}

TEST_F(AggregatorTest, MalformedPayloadCountedNotFatal) {
  auto config = Config();
  config.expected_decode_errors = 1;  // fed on purpose below
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();
  pub->Publish(msgq::Message("collect.mdt0", "not an event batch"));
  Send(*pub, {Event(1)});
  WaitForReceived(aggregator, 1);
  aggregator.Stop();
  EXPECT_EQ(aggregator.Stats().decode_errors, 1u);
  EXPECT_EQ(aggregator.Stats().stored, 1u);
}

TEST_F(AggregatorTest, HistoryApiServesQueries) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  HistoryClient history(context_, config.api_endpoint);
  aggregator.Start();

  std::vector<FsEvent> batch;
  for (int i = 1; i <= 10; ++i) batch.push_back(Event(i));
  Send(*pub, batch);
  WaitForReceived(aggregator, 10);

  auto page = history.Fetch(4, 3);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->last_seq, 10u);
  ASSERT_EQ(page->events.size(), 3u);
  EXPECT_EQ(page->events[0].global_seq, 4u);
  EXPECT_EQ(page->events[0].path, "/p/f4");

  auto range = history.FetchTimeRange(Micros(2), Micros(5), 100);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->events.size(), 3u);  // times 2,3,4 us
  aggregator.Stop();
}

TEST_F(AggregatorTest, HistoryApiReportsRotationGap) {
  auto config = Config();
  config.store_capacity = 4;
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  HistoryClient history(context_, config.api_endpoint);
  aggregator.Start();
  std::vector<FsEvent> batch;
  for (int i = 1; i <= 10; ++i) batch.push_back(Event(i));
  Send(*pub, batch);
  WaitForReceived(aggregator, 10);

  auto page = history.Fetch(1, 100);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->first_available, 7u) << "seqs 1..6 rotated out";
  ASSERT_EQ(page->events.size(), 4u);
  aggregator.Stop();
}

TEST_F(AggregatorTest, PushPullTransport) {
  auto config = Config();
  config.transport = CollectTransport::kPushPull;
  Aggregator aggregator(profile_, authority_, context_, config);
  EventSubscriber consumer(context_, config.publish_endpoint);
  auto push = context_.CreatePush(config.collect_endpoint);
  aggregator.Start();
  ASSERT_TRUE(push->Push(msgq::Message("collect.mdt0",
                                       EncodeEventBatch({Event(1)}))).ok());
  auto event = consumer.NextFor(std::chrono::seconds(5));
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->global_seq, 1u);
  aggregator.Stop();
}

TEST_F(AggregatorTest, StopDrainsInFlightEvents) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();
  std::vector<FsEvent> batch;
  for (int i = 1; i <= 50; ++i) batch.push_back(Event(i));
  Send(*pub, batch);
  // Stop immediately: the drain logic must still account everything.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  aggregator.Stop();
  EXPECT_EQ(aggregator.Stats().stored, 50u);
  EXPECT_EQ(aggregator.Stats().published, 50u);
}

}  // namespace
}  // namespace sdci::monitor
