#include "ripple/sqs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace sdci::ripple {
namespace {

ReliableQueueConfig FastConfig() {
  ReliableQueueConfig config;
  config.visibility_timeout = Millis(50);
  return config;
}

TEST(ReliableQueue, SendReceiveDelete) {
  TimeAuthority authority(1000.0);
  ReliableQueue queue(authority, FastConfig());
  const uint64_t id = queue.Send("hello");
  EXPECT_GT(id, 0u);
  auto message = queue.Receive();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->body, "hello");
  EXPECT_EQ(message->receive_count, 1u);
  ASSERT_TRUE(queue.Delete(message->receipt).ok());
  EXPECT_FALSE(queue.Receive().has_value());
  EXPECT_EQ(queue.TotalSent(), 1u);
  EXPECT_EQ(queue.TotalDeleted(), 1u);
}

// Tests that assert an entry is still in flight use a low dilation, as
// FifoAmongVisible does: at 1000x the 50 ms visibility timeout is 50 us of
// wall time, and one preemption between two calls would expire it.
TEST(ReliableQueue, InFlightMessagesAreInvisible) {
  TimeAuthority authority(10.0);
  ReliableQueue queue(authority, FastConfig());
  queue.Send("a");
  auto first = queue.Receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(queue.Receive().has_value()) << "hidden by visibility timeout";
  EXPECT_EQ(queue.InFlight(), 1u);
  EXPECT_EQ(queue.VisibleDepth(), 0u);
}

TEST(ReliableQueue, TimedOutDeliveryIsRedelivered) {
  TimeAuthority authority(1000.0);
  ReliableQueue queue(authority, FastConfig());
  queue.Send("a");
  auto first = queue.Receive();
  ASSERT_TRUE(first.has_value());
  // The worker "crashes": no Delete. Wait out the visibility timeout.
  authority.SleepFor(Millis(60));
  auto second = queue.Receive();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, first->id);
  EXPECT_EQ(second->receive_count, 2u);
  EXPECT_EQ(queue.Redelivered(), 1u);
  // The first delivery's receipt is now stale.
  EXPECT_EQ(queue.Delete(first->receipt).code(), StatusCode::kNotFound);
  EXPECT_TRUE(queue.Delete(second->receipt).ok());
}

TEST(ReliableQueue, FifoAmongVisible) {
  // Low dilation: the visibility window must dwarf real scheduling noise
  // (sanitizer builds especially) or in-flight entries expire mid-test.
  TimeAuthority authority(10.0);
  ReliableQueue queue(authority, FastConfig());
  queue.Send("1");
  queue.Send("2");
  queue.Send("3");
  EXPECT_EQ(queue.Receive()->body, "1");
  EXPECT_EQ(queue.Receive()->body, "2");
  EXPECT_EQ(queue.Receive()->body, "3");
}

TEST(ReliableQueue, CleanupSweepRevivesEagerly) {
  TimeAuthority authority(10.0);  // "not yet expired" needs an open window
  ReliableQueue queue(authority, FastConfig());
  queue.Send("a");
  (void)queue.Receive();
  EXPECT_EQ(queue.CleanupSweep(), 0u) << "not yet expired";
  authority.SleepFor(Millis(60));
  EXPECT_EQ(queue.CleanupSweep(), 1u);
  EXPECT_EQ(queue.VisibleDepth(), 1u);
}

TEST(ReliableQueue, PoisonMessagesGoToDeadLetters) {
  TimeAuthority authority(1000.0);
  ReliableQueueConfig config = FastConfig();
  config.max_receives = 2;
  ReliableQueue queue(authority, config);
  queue.Send("poison");
  for (int attempt = 0; attempt < 2; ++attempt) {
    ASSERT_TRUE(queue.Receive().has_value());
    authority.SleepFor(Millis(60));
  }
  // Third receive: moved to DLQ instead of redelivered.
  EXPECT_FALSE(queue.Receive().has_value());
  const auto dead = queue.DeadLetters();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].body, "poison");
  EXPECT_EQ(dead[0].receive_count, 2u);
}

TEST(ReliableQueue, DeleteWithBogusReceiptFails) {
  TimeAuthority authority(1000.0);
  ReliableQueue queue(authority, FastConfig());
  EXPECT_EQ(queue.Delete(12345).code(), StatusCode::kNotFound);
}

TEST(ReliableQueueFairness, RoundRobinAcrossLanesFifoWithin) {
  TimeAuthority authority(10.0);
  ReliableQueue queue(authority, FastConfig());
  // Tenant "a" floods first; "b" sends two messages afterwards. A global
  // FIFO would deliver all four of a's before b's — lanes must interleave.
  queue.Send("a1", "a");
  queue.Send("a2", "a");
  queue.Send("a3", "a");
  queue.Send("a4", "a");
  queue.Send("b1", "b");
  queue.Send("b2", "b");
  EXPECT_EQ(queue.LaneCount(), 2u);
  std::vector<std::string> order;
  for (int i = 0; i < 6; ++i) {
    auto message = queue.Receive();
    ASSERT_TRUE(message.has_value());
    order.push_back(message->body);
    ASSERT_TRUE(queue.Delete(message->receipt).ok());
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2", "b2", "a3", "a4"}));
  EXPECT_EQ(queue.LaneCount(), 0u) << "drained lanes are reclaimed";
}

TEST(ReliableQueueFairness, SingleLaneBehavesLikeGlobalFifo) {
  TimeAuthority authority(10.0);
  ReliableQueue queue(authority, FastConfig());
  queue.Send("1");
  queue.Send("2");
  queue.Send("3");
  EXPECT_EQ(queue.LaneCount(), 1u);
  EXPECT_EQ(queue.Receive()->body, "1");
  EXPECT_EQ(queue.Receive()->body, "2");
  EXPECT_EQ(queue.Receive()->body, "3");
}

TEST(ReliableQueueFairness, MessagesCarryTheirLane) {
  TimeAuthority authority(1000.0);
  ReliableQueueConfig config = FastConfig();
  config.max_receives = 1;
  ReliableQueue queue(authority, config);
  queue.Send("m", "tenant-x");
  auto message = queue.Receive();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->lane, "tenant-x");
  // Poison dead-lettering preserves the lane too.
  authority.SleepFor(Millis(60));
  EXPECT_FALSE(queue.Receive().has_value());
  const auto dead = queue.DeadLetters();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].lane, "tenant-x");
}

TEST(ReliableQueueFairness, PushDeadLetterBypassesTheQueue) {
  TimeAuthority authority(1000.0);
  ReliableQueue queue(authority, FastConfig());
  const uint64_t id = queue.PushDeadLetter("over-quota", "tenant-q");
  EXPECT_GT(id, 0u);
  EXPECT_EQ(queue.VisibleDepth(), 0u) << "never entered the queue";
  EXPECT_EQ(queue.TotalSent(), 0u);
  ASSERT_EQ(queue.DeadLetterDepth(), 1u);
  const auto dead = queue.DeadLetters();
  EXPECT_EQ(dead[0].body, "over-quota");
  EXPECT_EQ(dead[0].lane, "tenant-q");
  EXPECT_EQ(dead[0].receive_count, 0u);
}

// Concurrent senders on distinct tenant lanes race concurrent receivers.
// Every message must be delivered exactly once (receipts all delete
// cleanly), per-lane FIFO must hold from each receiver's perspective, and
// the backlogged tenant must not lock out the light one. Run under TSan
// (check.sh greps for this test in the TSan suite).
TEST(ReliableQueueFairness, FairDrainInterleavesTenantsUnderConcurrency) {
  TimeAuthority authority(10.0);  // the window below is 30 s of wall time
  ReliableQueueConfig config;
  config.visibility_timeout = Seconds(300.0);  // no mid-test expiry
  ReliableQueue queue(authority, config);
  constexpr int kTenants = 4;
  constexpr int kPerTenant = 250;
  std::vector<std::thread> senders;
  for (int t = 0; t < kTenants; ++t) {
    senders.emplace_back([&queue, t] {
      const std::string lane = "tenant-" + std::to_string(t);
      for (int i = 0; i < kPerTenant; ++i) {
        queue.Send(lane + ":" + std::to_string(i), lane);
      }
    });
  }
  std::atomic<int> drained{0};
  std::atomic<bool> order_violated{false};
  std::vector<std::thread> receivers;
  for (int r = 0; r < 3; ++r) {
    receivers.emplace_back([&] {
      // Per-lane high-water marks: deliveries this receiver observes from
      // one lane must be in increasing sequence order (lane FIFO).
      std::map<std::string, int> last_seen;
      while (drained.load(std::memory_order_relaxed) < kTenants * kPerTenant) {
        auto message = queue.Receive();
        if (!message.has_value()) {
          std::this_thread::yield();
          continue;
        }
        const size_t colon = message->body.find(':');
        const int seq = std::stoi(message->body.substr(colon + 1));
        auto [it, fresh] = last_seen.try_emplace(message->lane, -1);
        if (!fresh && seq <= it->second) order_violated.store(true);
        it->second = seq;
        if (queue.Delete(message->receipt).ok()) {
          drained.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& sender : senders) sender.join();
  for (auto& receiver : receivers) receiver.join();
  EXPECT_EQ(drained.load(), kTenants * kPerTenant);
  EXPECT_FALSE(order_violated.load());
  EXPECT_EQ(queue.TotalDeleted(), static_cast<uint64_t>(kTenants * kPerTenant));
  EXPECT_EQ(queue.DeadLetterDepth(), 0u);
  EXPECT_EQ(queue.LaneCount(), 0u);
}

}  // namespace
}  // namespace sdci::ripple
