#include "common/reorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace sdci {
namespace {

TEST(ReorderBuffer, ReleasesInTicketOrderDespiteOutOfOrderCompletion) {
  ReorderBuffer<int> buffer(8);
  const uint64_t t0 = buffer.Acquire();
  const uint64_t t1 = buffer.Acquire();
  const uint64_t t2 = buffer.Acquire();
  EXPECT_EQ(t0, 0u);
  EXPECT_EQ(t1, 1u);
  EXPECT_EQ(t2, 2u);
  // Complete backwards; the consumer must still see 10, 11, 12.
  buffer.Complete(t2, 12);
  buffer.Complete(t1, 11);
  buffer.Complete(t0, 10);
  buffer.MarkDone();
  int value = 0;
  for (int expected = 10; expected <= 12; ++expected) {
    ASSERT_TRUE(buffer.AwaitNext(value));
    EXPECT_EQ(value, expected);
    buffer.Release();
  }
  EXPECT_FALSE(buffer.AwaitNext(value)) << "done and drained";
}

TEST(ReorderBuffer, WindowBlocksProducerUntilRelease) {
  ReorderBuffer<int> buffer(2);
  (void)buffer.Acquire();
  (void)buffer.Acquire();
  EXPECT_EQ(buffer.InFlight(), 2u);
  std::atomic<bool> acquired{false};
  std::thread producer([&] {
    (void)buffer.Acquire();  // blocks: window is full
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load()) << "third ticket issued past the window";
  // AwaitNext alone must NOT free the slot — the value is still in flight
  // until Release() (the purge-after-publish contract).
  buffer.Complete(0, 1);
  int value = 0;
  ASSERT_TRUE(buffer.AwaitNext(value));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load()) << "slot freed before Release()";
  buffer.Release();
  producer.join();
  EXPECT_TRUE(acquired.load());
}

TEST(ReorderBuffer, ReopenContinuesTicketsAfterDone) {
  ReorderBuffer<int> buffer(4);
  (void)buffer.Acquire();
  buffer.Complete(0, 7);
  buffer.MarkDone();
  int value = 0;
  ASSERT_TRUE(buffer.AwaitNext(value));
  buffer.Release();
  EXPECT_FALSE(buffer.AwaitNext(value)) << "done and drained";
  buffer.Reopen();
  EXPECT_EQ(buffer.Acquire(), 1u) << "tickets continue, not reset";
  buffer.Complete(1, 8);
  buffer.MarkDone();
  ASSERT_TRUE(buffer.AwaitNext(value));
  EXPECT_EQ(value, 8);
}

TEST(ReorderBuffer, ConcurrentWorkersPreserveOrderUnderLoad) {
  constexpr int kItems = 2000;
  constexpr int kWorkers = 4;
  ReorderBuffer<int> buffer(32);
  // Producer + worker pool completing out of order (each worker handles the
  // tickets congruent to its index), consumer releasing in ticket order.
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      const uint64_t ticket = buffer.Acquire();
      EXPECT_EQ(ticket, static_cast<uint64_t>(i));
    }
  });
  std::vector<std::thread> workers;
  std::atomic<int> next{0};
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      for (int i = next.fetch_add(1); i < kItems; i = next.fetch_add(1)) {
        // Wait until the producer issued the ticket we're about to file.
        while (buffer.TicketsIssued() <= static_cast<uint64_t>(i)) {
          std::this_thread::yield();
        }
        buffer.Complete(static_cast<uint64_t>(i), i);
      }
    });
  }
  // Consume concurrently: the producer blocks on the window until the
  // consumer releases tickets, so draining after join would deadlock.
  int expected = 0;
  int value = 0;
  while (expected < kItems) {
    ASSERT_TRUE(buffer.AwaitNext(value));
    EXPECT_EQ(value, expected++);
    buffer.Release();
  }
  producer.join();
  for (std::thread& worker : workers) worker.join();
  buffer.MarkDone();
  EXPECT_FALSE(buffer.AwaitNext(value)) << "done and drained";
  EXPECT_EQ(expected, kItems);
}

TEST(ReorderBuffer, AccountingGauges) {
  ReorderBuffer<int> buffer(8);
  EXPECT_EQ(buffer.window(), 8u);
  EXPECT_EQ(buffer.InFlight(), 0u);
  (void)buffer.Acquire();
  (void)buffer.Acquire();
  EXPECT_EQ(buffer.InFlight(), 2u);
  EXPECT_EQ(buffer.Occupancy(), 0u);
  buffer.Complete(1, 1);  // parked behind ticket 0
  EXPECT_EQ(buffer.Occupancy(), 1u);
  buffer.Complete(0, 0);
  EXPECT_EQ(buffer.Occupancy(), 2u);
  int value = 0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(buffer.AwaitNext(value));
    buffer.Release();
  }
  EXPECT_EQ(buffer.Occupancy(), 0u);
  EXPECT_EQ(buffer.InFlight(), 0u);
  EXPECT_EQ(buffer.TicketsIssued(), 2u);
}

TEST(ReorderBuffer, WindowClampsToOne) {
  ReorderBuffer<int> buffer(0);
  EXPECT_EQ(buffer.window(), 1u);
  EXPECT_EQ(buffer.Acquire(), 0u);
  buffer.Complete(0, 1);
  int value = 0;
  ASSERT_TRUE(buffer.AwaitNext(value));
  buffer.Release();
  EXPECT_EQ(buffer.Acquire(), 1u);
}

}  // namespace
}  // namespace sdci
