// Federation layer over an AggregatorFleet: one logical event service on
// top of N per-shard endpoints.
//
// Shards are independent — disjoint MDTs, dense per-shard global_seq,
// separate publish/history endpoints — so cross-shard ordering needs a
// clock the shards share. That clock is the HLC stamp (common/hlc.h)
// every shard's ingest thread assigns: within a shard HLC order equals
// sequence order (one thread assigns both), and across
// shards the origin field (== shard index) breaks wall/logical ties, so
// HLC comparison is a total order over the whole fleet. Both federated
// views here are exact k-way merges by that stamp:
//
//   FleetHistoryClient — fans a range query out to every shard's history
//     API and merges the (per-shard HLC-sorted) pages.
//   FleetSubscriber — one gap-healing RecoveringSubscriber per shard
//     (per-shard crash recovery and backfill work unchanged), with a
//     round-robin live feed and an HLC-merged drain.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/tracing.h"
#include "monitor/consumer.h"
#include "monitor/event.h"
#include "monitor/shard_health.h"
#include "msgq/context.h"

namespace sdci::monitor {

// Per-shard outcome of one federated fetch, in shard index order.
enum class ShardFetchVerdict {
  kOk,                 // shard answered within its slice of the budget
  kSkippedOpenCircuit, // breaker open: no request was sent
  kTimedOut,           // budget exhausted before (or during) this shard
  kFailed,             // shard answered with an error
};

[[nodiscard]] std::string_view ShardFetchVerdictName(ShardFetchVerdict v) noexcept;

// Exact k-way merge of per-shard event runs by HLC stamp. Each input run
// must be HLC-sorted (true of any per-shard sequence-ordered run); the
// output interleaves them into the fleet-wide total order. Stable for
// equal stamps (only possible within one run — origins differ across
// shards), so it is also a plain stable merge for pre-fleet zero stamps.
[[nodiscard]] std::vector<FsEvent> MergeByHlc(std::vector<std::vector<FsEvent>> runs);

// Federated history/range query client.
class FleetHistoryClient {
 public:
  // One HistoryClient per shard api endpoint, in shard index order.
  // `tracer`/`authority` are optional: when both are set, each traced
  // event crossing the merge gets a trace::kFleetMerge span. `health` is
  // the fleet-shared circuit breaker state; a private tracker is created
  // when null (breakers still work, just unshared with the subscriber).
  FleetHistoryClient(msgq::Context& context,
                     const std::vector<std::string>& api_endpoints,
                     std::shared_ptr<trace::Tracer> tracer = nullptr,
                     const TimeAuthority* authority = nullptr,
                     std::shared_ptr<ShardHealthTracker> health = nullptr);

  struct FederatedPage {
    // HLC-ordered merge of every answering shard's events in the range.
    std::vector<FsEvent> events;
    // The per-shard pages the merge was built from, in shard index order
    // (per-shard first_available/last_seq stay meaningful; fleet-wide
    // sequence numbers do not exist). Non-answering shards hold an empty
    // placeholder page — check shard_verdicts before trusting one.
    std::vector<HistoryClient::Page> shard_pages;
    // Per-shard outcome, in shard index order.
    std::vector<ShardFetchVerdict> shard_verdicts;
    // Indices of shards whose events are NOT in the merge, ascending.
    std::vector<size_t> missing_shards;
    // True iff missing_shards is non-empty: the merge is a correctly
    // labeled subset of the fleet, not the whole truth.
    bool partial = false;
  };

  // Fans the time-range query out to every shard and merges, splitting the
  // deadline budget across the shards still waiting. Degraded-mode
  // semantics: a shard that is unreachable (breaker open — skipped without
  // a request), times out, or errors is EXCLUDED from the merge and
  // reported in shard_verdicts/missing_shards with partial=true, instead
  // of failing the fetch outright — a silent partial merge would read as
  // "no events on that shard", so the subset is always labeled. Only when
  // NO shard answers does the fetch return an error. Request outcomes feed
  // the breaker: errors/timeouts trip it, successes close it.
  [[nodiscard]] Result<FederatedPage> FetchTimeRange(
      VirtualTime from, VirtualTime to, size_t max_per_shard,
      std::chrono::nanoseconds timeout = std::chrono::seconds(5));

  // Single-shard passthrough (per-shard sequences are dense, so seq-keyed
  // paging only makes sense against one shard).
  [[nodiscard]] Result<HistoryClient::Page> FetchShard(
      size_t shard, uint64_t from_seq, size_t max,
      std::chrono::nanoseconds timeout = std::chrono::seconds(5));

  [[nodiscard]] size_t shards() const noexcept { return clients_.size(); }

  [[nodiscard]] const std::shared_ptr<ShardHealthTracker>& health() const noexcept {
    return health_;
  }

 private:
  std::vector<std::unique_ptr<HistoryClient>> clients_;
  std::shared_ptr<trace::Tracer> tracer_;
  const TimeAuthority* authority_;
  std::shared_ptr<ShardHealthTracker> health_;
};

// Federated live subscription: one RecoveringSubscriber per shard.
class FleetSubscriber {
 public:
  // `config` is the per-shard template; when it names the subscriber for
  // metrics, shard i registers as "<name>.<i>" (unsuffixed for one shard).
  // `health` is the fleet-shared breaker state (optional): the rotation
  // deprioritizes shards whose breaker reads open. The subscriber only
  // READS breaker state — a poll slice with no events is normal, not
  // failure evidence, so it never records outcomes itself; healing after
  // an outage rides the per-shard RecoveringSubscriber backfill.
  FleetSubscriber(msgq::Context& context,
                  const std::vector<std::string>& publish_endpoints,
                  const std::vector<std::string>& api_endpoints,
                  RecoveringSubscriberConfig config = {},
                  std::shared_ptr<ShardHealthTracker> health = nullptr);

  // Next live batch from any shard (backfill-before-live per shard, as
  // RecoveringSubscriber guarantees). Shards are polled round-robin in
  // short slices so one idle shard cannot starve the rest; batches from
  // one shard arrive in that shard's sequence order. Open-circuit shards
  // are skipped for the round (unless every shard is open, in which case
  // polling proceeds — the poll doubles as a cheap liveness probe). The
  // per-shard slice is clamped to the remaining deadline budget, so a
  // shard late in the rotation never sees a negative or overlong poll.
  // Returns kTimeout when nothing arrived within `timeout`, kClosed once
  // every shard is closed.
  [[nodiscard]] Result<EventBatch> NextBatchFor(std::chrono::nanoseconds timeout);

  // Drains every shard until all have been quiet for `quiet` (bounded by
  // `timeout`), then returns everything as ONE batch in fleet-wide HLC
  // order. This is the federated read tests and tools use to assert
  // cross-shard ordering; a latency-sensitive consumer uses NextBatchFor.
  [[nodiscard]] Result<EventBatch> DrainMergedFor(
      std::chrono::nanoseconds timeout,
      std::chrono::nanoseconds quiet = std::chrono::milliseconds(50));

  void Close();

  [[nodiscard]] size_t shards() const noexcept { return shards_.size(); }
  [[nodiscard]] RecoveringSubscriber& shard(size_t index) { return *shards_.at(index); }

  // Fleet totals, summed over shards.
  [[nodiscard]] uint64_t received() const;
  [[nodiscard]] uint64_t gaps_detected() const;
  [[nodiscard]] uint64_t events_backfilled() const;
  [[nodiscard]] uint64_t events_unrecoverable() const;

  [[nodiscard]] const std::shared_ptr<ShardHealthTracker>& health() const noexcept {
    return health_;
  }

 private:
  std::vector<std::unique_ptr<RecoveringSubscriber>> shards_;
  std::shared_ptr<ShardHealthTracker> health_;  // may be null: no breakers
  size_t next_shard_ = 0;  // round-robin cursor

  // fleet.merge ledger row (in = events popped from per-shard subscribers,
  // out = events delivered to the caller — the merge conserves or the row
  // shows it) and the fleet.merge stage watermark. Null when the config
  // carried no ledger / watermark registry.
  std::shared_ptr<Counter> merged_in_;
  std::shared_ptr<Counter> merged_out_;
  std::shared_ptr<StageWatermark> wm_merge_;
};

}  // namespace sdci::monitor
