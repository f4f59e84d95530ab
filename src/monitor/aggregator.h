// Aggregator: one shard of the monitor's fan-in, publication and history
// service.
//
// Since PR 6 the aggregator is a *composition of three roles*, not a
// monolith (see ISSUE 6 / docs/architecture.md "Federated aggregator
// fleet"):
//
//   IngestPipeline (ingest_pipeline.h)
//     One receive thread owns the collector-facing socket. Per message,
//     in arrival order, it binds the wire batch, assigns its global_seq
//     range and HLC stamps (common/hlc.h), group-commits to the
//     checkpoint WAL, and hands batches to the other two roles.
//   EventCatalog (event_catalog.h)
//     The rotating single-lock EventStore, the checkpoint WAL write-ahead
//     commit, and the store thread. Restores itself from the checkpoint
//     at birth.
//   ServePlane (serve_plane.h)
//     The live PUB fan-out (publish thread) and the history/range
//     REQ/REP API (api thread).
//
// The composition preserves every externally visible contract of the
// monolith: global_seq is monotone in arrival order, publication order
// matches sequence order, and the write-ahead discipline (WAL before
// visibility, watermark after the group commits) keeps the crash/backfill
// semantics intact. A shard with shard_count == 1 behaves bit-for-bit
// like the historical single aggregator — same endpoints, same metric
// series, same crash story.
//
// N shards compose into an AggregatorFleet (fleet.h): collectors route by
// MDT, per-shard sequences stay dense, and the federation layer
// (federation.h) merges live subscriptions and history queries across
// shards by HLC stamp.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/resource.h"
#include "lustre/profile.h"
#include "monitor/collector.h"
#include "monitor/event.h"
#include "monitor/event_store.h"
#include "msgq/context.h"

namespace sdci::monitor {

class EventCatalog;
class IngestPipeline;
class ServePlane;

struct AggregatorConfig {
  std::string collect_endpoint = "inproc://monitor.collect";
  std::string publish_endpoint = "inproc://monitor.events";
  std::string api_endpoint = "inproc://monitor.api";
  CollectTransport transport = CollectTransport::kPubSub;
  size_t store_capacity = 200000;  // rotating catalog, in events
  size_t internal_queue = 65536;   // depth of the publish/store hand-off, in batches
  size_t ingest_hwm = 65536;       // collector->aggregator socket depth
  // Max collector messages the receive thread folds into one checkpoint
  // WAL commit. Group commit is opportunistic — a lone message commits
  // immediately; the group only grows with what is already queued on the
  // socket — so it amortizes lock traffic without waiting for a group.
  size_t wal_group_max = 16;
  // Fleet position: this shard's index and the fleet width. The index is
  // the HLC origin (cross-shard tie-breaker) and, when shard_count > 1,
  // the value of the {"shard"} label on every metric series. The default
  // (0 of 1) keeps single-aggregator deployments label-free and
  // bit-for-bit compatible.
  size_t shard_index = 0;
  size_t shard_count = 1;
  // Shared observability plumbing (see CollectorConfig). When a supervisor
  // restarts the aggregator with the same registry, the new incarnation
  // re-acquires the same instruments, so registry series are
  // fleet-cumulative while Stats() stays per-incarnation.
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<trace::Tracer> tracer;
  // Flow-conservation ledger and freshness watermarks (null = disabled).
  // The roles bind their counters as the shard.wal / shard.store /
  // shard.publish boundary accounts and advance the aggregator.* and
  // store.append stage watermarks with event birth times.
  std::shared_ptr<FlowLedger> flow;
  std::shared_ptr<WatermarkRegistry> watermarks;
  // Decode errors this deployment tolerates before Stop() emits the
  // "[health] decode_errors=" marker line scripts/check.sh greps for.
  // Tests that feed intentionally malformed payloads raise it.
  uint64_t expected_decode_errors = 0;
  // Test seam: runs on the receive thread immediately before a group of
  // `batches` batches is committed to the checkpoint WAL. Chaos tests use
  // it to line crashes up with the commit edge.
  std::function<void(size_t batches)> commit_hook;
  // Serve-plane stats channel: when set, an api request with
  // {"op": "stats"} replies with this JSON string (the fleet wires it to
  // FleetStatusJson, so SLO alerts and the flow ledger are queryable over
  // the same REQ/REP socket as history). Runs on the api thread.
  std::function<std::string()> status_provider;

  // {"shard": "<index>"} when part of a fleet; empty (the historical
  // unlabelled series) for a single aggregator.
  [[nodiscard]] MetricLabels ShardLabels() const {
    if (shard_count <= 1) return {};
    return {{"shard", std::to_string(shard_index)}};
  }
  // Ledger/watermark instance name: "aggregator" standalone, "shard<i>"
  // in a fleet (matches the FleetStatusJson per-shard breakout).
  [[nodiscard]] std::string InstanceName() const {
    if (shard_count <= 1) return "aggregator";
    return "shard" + std::to_string(shard_index);
  }
};

struct AggregatorStats {
  uint64_t received = 0;           // events ingested from collectors
  uint64_t batches_received = 0;   // collector messages successfully decoded
  uint64_t published = 0;          // events fanned out to subscribers
  uint64_t batches_published = 0;  // messages fanned out (>= 1 event each)
  uint64_t stored = 0;             // events appended to the catalog
  uint64_t decode_errors = 0;      // malformed or zero-event payloads
  uint64_t checkpointed = 0;       // events persisted to the checkpoint WAL
  uint64_t wal_commits = 0;        // checkpoint lock acquisitions (group commits)
};

// The durable half of an aggregator deployment, owned by whoever
// supervises it and handed to each incarnation. Models stable storage the
// way the ChangeLog models the MDS journal: kept in memory, but with
// write-ahead discipline — the receive thread appends every batch (and the
// advanced sequence watermark) *before* the batch becomes visible to the
// publish/store threads, so any event whose global_seq was ever assigned
// survives a crash. A restarted incarnation restores next_seq from the
// watermark (sequence numbers stay monotone, never reused) and rebuilds
// its EventStore by replaying the WAL (the history API keeps answering
// for pre-crash events).
class AggregatorCheckpoint {
 public:
  explicit AggregatorCheckpoint(size_t wal_capacity) : wal_(wal_capacity) {}

  // WAL append; `next_seq` is the watermark after this batch (one past its
  // last assigned sequence).
  void Append(const EventBatch& batch, uint64_t next_seq);

  // Group commit: the whole group becomes durable under one WAL lock
  // acquisition, and the watermark advances only after every batch in the
  // group is appended — a crash (or a restore racing the commit) can see
  // the pre-group or post-group state, never half a group.
  void Append(const std::vector<EventBatch>& group, uint64_t next_seq);

  [[nodiscard]] uint64_t NextSeq() const noexcept {
    return next_seq_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::vector<EventBatch> WalSnapshot() const { return wal_.Snapshot(); }
  [[nodiscard]] uint64_t TotalAppended() const { return wal_.TotalAppended(); }
  [[nodiscard]] size_t EventCount() const { return wal_.EventCount(); }
  [[nodiscard]] uint64_t Commits() const { return wal_.Commits(); }

 private:
  void AdvanceWatermark(uint64_t next_seq);

  EventWal wal_;
  std::atomic<uint64_t> next_seq_{1};
};

// Durable attachments that outlive one aggregator incarnation; provided
// by AggregatorSupervisor. The ingest socket is pre-bound by the owner so
// collector hand-offs accepted during an outage wait in its queue (as
// they would in an acked transport) instead of dying with the process.
struct AggregatorAttachments {
  AggregatorCheckpoint* checkpoint = nullptr;
  std::shared_ptr<msgq::SubSocket> ingest_sub;    // for CollectTransport::kPubSub
  std::shared_ptr<msgq::PullSocket> ingest_pull;  // for CollectTransport::kPushPull
};

class Aggregator {
 public:
  // `attachments` is optional: a standalone aggregator creates its own
  // ingest socket and keeps no durable checkpoint.
  Aggregator(const lustre::TestbedProfile& profile, const TimeAuthority& authority,
             msgq::Context& context, AggregatorConfig config,
             AggregatorAttachments attachments = {});
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  // Starts the receive, publish, store and API threads. Idempotent.
  void Start();

  // Drains in-flight events, then stops and joins all threads.
  void Stop();

  // Simulated process crash: threads are torn down *without* the graceful
  // drain Stop() performs. Batches sitting in the internal publish/store
  // queues are discarded — exactly what a real crash loses — leaving
  // subscribers with a sequence gap to heal from the history API.
  // Messages already popped off the (incarnation-surviving) ingest socket
  // still run through the checkpoint commit first: the collector purged
  // its records when the socket accepted the hand-off, so dropping them
  // here would lose them forever. The attached ingest socket (if any) is
  // left open for the next incarnation; a Stop() after Crash() is a no-op.
  void Crash();

  [[nodiscard]] AggregatorStats Stats() const;
  [[nodiscard]] const EventStore& store() const noexcept;
  [[nodiscard]] ResourceUsage Usage(VirtualDuration elapsed) const;

  // Sequence that will be assigned to the next ingested event.
  [[nodiscard]] uint64_t NextSeq() const noexcept;

  // Delivery latency: virtual time from a record being journaled on its
  // MDS to its event reaching subscribers. Cumulative across incarnations
  // when a shared registry is configured.
  [[nodiscard]] const LatencyHistogram& delivery_latency() const noexcept {
    return *delivery_latency_;
  }

  [[nodiscard]] const AggregatorConfig& config() const noexcept { return config_; }

 private:
  lustre::TestbedProfile profile_;
  const TimeAuthority* authority_;
  AggregatorConfig config_;

  // The three roles. Construction order matters: the catalog restores the
  // store from the checkpoint, the serve plane answers queries out of the
  // catalog, and the ingest pipeline feeds both.
  std::unique_ptr<EventCatalog> catalog_;
  std::unique_ptr<ServePlane> serve_;
  std::unique_ptr<IngestPipeline> ingest_;

  // Registry-backed instruments. The shared registry outlives incarnations
  // (counters are fleet-cumulative); the *_base_ snapshots taken at
  // construction keep Stats() per-incarnation so a supervisor summing
  // totals across restarts does not double-count.
  std::shared_ptr<MetricsRegistry> metrics_;
  std::shared_ptr<Counter> received_;
  std::shared_ptr<Counter> batches_received_;
  std::shared_ptr<Counter> published_;
  std::shared_ptr<Counter> batches_published_;
  std::shared_ptr<Counter> decode_errors_;
  std::shared_ptr<LatencyHistogram> delivery_latency_;
  // Batches per checkpoint group commit, encoded as a count (1 "ns" == 1
  // batch): the registry's histogram type is the latency histogram, and
  // the power-of-two buckets bin small counts exactly.
  std::shared_ptr<LatencyHistogram> wal_group_size_;
  uint64_t received_base_ = 0;
  uint64_t batches_received_base_ = 0;
  uint64_t published_base_ = 0;
  uint64_t batches_published_base_ = 0;
  uint64_t decode_errors_base_ = 0;
  // Invalidated first in the destructor so registry queue-depth callbacks
  // holding a weak handle stop reading this incarnation's roles.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::atomic<bool> running_{false};
  std::atomic<bool> crashed_{false};
};

// The issue-6 vocabulary: a fleet member is a shard, and a shard is the
// (IngestPipeline, EventCatalog, ServePlane) composition above.
using AggregatorShard = Aggregator;

}  // namespace sdci::monitor
