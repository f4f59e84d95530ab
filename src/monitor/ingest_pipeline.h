// IngestPipeline: the ingest role of an aggregator shard.
//
//   socket ──> receive thread: bind ─> charge ─> stamp ─> WAL ─> hand-off
//
// One receive thread handles each collector message end to end, in
// arrival order. It copies the payload into a private buffer and binds
// it (wire v4 validation is an O(n) header and offset-table scan), pays
// the modeled per-event ingest latency on its DelayBudget, stamps each
// event's global_seq and HLC (common/hlc.h, origin == shard index) in
// place, group-commits to the checkpoint WAL (EventCatalog::CommitGroup)
// and hands the batches to the serve plane and the catalog's store
// thread. Group commit is opportunistic: after one message, the thread
// takes whatever is already queued on the socket, up to wal_group_max,
// and commits it as one group; a lone message commits alone. Because one
// thread assigns sequences and publishes, global_seq is monotone in
// arrival order and publication order matches sequence order; the
// write-ahead discipline (WAL before visibility, watermark after the
// group commits) keeps the crash/backfill semantics intact.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/hlc.h"
#include "common/metrics.h"
#include "common/tracing.h"
#include "lustre/profile.h"
#include "monitor/aggregator.h"
#include "monitor/event.h"
#include "msgq/context.h"

namespace sdci::monitor {

class EventCatalog;
class ServePlane;

class IngestPipeline {
 public:
  // Shard-owned instruments this role records into.
  struct Instruments {
    std::shared_ptr<Counter> received;
    std::shared_ptr<Counter> batches_received;
    std::shared_ptr<Counter> decode_errors;
    std::shared_ptr<LatencyHistogram> wal_group_size;
  };

  // Takes over (or creates) the collector-facing socket. `catalog` and
  // `serve` are the downstream roles; `crashed` is the shard's crash flag.
  IngestPipeline(const lustre::TestbedProfile& profile,
                 const TimeAuthority& authority, msgq::Context& context,
                 const AggregatorConfig& config, AggregatorAttachments& attachments,
                 EventCatalog& catalog, ServePlane& serve, Instruments instruments,
                 std::shared_ptr<trace::Tracer> tracer,
                 const std::atomic<bool>& crashed);

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  // Spawns the receive thread.
  void Start();
  // Stops ingestion: the receive thread keeps draining until the socket
  // runs dry, then exits. During a crash it bails at its next receive
  // instead, but every message it already took off the socket still runs
  // through the checkpoint commit (see Aggregator::Crash).
  void StopAndDrain();

  // Sequence that will be assigned to the next ingested event.
  [[nodiscard]] uint64_t NextSeq() const noexcept {
    return next_seq_.load(std::memory_order_relaxed);
  }
  // Modeled ingest time charged so far (Usage accounting).
  [[nodiscard]] VirtualDuration BusyTotal() const noexcept {
    return budget_.TotalCharged();
  }

 private:
  // One bound collector message. The validated wire bytes travel in
  // `payload`, mutable so the sequencing step can stamp global_seq / HLC
  // straight into the fixed-offset fields; no FsEvent is materialized.
  struct BoundMessage {
    std::string payload;
    uint32_t count = 0;        // events in `payload`
    VirtualTime last_time{};   // newest event birth time in the message
  };

  void ReceiveLoop(const std::stop_token& stop);
  // Copies, binds and charges one message and records its decode spans.
  // Malformed and zero-event payloads count as decode errors and yield
  // false.
  bool Decode(const msgq::Message& message, BoundMessage& out);
  // Assigns sequence ranges and HLC stamps, records ingest spans,
  // group-commits to the checkpoint and hands the batches downstream.
  // `group` is consecutive messages in arrival order.
  void SequenceAndCommit(std::vector<BoundMessage>& group);

  lustre::TestbedProfile profile_;
  const TimeAuthority* authority_;
  const AggregatorConfig* config_;
  EventCatalog* catalog_;
  ServePlane* serve_;

  std::shared_ptr<msgq::SubSocket> sub_;
  std::shared_ptr<msgq::PullSocket> pull_;

  // Receive-thread-only state (TotalCharged is safe to read anywhere).
  // The budget prices aggregator_ingest_latency per event.
  DelayBudget budget_;
  HlcClock hlc_;
  std::atomic<uint64_t> next_seq_{1};

  Instruments instruments_;
  std::shared_ptr<trace::Tracer> tracer_;
  const std::atomic<bool>* crashed_;

  // Flow-ledger accounts and stage watermarks (null when the shard runs
  // without a ledger / watermark registry).
  std::shared_ptr<Counter> committed_;          // shard.wal out
  std::shared_ptr<Counter> discarded_store_;    // shard.store out (crash)
  std::shared_ptr<Counter> discarded_publish_;  // shard.publish out (crash)
  std::shared_ptr<StageWatermark> wm_decode_;
  std::shared_ptr<StageWatermark> wm_ingest_;
  std::shared_ptr<StageWatermark> wm_commit_;

  std::jthread thread_;
};

}  // namespace sdci::monitor
