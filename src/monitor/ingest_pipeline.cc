#include "monitor/ingest_pipeline.h"

#include <optional>
#include <string_view>

#include "monitor/event_catalog.h"
#include "monitor/serve_plane.h"
#include "monitor/wire_v4.h"

namespace sdci::monitor {

namespace {
// Real-time poll quantum for the receive loop; bounds shutdown latency.
constexpr std::chrono::milliseconds kPollQuantum(5);
}  // namespace

IngestPipeline::IngestPipeline(const lustre::TestbedProfile& profile,
                               const TimeAuthority& authority,
                               msgq::Context& context,
                               const AggregatorConfig& config,
                               AggregatorAttachments& attachments,
                               EventCatalog& catalog, ServePlane& serve,
                               Instruments instruments,
                               std::shared_ptr<trace::Tracer> tracer,
                               const std::atomic<bool>& crashed)
    : profile_(profile),
      authority_(&authority),
      config_(&config),
      catalog_(&catalog),
      serve_(&serve),
      budget_(authority),
      hlc_(static_cast<uint32_t>(config.shard_index)),
      instruments_(std::move(instruments)),
      tracer_(std::move(tracer)),
      crashed_(&crashed) {
  if (config.transport == CollectTransport::kPubSub) {
    if (attachments.ingest_sub != nullptr) {
      sub_ = std::move(attachments.ingest_sub);
    } else {
      sub_ = context.CreateSub(config.collect_endpoint, config.ingest_hwm,
                               msgq::HwmPolicy::kBlock);
      sub_->Subscribe("");  // all collectors
    }
  } else {
    pull_ = attachments.ingest_pull != nullptr
                ? std::move(attachments.ingest_pull)
                : context.CreatePull(config.collect_endpoint, config.ingest_hwm);
  }
  if (attachments.checkpoint != nullptr) {
    // Restore: sequences resume past everything ever assigned (the catalog
    // replays the WAL into the store from the same checkpoint).
    next_seq_.store(attachments.checkpoint->NextSeq(), std::memory_order_relaxed);
  }
  const std::string instance = config.InstanceName();
  if (config.watermarks != nullptr) {
    wm_decode_ = config.watermarks->Handle(trace::kAggregatorDecode, instance);
    wm_ingest_ = config.watermarks->Handle(trace::kAggregatorIngest, instance);
    if (attachments.checkpoint != nullptr) {
      wm_commit_ = config.watermarks->Handle(trace::kAggregatorCommit, instance);
    }
  }
  if (config.flow != nullptr) {
    FlowLedger& flow = *config.flow;
    // The sequenced event count is the "in" side of every downstream
    // boundary: each sequenced event must end up committed (WAL), stored
    // and published — or explicitly discarded by a crash.
    if (attachments.checkpoint != nullptr) {
      flow.Bind("shard.wal", instance, FlowKind::kIn, "sequenced",
                instruments_.received);
      committed_ = flow.Account("shard.wal", instance, FlowKind::kOut,
                                "committed");
    }
    flow.Bind("shard.store", instance, FlowKind::kIn, "sequenced",
              instruments_.received);
    discarded_store_ =
        flow.Account("shard.store", instance, FlowKind::kOut, "discarded");
    flow.Bind("shard.publish", instance, FlowKind::kIn, "sequenced",
              instruments_.received);
    discarded_publish_ =
        flow.Account("shard.publish", instance, FlowKind::kOut, "discarded");
  }
}

void IngestPipeline::Start() {
  thread_ = std::jthread([this](const std::stop_token& stop) { ReceiveLoop(stop); });
}

void IngestPipeline::StopAndDrain() {
  thread_.request_stop();
  if (thread_.joinable()) thread_.join();
}

void IngestPipeline::ReceiveLoop(const std::stop_token& stop) {
  const auto receive = [&]() -> Result<msgq::Message> {
    if (sub_ != nullptr) return sub_->ReceiveFor(kPollQuantum);
    return pull_->PullFor(kPollQuantum);
  };
  // Non-blocking: only what is already queued on the socket.
  const auto take_queued = [&]() -> std::optional<msgq::Message> {
    if (sub_ != nullptr) return sub_->TryReceive();
    auto message = pull_->PullFor(std::chrono::nanoseconds::zero());
    if (!message.ok()) return std::nullopt;
    return std::move(message.value());
  };
  const size_t group_max = config_->wal_group_max == 0 ? 1 : config_->wal_group_max;
  std::vector<BoundMessage> group;
  // After stop is requested, keep draining until the socket runs dry so
  // collector flushes are not lost.
  int idle_rounds_after_stop = 0;
  while (true) {
    // The crash point sits *before* receive: once a message is popped off
    // the (incarnation-surviving) ingest socket it runs through the
    // checkpoint commit, because the collector purged its records when
    // the socket accepted the hand-off.
    if (crashed_->load(std::memory_order_acquire)) break;
    auto message = receive();
    if (!message.ok()) {
      if (message.status().code() == StatusCode::kClosed) break;
      if (stop.stop_requested() && ++idle_rounds_after_stop >= 2) break;
      continue;
    }
    idle_rounds_after_stop = 0;
    group.clear();
    group.emplace_back();
    if (!Decode(*message, group.back())) group.pop_back();
    // Opportunistic group commit: fold in whatever is already queued (up
    // to wal_group_max messages). A lone message goes through alone — the
    // group never waits to fill. A blocked commit or hand-off leaves the
    // socket to fill, which pushes back on the collectors.
    for (size_t taken = 1;
         taken < group_max && !crashed_->load(std::memory_order_acquire); ++taken) {
      auto queued = take_queued();
      if (!queued.has_value()) break;
      group.emplace_back();
      if (!Decode(*queued, group.back())) group.pop_back();
    }
    if (!group.empty()) SequenceAndCommit(group);
  }
}

bool IngestPipeline::Decode(const msgq::Message& message, BoundMessage& out) {
  const VirtualTime decode_start = tracer_ != nullptr ? authority_->Now() : VirtualTime{};
  // One byte copy into a private mutable buffer (the socket payload is
  // shared with other subscribers, so it cannot be patched in place), then
  // validation is a header + offset-table scan — no FsEvent is
  // materialized anywhere in this pipeline. Zero-event payloads are
  // hostile (the wire contract is >= 1 event) and counted with the
  // malformed ones.
  const std::string_view bytes = message.bytes();
  out.payload.assign(bytes.data(), bytes.size());
  auto view = wire::EventBatchView::Bind(out.payload);
  if (!view.ok() || view->empty()) {
    instruments_.decode_errors->Add();
    return false;
  }
  const size_t count = view->size();
  out.count = static_cast<uint32_t>(count);
  out.last_time = view->time(count - 1);
  if (wm_decode_ != nullptr) wm_decode_->Advance(out.last_time);
  budget_.Charge(profile_.aggregator_ingest_latency * static_cast<int64_t>(count));
  budget_.Flush();
  if (tracer_ != nullptr) {
    // Each traced event gets a decode span hung off the collector's
    // publish span; sequencing re-parents the event onto its ingest span
    // next, keeping the chain publish -> decode -> ingest.
    const VirtualTime decode_end = authority_->Now();
    wire::MutableBatchV4 mut(out.payload);
    for (size_t i = 0; i < count; ++i) {
      const uint64_t trace_id = view->trace_id(i);
      if (trace_id == 0) continue;
      const uint64_t span_id = tracer_->NewSpanId();
      tracer_->RecordSpan({trace_id, span_id, view->parent_span(i),
                           std::string(trace::kAggregatorDecode), "aggregator",
                           decode_start, decode_end - decode_start});
      mut.SetParentSpan(i, span_id);
    }
  }
  return true;
}

void IngestPipeline::SequenceAndCommit(std::vector<BoundMessage>& group) {
  // Traced events re-parent onto this stage's ingest span before their
  // batch freezes, so the published wire bytes (and the JSON the history
  // API serves) carry the aggregator-side span to hang consumers off.
  struct PendingSpan {
    uint64_t trace_id, span_id;
  };
  std::vector<PendingSpan> pending;  // whole group, for wal/commit spans
  std::vector<EventBatch> batches;
  std::vector<EventBatch> publish_batches;  // type-homogeneous sub-batches
  batches.reserve(group.size());
  uint64_t watermark = 0;
  uint64_t group_events = 0;       // ledger: events sequenced this group
  VirtualTime group_newest{};      // newest birth time this group
  for (BoundMessage& item : group) {
    const uint64_t count = item.count;
    const VirtualTime now = authority_->Now();
    // One sequence range per batch, assigned in arrival order by the one
    // receive thread: one atomic op instead of one per event, and
    // global_seq stays monotone in publication order.
    const uint64_t base = next_seq_.fetch_add(count, std::memory_order_relaxed);
    watermark = base + count;
    // Stamp-in-place: global_seq and the HLC stamp land at fixed offsets in
    // the flat buffer — no decode, no re-encode. The buffer then freezes as
    // the batch's (and the publish message's) payload; the only per-field
    // materialization left is at the store boundary.
    {
      wire::MutableBatchV4 mut(item.payload);
      for (uint64_t i = 0; i < count; ++i) {
        mut.SetGlobalSeq(i, base + i);
        // HLC stamps ride the same single-threaded assignment, so within a
        // shard HLC order equals sequence order; across shards the stamps
        // are the total order the federation layer merges by.
        mut.SetHlc(i, hlc_.Tick(now));
      }
      if (tracer_ != nullptr) {
        const VirtualTime ingest_end = authority_->Now();
        auto view = wire::EventBatchView::Bind(item.payload);
        if (view.ok()) {
          for (uint64_t i = 0; i < count; ++i) {
            const uint64_t trace_id = view->trace_id(i);
            if (trace_id == 0) continue;
            const uint64_t span_id = tracer_->NewSpanId();
            tracer_->RecordSpan({trace_id, span_id, view->parent_span(i),
                                 std::string(trace::kAggregatorIngest),
                                 "aggregator", now, ingest_end - now});
            mut.SetParentSpan(i, span_id);
            pending.push_back({trace_id, span_id});
          }
        }
      }
    }
    auto bound = EventBatch::FromPayload(std::move(item.payload));
    if (!bound.ok()) {
      // Unreachable by construction (Decode validated these bytes and only
      // fixed-offset fields changed), but never let a malformed buffer
      // downstream.
      instruments_.decode_errors->Add();
      continue;
    }
    EventBatch batch = std::move(bound.value());
    instruments_.received->Add(count);
    instruments_.batches_received->Add();
    group_events += count;
    group_newest = std::max(group_newest, item.last_time);
    if (wm_ingest_ != nullptr) wm_ingest_->Advance(item.last_time);
    // Split before the WAL append so the publish queue receives batches
    // that share this batch's events; the homogeneous case is two
    // refcount bumps, zero event copies.
    auto subs = batch.SplitByType();
    publish_batches.insert(publish_batches.end(),
                           std::make_move_iterator(subs.begin()),
                           std::make_move_iterator(subs.end()));
    batches.push_back(std::move(batch));
  }
  if (batches.empty()) return;
  // Write-ahead: the whole group (and the advanced watermark) reach the
  // checkpoint before any batch becomes visible downstream, so every
  // assigned global_seq survives a crash even if the publish/store
  // queues die with this incarnation.
  if (catalog_->has_checkpoint()) {
    if (config_->commit_hook) config_->commit_hook(batches.size());
    const VirtualTime commit_start =
        tracer_ != nullptr && !pending.empty() ? authority_->Now() : VirtualTime{};
    catalog_->CommitGroup(batches, watermark);
    instruments_.wal_group_size->Record(
        VirtualDuration(static_cast<int64_t>(batches.size())));
    if (committed_ != nullptr) committed_->Add(group_events);
    if (wm_commit_ != nullptr) wm_commit_->Advance(group_newest);
    if (tracer_ != nullptr && !pending.empty()) {
      const VirtualTime commit_end = authority_->Now();
      for (const PendingSpan& span : pending) {
        tracer_->Record(span.trace_id, span.span_id, trace::kAggregatorCommit,
                        "aggregator", commit_start, commit_end);
        tracer_->Record(span.trace_id, span.span_id, trace::kWalAppend,
                        "aggregator", commit_start, commit_end);
      }
    }
  }
  // On crash the hand-off is skipped: the group is durable in the WAL (the
  // next incarnation's history API serves it) but this process's queues
  // are dead memory. The ledger counts the skipped events as discarded on
  // both downstream boundaries — the flows a real crash loses from
  // process memory (the WAL restore re-enters the store as "restored").
  if (crashed_->load(std::memory_order_acquire)) {
    if (discarded_store_ != nullptr) discarded_store_->Add(group_events);
    if (discarded_publish_ != nullptr) discarded_publish_->Add(group_events);
    return;
  }
  // Hand off to both downstream threads, in arrival order. Blocking pushes
  // propagate backpressure to the collectors ("no loss of events once
  // they have been processed"). The publish side gets type-homogeneous
  // sub-batches so per-type topics keep working. One bulk push per queue
  // for the whole group: one lock acquisition and one consumer wake,
  // instead of one of each per batch.
  if (!serve_->Enqueue(std::move(publish_batches)).ok()) {
    // Hand-off queues only close mid-sequence on a crash: both boundaries
    // lose the group.
    if (discarded_store_ != nullptr) discarded_store_->Add(group_events);
    if (discarded_publish_ != nullptr) discarded_publish_->Add(group_events);
    return;
  }
  if (!catalog_->Enqueue(std::move(batches)).ok()) {
    if (discarded_store_ != nullptr) discarded_store_->Add(group_events);
  }
}

}  // namespace sdci::monitor
