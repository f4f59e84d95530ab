#include "monitor/aggregator.h"

#include "common/log.h"
#include "monitor/event_catalog.h"
#include "monitor/ingest_pipeline.h"
#include "monitor/serve_plane.h"

namespace sdci::monitor {

void AggregatorCheckpoint::AdvanceWatermark(uint64_t next_seq) {
  // Watermarks only ever advance; release pairs with NextSeq's acquire so a
  // restarted incarnation reading the watermark also sees the WAL append.
  uint64_t seen = next_seq_.load(std::memory_order_relaxed);
  while (seen < next_seq &&
         !next_seq_.compare_exchange_weak(seen, next_seq, std::memory_order_release,
                                          std::memory_order_relaxed)) {
  }
}

void AggregatorCheckpoint::Append(const EventBatch& batch, uint64_t next_seq) {
  wal_.Append(batch);
  AdvanceWatermark(next_seq);
}

void AggregatorCheckpoint::Append(const std::vector<EventBatch>& group,
                                  uint64_t next_seq) {
  wal_.AppendGroup(group);
  // The watermark moves only after the whole group is in the WAL: a crash
  // between the two lines replays every batch of the group (sequences
  // below the watermark are never lost, and a watermark past a sequence
  // implies its batch is durable — no half-committed group is observable).
  AdvanceWatermark(next_seq);
}

Aggregator::Aggregator(const lustre::TestbedProfile& profile,
                       const TimeAuthority& authority, msgq::Context& context,
                       AggregatorConfig config, AggregatorAttachments attachments)
    : profile_(profile),
      authority_(&authority),
      config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<MetricsRegistry>()) {
  // In a fleet every series carries the {"shard"} label; a single
  // aggregator keeps the historical unlabelled series.
  const MetricLabels labels = config_.ShardLabels();
  received_ = metrics_->GetCounter("sdci_aggregator_received_total", labels);
  batches_received_ =
      metrics_->GetCounter("sdci_aggregator_batches_received_total", labels);
  published_ = metrics_->GetCounter("sdci_aggregator_published_total", labels);
  batches_published_ =
      metrics_->GetCounter("sdci_aggregator_batches_published_total", labels);
  decode_errors_ =
      metrics_->GetCounter("sdci_aggregator_decode_errors_total", labels);
  delivery_latency_ =
      metrics_->GetHistogram("sdci_aggregator_delivery_latency", labels);
  wal_group_size_ = metrics_->GetHistogram("sdci_aggregator_wal_group_size", labels);
  received_base_ = received_->Get();
  batches_received_base_ = batches_received_->Get();
  published_base_ = published_->Get();
  batches_published_base_ = batches_published_->Get();
  decode_errors_base_ = decode_errors_->Get();

  // Role construction order matters: the catalog restores the store from
  // the checkpoint, the serve plane answers out of the catalog, and the
  // ingest pipeline (which takes over the attached sockets and the
  // sequence watermark) feeds both.
  catalog_ = std::make_unique<EventCatalog>(*authority_, config_,
                                            attachments.checkpoint, config_.tracer,
                                            crashed_);
  serve_ = std::make_unique<ServePlane>(
      *authority_, context, config_, *catalog_,
      ServePlane::Instruments{published_, batches_published_, delivery_latency_},
      config_.tracer, crashed_);
  ingest_ = std::make_unique<IngestPipeline>(
      profile_, *authority_, context, config_, attachments, *catalog_, *serve_,
      IngestPipeline::Instruments{received_, batches_received_, decode_errors_,
                                  wal_group_size_},
      config_.tracer, crashed_);

  // Scrape-time queue depths, read through the roles. The weak token keeps
  // a scrape from touching a dead incarnation; a restarted incarnation
  // re-registers under the same name and takes the series over.
  const std::weak_ptr<bool> alive = alive_;
  metrics_->RegisterCallback(
      "sdci_aggregator_publish_queue_depth", labels,
      [alive, this]() -> std::optional<int64_t> {
        if (alive.expired()) return std::nullopt;
        return static_cast<int64_t>(serve_->PublishQueueDepth());
      });
  metrics_->RegisterCallback(
      "sdci_aggregator_store_queue_depth", labels,
      [alive, this]() -> std::optional<int64_t> {
        if (alive.expired()) return std::nullopt;
        return static_cast<int64_t>(catalog_->QueueDepth());
      });
  // Events retained in the shard's store.
  metrics_->RegisterCallback(
      "sdci_aggregator_store_events", labels,
      [alive, this]() -> std::optional<int64_t> {
        if (alive.expired()) return std::nullopt;
        return static_cast<int64_t>(catalog_->store().Size());
      });
}

Aggregator::~Aggregator() {
  alive_.reset();  // detach queue-depth callbacks before the roles die
  Stop();
}

void Aggregator::Start() {
  if (running_.exchange(true)) return;
  catalog_->Start();
  serve_->Start();
  ingest_->Start();  // last: downstream threads are ready before events flow
}

void Aggregator::Stop() {
  if (!running_.exchange(false)) return;
  // Front-to-back: the ingest pipeline's drain empties the socket — only
  // then do the hand-off queues close, so publish/store exit after
  // emptying them. The history API
  // stops last, so it keeps answering while upstream drains.
  ingest_->StopAndDrain();
  serve_->ClosePublish();
  catalog_->CloseQueue();
  serve_->JoinPublish();
  catalog_->Join();
  serve_->StopApi();
  // Health marker for scripts/check.sh: unexplained decode errors mean a
  // wire-format regression somewhere upstream.
  const uint64_t decode_errors = decode_errors_->Get() - decode_errors_base_;
  if (decode_errors > config_.expected_decode_errors) {
    log::Warn("aggregator", "[health] decode_errors={} (expected <= {})",
              decode_errors, config_.expected_decode_errors);
  }
}

void Aggregator::Crash() {
  if (!running_.exchange(false)) return;
  crashed_.store(true, std::memory_order_release);
  // No graceful socket drain: the receive thread bails at its next
  // receive. Messages it already took off the socket still flow through
  // the checkpoint commit (see the header comment: the collector purged
  // those records at hand-off, so they must reach the WAL). It skips the
  // publish/store hand-off while crashed,
  // and whatever the queues already held is flushed unprocessed — the
  // events a real crash would lose from process memory. (They were
  // checkpointed before becoming visible, so the next incarnation's
  // history API can still serve them to gap-healing subscribers.)
  ingest_->StopAndDrain();
  serve_->ClosePublish();
  catalog_->CloseQueue();
  serve_->DiscardPublishQueue();  // process memory, dropped on the floor
  catalog_->DiscardQueue();
  serve_->JoinPublish();
  catalog_->Join();
  serve_->StopApi();
}

AggregatorStats Aggregator::Stats() const {
  // Every field reads an atomic (registry counters, the store's append
  // counter, the checkpoint's WAL totals) or a value written once at
  // construction (restored_events), so a snapshot taken while the
  // shard's threads mutate them is stale at worst, never torn.
  AggregatorStats stats;
  stats.received = received_->Get() - received_base_;
  stats.batches_received = batches_received_->Get() - batches_received_base_;
  stats.published = published_->Get() - published_base_;
  stats.batches_published = batches_published_->Get() - batches_published_base_;
  stats.stored = catalog_->store().TotalAppended() - catalog_->restored_events();
  stats.decode_errors = decode_errors_->Get() - decode_errors_base_;
  const AggregatorCheckpoint* checkpoint = catalog_->checkpoint();
  stats.checkpointed = checkpoint != nullptr ? checkpoint->TotalAppended() : 0;
  stats.wal_commits = checkpoint != nullptr ? checkpoint->Commits() : 0;
  return stats;
}

const EventStore& Aggregator::store() const noexcept { return catalog_->store(); }

uint64_t Aggregator::NextSeq() const noexcept { return ingest_->NextSeq(); }

ResourceUsage Aggregator::Usage(VirtualDuration elapsed) const {
  ResourceUsage usage;
  usage.component = config_.shard_count > 1
                        ? "aggregator." + std::to_string(config_.shard_index)
                        : "aggregator";
  const double span = ToSecondsF(elapsed);
  const double received = static_cast<double>(received_->Get() - received_base_);
  usage.cpu_percent =
      span <= 0 ? 0
                : 100.0 * received * ToSecondsF(profile_.aggregator_cpu_per_event) / span;
  const double busy_seconds = ToSecondsF(ingest_->BusyTotal());
  usage.pipeline_busy_percent = span <= 0 ? 0 : 100.0 * busy_seconds / span;
  // Footprint is dominated by the local event store (as in the paper).
  usage.peak_memory_bytes = catalog_->store().memory().PeakBytes() + (1u << 20);
  return usage;
}

}  // namespace sdci::monitor
