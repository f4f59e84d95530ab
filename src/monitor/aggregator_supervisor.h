// AggregatorSupervisor: keeps the Aggregator running across crashes.
//
// The Aggregator is the monitor's single fan-in point, so its death is the
// pipeline's worst failure mode. The supervisor mirrors CollectorSupervisor
// (health checks on an interval, crash_prob fault injection, InjectCrash for
// deterministic tests) and owns the two pieces that must outlive any one
// incarnation:
//   - the AggregatorCheckpoint (sequence watermark + event WAL), so a
//     restarted aggregator never reuses a global_seq and its history API
//     still answers for pre-crash events;
//   - the ingest socket, pre-bound once, so collector hand-offs accepted
//     during the outage wait in its queue (as in an acked transport)
//     instead of dying with the process.
// Together with gap-healing subscribers (RecoveringSubscriber) this makes
// an aggregator crash lose zero events end-to-end.
#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "monitor/aggregator.h"

namespace sdci::monitor {

struct AggregatorSupervisorConfig {
  VirtualDuration check_interval = Millis(100);
  double crash_prob_per_check = 0.0;  // injected per health check
  uint64_t fault_seed = 1;
};

class AggregatorSupervisor {
 public:
  AggregatorSupervisor(const lustre::TestbedProfile& profile,
                       const TimeAuthority& authority, msgq::Context& context,
                       AggregatorConfig aggregator_config,
                       AggregatorSupervisorConfig config = {});
  ~AggregatorSupervisor();

  AggregatorSupervisor(const AggregatorSupervisor&) = delete;
  AggregatorSupervisor& operator=(const AggregatorSupervisor&) = delete;

  void Start();
  void Stop();

  // Kills the aggregator immediately (simulated process crash: internal
  // queues are lost, the checkpoint and ingest socket survive). It will be
  // restarted on the next health check.
  void InjectCrash();

  // Hard outage, not a crash: the shard host drops off the network. The
  // process dies AND the ingest socket stops accepting, so collector
  // reports are refused (the sender keeps them — spool territory) instead
  // of queueing, and SuperviseLoop does NOT restart until EndOutage. The
  // checkpoint and any already-queued hand-offs survive untouched.
  void BeginOutage();
  void EndOutage();  // restart happens at the next health check
  // Lock-free: shard breakers call this as their down-signal from inside
  // metrics scrapes, which hold the registry lock, while Start and restarts
  // register metrics under mutex_ — taking mutex_ here would invert that
  // lock order.
  [[nodiscard]] bool InOutage() const {
    return outage_.load(std::memory_order_acquire);
  }

  [[nodiscard]] uint64_t crashes() const noexcept { return crashes_->Get(); }
  [[nodiscard]] uint64_t restarts() const noexcept { return restarts_->Get(); }

  // Whether an aggregator incarnation is currently alive (false in the
  // window between a crash and the next health check's restart).
  [[nodiscard]] bool IsUp() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return aggregator_ != nullptr;
  }

  // Cumulative stats across every incarnation since Start (per-incarnation
  // counters reset on restart; these are what the pipeline observed).
  [[nodiscard]] AggregatorStats Stats() const;

  // Sequence the next ingested event will get, from the durable watermark.
  [[nodiscard]] uint64_t NextSeq() const noexcept { return checkpoint_.NextSeq(); }

  [[nodiscard]] const AggregatorCheckpoint& checkpoint() const noexcept {
    return checkpoint_;
  }

 private:
  void SuperviseLoop(const std::stop_token& stop);
  std::unique_ptr<Aggregator> MakeAggregator();
  void CrashLocked();

  lustre::TestbedProfile profile_;
  const TimeAuthority* authority_;
  msgq::Context* context_;
  AggregatorConfig aggregator_config_;
  AggregatorSupervisorConfig config_;

  AggregatorCheckpoint checkpoint_;
  std::shared_ptr<msgq::SubSocket> ingest_sub_;
  std::shared_ptr<msgq::PullSocket> ingest_pull_;

  mutable std::mutex mutex_;
  std::unique_ptr<Aggregator> aggregator_;  // null while "down"
  // Declared outage: no restarts. Written under mutex_, read lock-free.
  std::atomic<bool> outage_{false};
  AggregatorStats totals_;                  // from dead incarnations
  Rng rng_;
  // Registered into aggregator_config_.metrics (or a private registry).
  std::shared_ptr<MetricsRegistry> metrics_;
  std::shared_ptr<Counter> crashes_;
  std::shared_ptr<Counter> restarts_;
  // Invalidated first in the destructor so checkpoint scrape callbacks in
  // a longer-lived registry stop touching this object.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::jthread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace sdci::monitor
