// Agent: Ripple's deployable unit.
//
// "The agent is responsible for detecting data events, filtering them
// against active rules, and reporting events to the cloud service. The
// agent also provides an execution component, capable of performing local
// actions on a user's behalf."
//
// An Agent binds a name, a storage system, an event source (the Lustre
// monitor's subscriber or the inotify-style watcher), a rule filter fed by
// the cloud's control plane, and an executor table. Two threads: one
// consumes events (filter + report with retry), one executes routed
// actions. Redelivered actions (the cloud is at-least-once) are de-duped
// by (rule, event) identity unless deduplication is disabled.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/lru.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "common/status.h"
#include "common/tracing.h"
#include "lustre/filesystem.h"
#include "monitor/consumer.h"
#include "monitor/federation.h"
#include "monitor/inotify_sim.h"
#include "ripple/actions.h"
#include "ripple/cloud.h"
#include "ripple/rule.h"
#include "ripple/rule_index.h"

namespace sdci::ripple {

struct AgentConfig {
  std::string name;
  size_t report_retries = 5;
  VirtualDuration report_backoff = Millis(20);  // doubled per retry
  size_t action_queue_depth = 4096;
  bool dedupe_actions = true;
  size_t dedupe_window = 8192;  // remembered (rule,event) keys
  // Failed actions are retried with exponential backoff ("Ripple
  // emphasizes reliability ... actions are successfully completed").
  // Permanent errors (invalid params, missing executor) are not retried.
  size_t action_retries = 3;
  VirtualDuration action_retry_backoff = Millis(50);
  // Observability: counters register into `metrics` (private registry when
  // null) labelled {"agent": name}; a tracer records agent.rule_eval /
  // action.execute spans for events that arrive with a sampled trace id.
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<trace::Tracer> tracer;
  // Flow-conservation ledger and freshness watermarks (null = disabled).
  // The agent books the agent.rule_eval / agent.report / agent.actions
  // boundary rows and advances the agent.rule_eval and action.execute
  // stage watermarks with event birth times.
  std::shared_ptr<FlowLedger> flow;
  std::shared_ptr<WatermarkRegistry> watermarks;
};

struct AgentStats {
  uint64_t events_seen = 0;
  uint64_t events_matched = 0;
  uint64_t events_reported = 0;
  uint64_t report_retries = 0;
  uint64_t report_failures = 0;  // gave up after retries
  uint64_t actions_received = 0;
  uint64_t actions_executed = 0;
  uint64_t actions_failed = 0;
  uint64_t actions_retried = 0;
  uint64_t actions_deduped = 0;
};

class Agent {
 public:
  // `storage` is the file system this agent is deployed on. The agent
  // registers itself with `cloud` under config.name.
  Agent(AgentConfig config, lustre::FileSystem& storage, CloudService& cloud,
        EndpointRegistry& endpoints, const TimeAuthority& authority);
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  // Attaches the live event source. The agent owns the subscriber and
  // consumes it on its event thread once started.
  void AttachSource(std::unique_ptr<monitor::EventSubscriber> source);

  // Self-healing alternative: a gap-detecting subscriber that backfills
  // aggregator-crash holes from the history API before resuming the live
  // stream. The agent's (rule, mdt:record) dedupe absorbs the at-least-once
  // edges of recovery, so actions still fire exactly once per event.
  void AttachSource(std::unique_ptr<monitor::RecoveringSubscriber> source);

  // Fleet alternative: one gap-healing subscriber per aggregator shard
  // behind a single round-robin feed (federation.h). Rules are evaluated
  // per event, so cross-shard arrival order does not change what fires;
  // the dedupe keyed by (rule, mdt:record) stays shard-agnostic.
  void AttachSource(std::unique_ptr<monitor::FleetSubscriber> source);

  // Personal-device alternative (the paper's Watchdog/inotify deployment):
  // the agent polls a local per-directory watcher instead of subscribing
  // to a site monitor. `poll_interval` is virtual time. Watches must be
  // installed on the monitor before Start().
  void AttachLocalWatcher(std::unique_ptr<monitor::InotifyMonitor> watcher,
                          VirtualDuration poll_interval = Millis(50));

  // Installs/replaces the executor for an action type. Defaults for every
  // type are installed at construction (emails go to `outbox()`).
  void RegisterExecutor(ActionType type, std::unique_ptr<ActionExecutor> executor);

  void Start();
  void Stop();

  // --- Control plane (called by CloudService) ---
  void InstallRuleFilter(const Rule& rule);
  void RemoveRuleFilter(const std::string& rule_id);

  // --- Action routing (called by CloudService workers) ---
  Status EnqueueAction(ActionRequest request);

  // --- Direct injection (for tests / non-threaded harnesses) ---
  // Runs the filter+report path for one event synchronously.
  void DeliverEvent(const monitor::FsEvent& event);
  // Same, for a whole batch (the event thread's unit of work).
  void DeliverBatch(const monitor::EventBatch& batch);
  // Executes every queued action synchronously.
  size_t DrainActions();

  [[nodiscard]] const std::string& name() const noexcept { return config_.name; }
  [[nodiscard]] AgentStats Stats() const;
  [[nodiscard]] const ActionLog& action_log() const noexcept { return action_log_; }
  [[nodiscard]] Outbox& outbox() noexcept { return outbox_; }
  [[nodiscard]] lustre::FileSystem& storage() noexcept { return *storage_; }
  // Null unless a RecoveringSubscriber was attached (recovery telemetry).
  [[nodiscard]] const monitor::RecoveringSubscriber* recovering_source() const noexcept {
    return recovering_source_.get();
  }
  // Null unless a FleetSubscriber was attached (fleet-wide telemetry).
  [[nodiscard]] const monitor::FleetSubscriber* fleet_source() const noexcept {
    return fleet_source_.get();
  }

 private:
  void EventLoop(const std::stop_token& stop);
  void WatcherLoop(const std::stop_token& stop);
  void ActionLoop();
  // Zero-copy filter path: probes string_view paths straight out of the
  // wire payload; only matching (or traced) events materialize an FsEvent.
  void DeliverBatchView(const monitor::wire::EventBatchView& view);
  void ReportWithRetry(const monitor::FsEvent& event);
  void ExecuteAction(ActionRequest request);
  [[nodiscard]] bool MatchesAnyRule(const monitor::FsEvent& event) const;
  // Recompiles rule_filters_ into a fresh snapshot. Caller holds
  // rules_mutex_.
  void RebuildRuleIndex();
  static std::string ActionKey(const ActionRequest& request);

  AgentConfig config_;
  lustre::FileSystem* storage_;
  CloudService* cloud_;
  EndpointRegistry* endpoints_;
  const TimeAuthority* authority_;

  std::unique_ptr<monitor::EventSubscriber> source_;
  std::unique_ptr<monitor::RecoveringSubscriber> recovering_source_;
  std::unique_ptr<monitor::FleetSubscriber> fleet_source_;
  std::unique_ptr<monitor::InotifyMonitor> watcher_;
  VirtualDuration watcher_poll_interval_{};

  // Control plane only: guards rule_filters_ and index rebuilds. The hot
  // path never takes it — event evaluation loads the compiled snapshot
  // below, so Install/Remove never stall in-flight filtering.
  mutable std::mutex rules_mutex_;
  std::map<std::string, Rule> rule_filters_;
  // Copy-on-write compiled dispatch over rule_filters_ (ripple/rule_index.h):
  // rebuilt and swapped on every control-plane change, the replaced
  // snapshot freed once no evaluation can hold it; the event loop pins it
  // with a wait-free read guard for one batch evaluation at a time.
  RuleSnapshotSlot rule_index_;

  std::map<ActionType, std::unique_ptr<ActionExecutor>> executors_;
  BoundedQueue<ActionRequest> action_queue_;
  ActionLog action_log_;
  Outbox outbox_;
  DelayBudget budget_;

  mutable std::mutex dedupe_mutex_;
  LruCache<std::string, bool> dedupe_;

  // Registry-backed counters (config_.metrics, or a private registry).
  std::shared_ptr<MetricsRegistry> metrics_;
  std::shared_ptr<Counter> events_seen_;
  std::shared_ptr<Counter> events_matched_;
  std::shared_ptr<Counter> events_reported_;
  std::shared_ptr<Counter> report_retries_;
  std::shared_ptr<Counter> report_failures_;
  std::shared_ptr<Counter> actions_received_;
  std::shared_ptr<Counter> actions_executed_;
  std::shared_ptr<Counter> actions_failed_;
  std::shared_ptr<Counter> actions_retried_;
  std::shared_ptr<Counter> actions_deduped_;

  // Flow-ledger extras and stage watermarks (null when config_.flow /
  // config_.watermarks are unset). `unmatched_` closes the rule_eval row:
  // seen == matched + unmatched. `rejected_` closes the actions row for
  // deliveries that arrive after Stop has closed the action queue.
  std::shared_ptr<Counter> unmatched_;
  std::shared_ptr<Counter> rejected_;
  std::shared_ptr<StageWatermark> wm_rule_eval_;
  std::shared_ptr<StageWatermark> wm_execute_;
  // Invalidated in the destructor so the ledger's action-queue depth
  // callback stops reading a dead agent.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::jthread event_thread_;
  std::jthread action_thread_;
  std::atomic<bool> running_{false};
};

}  // namespace sdci::ripple
