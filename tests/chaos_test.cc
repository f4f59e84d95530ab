// Chaos integration: every fault injector at once. Collectors crash at
// random, agent->cloud reports drop, Lambda workers die mid-processing —
// and the end-to-end invariant must still hold: every matching file event
// produces exactly one executed action (agent dedupe absorbs the
// duplicate deliveries that at-least-once layers produce).
#include <gtest/gtest.h>

#include "lustre/client.h"
#include "monitor/aggregator.h"
#include "monitor/aggregator_supervisor.h"
#include "monitor/consumer.h"
#include "monitor/supervisor.h"
#include "ripple/agent.h"
#include "ripple/cloud.h"

namespace sdci {
namespace {

TEST(Chaos, ExactlyOnceActionsUnderEveryFaultInjector) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  lustre::FileSystem fs(lustre::FileSystemConfig::FromProfile(profile), authority);
  msgq::Context context;

  // Monitor half: supervised collectors that crash randomly + aggregator.
  monitor::AggregatorConfig agg_config;
  agg_config.store_capacity = 1u << 20;
  monitor::Aggregator aggregator(profile, authority, context, agg_config);
  aggregator.Start();
  monitor::CollectorConfig collector_config;
  collector_config.poll_interval = Millis(1);
  collector_config.read_batch = 16;
  monitor::SupervisorConfig sup_config;
  sup_config.check_interval = Millis(10);
  sup_config.crash_prob_per_check = 0.15;
  sup_config.fault_seed = 77;
  monitor::CollectorSupervisor supervisor(fs, profile, authority, context,
                                          collector_config, sup_config);
  supervisor.Start();

  // Ripple half: lossy reports, crashing workers.
  ripple::CloudConfig cloud_config;
  cloud_config.worker_poll = Millis(1);
  cloud_config.cleanup_interval = Millis(5);
  cloud_config.queue.visibility_timeout = Millis(20);
  cloud_config.report_drop_prob = 0.2;
  cloud_config.worker_crash_prob = 0.2;
  cloud_config.fault_seed = 1234;
  ripple::CloudService cloud(authority, cloud_config);
  cloud.Start();
  ripple::EndpointRegistry endpoints;
  endpoints.Register("site", fs);
  ripple::AgentConfig agent_config;
  agent_config.name = "site";
  agent_config.report_backoff = Millis(1);
  ripple::Agent agent(agent_config, fs, cloud, endpoints, authority);
  agent.AttachSource(std::make_unique<monitor::EventSubscriber>(
      context, agg_config.publish_endpoint, "fsevent.", 1u << 18,
      msgq::HwmPolicy::kBlock));
  auto rule = ripple::Rule::Parse(R"({
    "id": "audit",
    "trigger": {"events": ["created"], "path": "/hot/**"},
    "action": {"type": "email", "agent": "site", "params": {"to": "audit@site"}}
  })");
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(cloud.RegisterRule(*rule).ok());
  agent.Start();

  // The workload.
  lustre::Client client(fs, profile, authority);
  ASSERT_TRUE(client.MkdirAll("/hot").ok());
  constexpr int kFiles = 120;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(client.Create("/hot/f" + std::to_string(i)).ok());
    if (i % 20 == 0) authority.SleepFor(Millis(15));  // let crashes interleave
  }
  client.FlushDelay();

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (agent.outbox().Count() < kFiles &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  agent.Stop();
  cloud.Stop();
  supervisor.Stop();
  aggregator.Stop();

  EXPECT_EQ(agent.outbox().Count(), static_cast<size_t>(kFiles))
      << "collector crashes: " << supervisor.crashes()
      << ", dropped reports: " << cloud.Stats().reports_dropped
      << ", worker crashes: " << cloud.Stats().worker_crashes;
  // The chaos must actually have happened for the test to mean anything.
  EXPECT_GT(supervisor.crashes() + cloud.Stats().reports_dropped +
                cloud.Stats().worker_crashes,
            0u);
  EXPECT_EQ(agent.Stats().report_failures, 0u);
}

// Same invariant with the aggregator itself in the blast radius: the
// supervisor crash-loops it, the wire eats published batches, collectors
// die at random, reports drop, workers crash. The agent rides a
// RecoveringSubscriber, so every hole torn in the live stream is healed
// from the checkpoint-restored history API — and the action count still
// comes out exact.
TEST(Chaos, ExactlyOnceActionsSurviveAggregatorCrashes) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  lustre::FileSystem fs(lustre::FileSystemConfig::FromProfile(profile), authority);
  msgq::Context context;

  // Supervised aggregator that crash-loops.
  monitor::AggregatorConfig agg_config;
  agg_config.store_capacity = 1u << 20;
  monitor::AggregatorSupervisorConfig agg_sup_config;
  agg_sup_config.check_interval = Millis(50);
  agg_sup_config.crash_prob_per_check = 0.05;
  agg_sup_config.fault_seed = 4242;
  monitor::AggregatorSupervisor agg_supervisor(profile, authority, context,
                                               agg_config, agg_sup_config);
  agg_supervisor.Start();

  // The wire eats a quarter of the published batches: guaranteed gaps,
  // independent of crash timing.
  msgq::FaultConfig wire_faults;
  wire_faults.drop_prob = 0.25;
  wire_faults.seed = 99;
  context.InjectFaults(agg_config.publish_endpoint, wire_faults);

  // Supervised collectors that crash randomly.
  monitor::CollectorConfig collector_config;
  collector_config.poll_interval = Millis(1);
  collector_config.read_batch = 16;
  monitor::SupervisorConfig sup_config;
  sup_config.check_interval = Millis(10);
  sup_config.crash_prob_per_check = 0.1;
  sup_config.fault_seed = 77;
  monitor::CollectorSupervisor supervisor(fs, profile, authority, context,
                                          collector_config, sup_config);
  supervisor.Start();

  // Ripple half: lossy reports, crashing workers.
  ripple::CloudConfig cloud_config;
  cloud_config.worker_poll = Millis(1);
  cloud_config.cleanup_interval = Millis(5);
  cloud_config.queue.visibility_timeout = Millis(20);
  cloud_config.report_drop_prob = 0.2;
  cloud_config.worker_crash_prob = 0.2;
  cloud_config.fault_seed = 1234;
  ripple::CloudService cloud(authority, cloud_config);
  cloud.Start();
  ripple::EndpointRegistry endpoints;
  endpoints.Register("site", fs);
  ripple::AgentConfig agent_config;
  agent_config.name = "site";
  agent_config.report_backoff = Millis(1);
  ripple::Agent agent(agent_config, fs, cloud, endpoints, authority);
  monitor::RecoveringSubscriberConfig rec_config;
  rec_config.start_seq = 1;  // accountable for the whole stream
  rec_config.hwm = 1u << 18;
  rec_config.policy = msgq::HwmPolicy::kBlock;
  agent.AttachSource(std::make_unique<monitor::RecoveringSubscriber>(
      context, agg_config.publish_endpoint, agg_config.api_endpoint, rec_config));
  auto rule = ripple::Rule::Parse(R"({
    "id": "audit",
    "trigger": {"events": ["created"], "path": "/hot/**"},
    "action": {"type": "email", "agent": "site", "params": {"to": "audit@site"}}
  })");
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(cloud.RegisterRule(*rule).ok());
  agent.Start();

  // The workload.
  lustre::Client client(fs, profile, authority);
  ASSERT_TRUE(client.MkdirAll("/hot").ok());
  ASSERT_TRUE(client.MkdirAll("/cold").ok());
  constexpr int kFiles = 120;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(client.Create("/hot/f" + std::to_string(i)).ok());
    if (i % 20 == 0) authority.SleepFor(Millis(15));  // let crashes interleave
  }
  client.FlushDelay();

  // A gap at the tail of the stream is only discovered when the next live
  // message arrives, so keep non-matching flush traffic trickling while we
  // wait (in production the stream never goes silent).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int flush = 0;
  while (agent.outbox().Count() < kFiles &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(client.Create("/cold/flush" + std::to_string(flush++)).ok());
    client.FlushDelay();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  agent.Stop();
  cloud.Stop();
  supervisor.Stop();
  agg_supervisor.Stop();
  context.ClearFaults(agg_config.publish_endpoint);

  const monitor::RecoveringSubscriber* source = agent.recovering_source();
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(agent.outbox().Count(), static_cast<size_t>(kFiles))
      << "aggregator crashes: " << agg_supervisor.crashes()
      << ", gaps: " << source->gaps_detected()
      << ", backfilled: " << source->events_backfilled()
      << ", unrecoverable: " << source->events_unrecoverable()
      << ", wire drops: "
      << context.FaultStatsFor(agg_config.publish_endpoint).dropped;
  // The chaos must actually have happened, and the healing machinery must
  // actually have healed (not just "nothing was ever lost").
  EXPECT_GT(agg_supervisor.crashes(), 0u);
  EXPECT_EQ(agg_supervisor.crashes(), agg_supervisor.restarts());
  EXPECT_GT(source->gaps_detected(), 0u);
  EXPECT_GT(source->events_backfilled(), 0u);
  EXPECT_EQ(source->events_unrecoverable(), 0u) << "zero events lost for good";
  EXPECT_EQ(agent.Stats().report_failures, 0u);
}

// Crash the aggregator *inside* a group commit. The commit_hook runs on
// the receive thread between sequencing a group and its WAL append;
// stalling there while a crasher thread fires InjectCrash makes the crash
// flag appear mid-commit. The write-ahead contract under test: the WAL
// either has all of a group or none of it, the replay watermark never
// advances past a half-committed group, and the history API serves the
// full stream back with no duplicated or skipped global_seq.
TEST(Chaos, GroupCommitSurvivesMidCommitCrashes) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  msgq::Context context;

  monitor::AggregatorConfig agg_config;
  agg_config.store_capacity = 1u << 20;
  agg_config.wal_group_max = 8;
  std::atomic<uint64_t> commits{0};
  std::atomic<bool> crash_window{false};
  agg_config.commit_hook = [&](size_t) {
    if ((commits.fetch_add(1, std::memory_order_relaxed) + 1) % 20 == 0) {
      crash_window.store(true, std::memory_order_release);
      // Hold the receive thread here so the crash lands before this
      // group's WAL append. The hook must NOT inject the crash itself:
      // Crash() joins the receive thread, which is the thread running the
      // hook.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  monitor::AggregatorSupervisorConfig agg_sup_config;
  agg_sup_config.check_interval = Millis(20);
  agg_sup_config.crash_prob_per_check = 0;  // only deliberate crashes
  monitor::AggregatorSupervisor agg_supervisor(profile, authority, context,
                                               agg_config, agg_sup_config);
  agg_supervisor.Start();
  std::jthread crasher([&](const std::stop_token& stop) {
    while (!stop.stop_requested()) {
      if (crash_window.exchange(false, std::memory_order_acq_rel)) {
        agg_supervisor.InjectCrash();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // Feed straight into the (incarnation-independent) collect socket.
  constexpr int kBatches = 300;
  constexpr int kBatchSize = 8;
  constexpr uint64_t kTotal = uint64_t{kBatches} * kBatchSize;
  auto pub = context.CreatePub(agg_config.collect_endpoint);
  for (int b = 0; b < kBatches; ++b) {
    std::vector<monitor::FsEvent> batch;
    for (int i = 0; i < kBatchSize; ++i) {
      monitor::FsEvent event;
      event.mdt_index = 0;
      event.record_index = static_cast<uint64_t>(b * kBatchSize + i);
      event.type = lustre::ChangeLogType::kCreate;
      event.time = Micros(b * kBatchSize + i);
      event.path = "/chaos/f" + std::to_string(b * kBatchSize + i);
      batch.push_back(std::move(event));
    }
    pub->Publish(msgq::Message("collect.mdt0", monitor::EncodeEventBatch(batch)));
    if (b % 30 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Every handed-off event must reach the WAL, across however many
  // incarnations that takes.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (agg_supervisor.Stats().checkpointed < kTotal &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  crasher.request_stop();
  crasher.join();
  // The last crash may still be awaiting its restart: with the crasher
  // gone, wait for the supervisor to revive it before comparing counts.
  const auto restart_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (agg_supervisor.restarts() < agg_supervisor.crashes() &&
         std::chrono::steady_clock::now() < restart_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const monitor::AggregatorStats stats = agg_supervisor.Stats();
  EXPECT_EQ(stats.checkpointed, kTotal);
  EXPECT_GT(agg_supervisor.crashes(), 0u) << "no crash ever hit a commit window";
  EXPECT_EQ(agg_supervisor.crashes(), agg_supervisor.restarts());

  // Page the whole stream back through the history API (served by the
  // store the current incarnation rebuilt from the WAL): exactly 1..N,
  // contiguous — a skipped seq means the watermark ran ahead of a lost
  // group, a duplicate means a group was replayed on top of itself.
  monitor::HistoryClient history(context, agg_config.api_endpoint);
  uint64_t next_expected = 1;
  const auto fetch_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (next_expected <= kTotal &&
         std::chrono::steady_clock::now() < fetch_deadline) {
    auto page = history.Fetch(next_expected, 512, std::chrono::milliseconds(500));
    if (!page.ok()) continue;  // mid-restart; the supervisor will revive it
    EXPECT_LE(page->first_available, 1u) << "nothing rotated out";
    for (const monitor::FsEvent& event : page->events) {
      ASSERT_EQ(event.global_seq, next_expected)
          << "history stream must be gap-free and duplicate-free";
      ++next_expected;
    }
  }
  EXPECT_EQ(next_expected, kTotal + 1);
  agg_supervisor.Stop();
}

}  // namespace
}  // namespace sdci
