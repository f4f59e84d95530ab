// Full-stack integration: generator -> Lustre FS -> monitor -> Ripple
// agent -> cloud -> actions, including a two-stage rule pipeline (the
// output of one action triggers the next rule) and end-to-end fault
// injection across every reliability mechanism at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "lustre/client.h"
#include "monitor/consumer.h"
#include "monitor/monitor.h"
#include "ripple/agent.h"
#include "ripple/cloud.h"

namespace sdci {
namespace {

class RippleIntegrationTest : public ::testing::Test {
 protected:
  RippleIntegrationTest()
      : authority_(2000.0),
        profile_(lustre::TestbedProfile::Test()),
        hpc_(lustre::FileSystemConfig::FromProfile(profile_), authority_),
        laptop_(lustre::FileSystemConfig::FromProfile(profile_), authority_) {
    endpoints_.Register("hpc", hpc_);
    endpoints_.Register("laptop", laptop_);
  }

  template <typename Pred>
  bool WaitFor(Pred&& pred, int seconds = 10) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  TimeAuthority authority_;
  lustre::TestbedProfile profile_;
  lustre::FileSystem hpc_;
  lustre::FileSystem laptop_;
  ripple::EndpointRegistry endpoints_;
  msgq::Context context_;
};

TEST_F(RippleIntegrationTest, TwoStagePipelineAcrossStorageSystems) {
  // Stage 1: new raw scan on the HPC store -> run analysis (which writes
  // a derived file). Stage 2: derived file -> replicate to the laptop.
  monitor::MonitorConfig mon_config;
  mon_config.collector.poll_interval = Millis(1);
  monitor::Monitor mon(hpc_, profile_, authority_, context_, mon_config);
  mon.Start();

  ripple::CloudConfig cloud_config;
  cloud_config.worker_poll = Millis(1);
  ripple::CloudService cloud(authority_, cloud_config);
  cloud.Start();

  ripple::AgentConfig agent_config;
  agent_config.name = "hpc";
  ripple::Agent agent(agent_config, hpc_, cloud, endpoints_, authority_);
  agent.AttachSource(std::make_unique<monitor::EventSubscriber>(
      context_, mon_config.aggregator.publish_endpoint, "fsevent.", 1u << 16,
      msgq::HwmPolicy::kBlock));
  // The analysis command writes its output back to the HPC store, which
  // the monitor sees, which triggers stage 2.
  agent.RegisterExecutor(
      ripple::ActionType::kLocalCommand,
      std::make_unique<ripple::LocalCommandExecutor>(
          [](const ripple::ActionContext& context, const std::string&,
             const monitor::FsEvent& event) -> Status {
            const std::string out = event.path + ".analyzed.h5";
            auto created = context.storage->Create(out);
            if (!created.ok()) return created.status();
            return context.storage->WriteFile(out, 2048);
          }));

  auto stage1 = ripple::Rule::Parse(R"({
    "id": "analyze-raw",
    "trigger": {"events": ["created"], "path": "/beam/raw/**", "suffix": ".raw"},
    "action": {"type": "local_command", "agent": "hpc",
               "params": {"command": "analyze {path}"}}
  })");
  ASSERT_TRUE(stage1.ok());
  auto stage2 = ripple::Rule::Parse(R"({
    "id": "replicate-derived",
    "trigger": {"events": ["created"], "path": "/beam/raw/**", "suffix": ".analyzed.h5"},
    "action": {"type": "transfer", "agent": "hpc",
               "params": {"destination_endpoint": "laptop",
                          "destination_dir": "/results"}}
  })");
  ASSERT_TRUE(stage2.ok());
  ASSERT_TRUE(cloud.RegisterRule(*stage1).ok());
  ASSERT_TRUE(cloud.RegisterRule(*stage2).ok());
  agent.Start();

  lustre::Client client(hpc_, profile_, authority_);
  ASSERT_TRUE(client.MkdirAll("/beam/raw").ok());
  ASSERT_TRUE(client.Create("/beam/raw/scan_001.raw").ok());
  client.FlushDelay();

  ASSERT_TRUE(WaitFor([&] { return laptop_.Stat("/results/scan_001.raw.analyzed.h5").ok(); }))
      << "pipeline did not complete";

  agent.Stop();
  cloud.Stop();
  mon.Stop();

  EXPECT_TRUE(hpc_.Stat("/beam/raw/scan_001.raw.analyzed.h5").ok());
  const auto replica = laptop_.Stat("/results/scan_001.raw.analyzed.h5");
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(replica->attrs.size, 2048u);
  EXPECT_GE(agent.Stats().actions_executed, 2u);
}

TEST_F(RippleIntegrationTest, SiteWidePurgePolicy) {
  // The policy inotify cannot express: purge any *.tmp anywhere on the
  // file system. Exercised through the full monitor.
  monitor::MonitorConfig mon_config;
  mon_config.collector.poll_interval = Millis(1);
  monitor::Monitor mon(hpc_, profile_, authority_, context_, mon_config);
  mon.Start();
  ripple::CloudConfig cloud_config;
  cloud_config.worker_poll = Millis(1);
  ripple::CloudService cloud(authority_, cloud_config);
  cloud.Start();
  ripple::AgentConfig agent_config;
  agent_config.name = "hpc";
  ripple::Agent agent(agent_config, hpc_, cloud, endpoints_, authority_);
  agent.AttachSource(std::make_unique<monitor::EventSubscriber>(
      context_, mon_config.aggregator.publish_endpoint, "fsevent.", 1u << 16,
      msgq::HwmPolicy::kBlock));
  auto purge = ripple::Rule::Parse(R"({
    "id": "purge-tmp",
    "trigger": {"events": ["created"], "path": "/**", "suffix": ".tmp"},
    "action": {"type": "delete", "agent": "hpc", "params": {}}
  })");
  ASSERT_TRUE(purge.ok());
  ASSERT_TRUE(cloud.RegisterRule(*purge).ok());
  agent.Start();

  lustre::Client client(hpc_, profile_, authority_);
  ASSERT_TRUE(client.MkdirAll("/u1/deep/nest").ok());
  ASSERT_TRUE(client.MkdirAll("/u2").ok());
  ASSERT_TRUE(client.Create("/u1/deep/nest/junk.tmp").ok());
  ASSERT_TRUE(client.Create("/u2/also.tmp").ok());
  ASSERT_TRUE(client.Create("/u2/keep.dat").ok());
  client.FlushDelay();

  ASSERT_TRUE(WaitFor([&] {
    return !hpc_.Stat("/u1/deep/nest/junk.tmp").ok() && !hpc_.Stat("/u2/also.tmp").ok();
  })) << "purge actions did not run";

  agent.Stop();
  cloud.Stop();
  mon.Stop();
  EXPECT_TRUE(hpc_.Stat("/u2/keep.dat").ok());
}

TEST_F(RippleIntegrationTest, EndToEndUnderFaultInjection) {
  monitor::MonitorConfig mon_config;
  mon_config.collector.poll_interval = Millis(1);
  monitor::Monitor mon(hpc_, profile_, authority_, context_, mon_config);
  mon.Start();

  ripple::CloudConfig cloud_config;
  cloud_config.worker_poll = Millis(1);
  cloud_config.cleanup_interval = Millis(5);
  cloud_config.queue.visibility_timeout = Millis(20);
  cloud_config.report_drop_prob = 0.25;
  cloud_config.worker_crash_prob = 0.25;
  cloud_config.fault_seed = 99;
  ripple::CloudService cloud(authority_, cloud_config);
  cloud.Start();

  ripple::AgentConfig agent_config;
  agent_config.name = "hpc";
  agent_config.report_backoff = Millis(1);
  ripple::Agent agent(agent_config, hpc_, cloud, endpoints_, authority_);
  agent.AttachSource(std::make_unique<monitor::EventSubscriber>(
      context_, mon_config.aggregator.publish_endpoint, "fsevent.", 1u << 16,
      msgq::HwmPolicy::kBlock));
  auto rule = ripple::Rule::Parse(R"({
    "id": "notify",
    "trigger": {"events": ["created"], "path": "/inbox/**"},
    "action": {"type": "email", "agent": "hpc", "params": {"to": "ops@lab"}}
  })");
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(cloud.RegisterRule(*rule).ok());
  agent.Start();

  lustre::Client client(hpc_, profile_, authority_);
  ASSERT_TRUE(client.MkdirAll("/inbox").ok());
  constexpr int kFiles = 25;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(client.Create("/inbox/f" + std::to_string(i) + ".dat").ok());
  }
  client.FlushDelay();

  // Despite dropped reports and crashing workers, every event must
  // eventually produce exactly one action (dedupe absorbs redeliveries).
  ASSERT_TRUE(WaitFor([&] { return agent.outbox().Count() >= kFiles; }, 20))
      << "outbox=" << agent.outbox().Count();

  agent.Stop();
  cloud.Stop();
  mon.Stop();

  EXPECT_EQ(agent.outbox().Count(), static_cast<size_t>(kFiles));
  const auto cloud_stats = cloud.Stats();
  EXPECT_GT(cloud_stats.reports_dropped, 0u) << "faults actually injected";
  EXPECT_GT(cloud_stats.worker_crashes, 0u);
  EXPECT_EQ(agent.Stats().report_failures, 0u) << "retries always succeeded";
}

// Rule churn against a live deployment: 1000 installed rules, a running
// event loop and cloud workers, and 500 register+remove pairs while files
// land. Every replaced RuleIndex snapshot must be freed within its update
// (at most two alive per slot at any instant — the live one and the one
// being built or replaced — and one per slot once the update returns),
// and every matching create must still fire its action exactly once.
TEST_F(RippleIntegrationTest, RuleChurnFreesSnapshotsAndActionsFireOnce) {
  monitor::MonitorConfig mon_config;
  mon_config.collector.poll_interval = Millis(1);
  monitor::Monitor mon(hpc_, profile_, authority_, context_, mon_config);
  mon.Start();

  ripple::CloudConfig cloud_config;
  cloud_config.worker_poll = Millis(1);
  ripple::CloudService cloud(authority_, cloud_config);
  ripple::AgentConfig agent_config;
  agent_config.name = "hpc";
  ripple::Agent agent(agent_config, hpc_, cloud, endpoints_, authority_);
  agent.AttachSource(std::make_unique<monitor::EventSubscriber>(
      context_, mon_config.aggregator.publish_endpoint, "fsevent.", 1u << 16,
      msgq::HwmPolicy::kBlock));
  std::mutex fired_mutex;
  std::map<std::string, int> fired;  // path -> executions
  agent.RegisterExecutor(
      ripple::ActionType::kLocalCommand,
      std::make_unique<ripple::LocalCommandExecutor>(
          [&](const ripple::ActionContext&, const std::string&,
              const monitor::FsEvent& event) -> Status {
            const std::lock_guard<std::mutex> lock(fired_mutex);
            ++fired[event.path];
            return OkStatus();
          }));
  // Both slots hold the shared empty index now.
  const size_t baseline = ripple::RuleIndex::Live();

  const auto make_rule = [](std::string id, std::string glob) {
    ripple::Rule rule;
    rule.id = std::move(id);
    rule.trigger.event_mask = ripple::kCreated;
    rule.trigger.path_glob = Glob(std::move(glob));
    rule.action.type = ripple::ActionType::kLocalCommand;
    rule.action.agent = "hpc";
    json::Object params;
    params["command"] = json::Value("record {path}");
    rule.action.params = json::Value(std::move(params));
    rule.watch_agent = "hpc";
    return rule;
  };
  constexpr int kRules = 1000;
  for (int k = 0; k < kRules; ++k) {
    auto rule = make_rule("r" + std::to_string(k),
                          "/data/d" + std::to_string(k) + "/*.h5");
    rule.tenant = "t" + std::to_string(k % 10);
    ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  }
  EXPECT_EQ(ripple::RuleIndex::Live(), baseline + 2);
  cloud.Start();
  agent.Start();

  // Files land in 20 ruled directories for as long as the churn runs;
  // every other one is a non-matching .dat.
  constexpr int kDirs = 20;
  lustre::Client setup(hpc_, profile_, authority_);
  for (int d = 0; d < kDirs; ++d) {
    ASSERT_TRUE(setup.MkdirAll("/data/d" + std::to_string(d)).ok());
  }
  setup.FlushDelay();
  std::atomic<bool> churn_done{false};
  std::atomic<size_t> max_live{0};
  int expected_actions = 0;
  std::thread writer([&] {
    lustre::Client client(hpc_, profile_, authority_, 2);
    for (int i = 0; i < 800 && !churn_done.load(); ++i) {
      const bool match = i % 2 == 0;
      const std::string path = "/data/d" + std::to_string(i % kDirs) + "/f" +
                               std::to_string(i) + (match ? ".h5" : ".dat");
      if (client.Create(path).ok() && match) ++expected_actions;
      client.FlushDelay();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  std::thread sampler([&] {
    while (!churn_done.load()) {
      const size_t live = ripple::RuleIndex::Live();
      size_t seen = max_live.load();
      while (live > seen && !max_live.compare_exchange_weak(seen, live)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  constexpr int kPairs = 500;
  size_t max_live_after_update = 0;
  bool updates_ok = true;
  for (int i = 0; i < kPairs && updates_ok; ++i) {
    const std::string id = "churn" + std::to_string(i);
    updates_ok =
        cloud.RegisterRule(make_rule(id, "/churn/u" + std::to_string(i) + "/**")).ok();
    max_live_after_update = std::max(max_live_after_update, ripple::RuleIndex::Live());
    updates_ok = updates_ok && cloud.RemoveRule(id).ok();
    max_live_after_update = std::max(max_live_after_update, ripple::RuleIndex::Live());
  }
  churn_done.store(true);
  writer.join();
  sampler.join();
  ASSERT_TRUE(updates_ok);

  const auto total_fired = [&] {
    const std::lock_guard<std::mutex> lock(fired_mutex);
    int total = 0;
    for (const auto& [path, count] : fired) total += count;
    return total;
  };
  ASSERT_GT(expected_actions, 0);
  EXPECT_TRUE(WaitFor([&] { return total_fired() >= expected_actions; }, 30))
      << "fired " << total_fired() << " of " << expected_actions;
  agent.Stop();
  cloud.Stop();
  mon.Stop();

  EXPECT_LE(max_live.load(), baseline + 4) << "more than two snapshots alive per slot";
  EXPECT_EQ(max_live_after_update, baseline + 2) << "a replaced snapshot outlived its update";
  EXPECT_EQ(ripple::RuleIndex::Live(), baseline + 2);
  const std::lock_guard<std::mutex> lock(fired_mutex);
  EXPECT_EQ(fired.size(), static_cast<size_t>(expected_actions));
  for (const auto& [path, count] : fired) {
    EXPECT_EQ(count, 1) << path;
    EXPECT_TRUE(path.ends_with(".h5")) << path;
  }
}

TEST_F(RippleIntegrationTest, PersonalDeviceAgentUsesLocalWatcher) {
  // The paper's laptop deployment: no site monitor, just Watchdog-style
  // per-directory watching on the personal device.
  ripple::CloudConfig cloud_config;
  cloud_config.worker_poll = Millis(1);
  ripple::CloudService cloud(authority_, cloud_config);
  cloud.Start();

  ripple::AgentConfig agent_config;
  agent_config.name = "laptop";
  ripple::Agent agent(agent_config, laptop_, cloud, endpoints_, authority_);
  auto watcher = std::make_unique<monitor::InotifyMonitor>(laptop_, authority_);
  ASSERT_TRUE(laptop_.MkdirAll("/home/alice/inbox").ok());
  ASSERT_TRUE(watcher->Watch("/home/alice/inbox").ok());
  agent.AttachLocalWatcher(std::move(watcher), Millis(5));

  auto rule = ripple::Rule::Parse(R"({
    "id": "laptop-notify",
    "trigger": {"events": ["created"], "path": "/home/alice/inbox/**"},
    "action": {"type": "email", "agent": "laptop", "params": {"to": "alice@lab"}}
  })");
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(cloud.RegisterRule(*rule).ok());
  agent.Start();

  lustre::Client client(laptop_, profile_, authority_);
  ASSERT_TRUE(client.Create("/home/alice/inbox/paper.pdf").ok());
  ASSERT_TRUE(client.Create("/home/alice/elsewhere.txt").ok());  // unwatched parent
  client.FlushDelay();

  ASSERT_TRUE(WaitFor([&] { return agent.outbox().Count() >= 1; }));
  agent.Stop();
  cloud.Stop();
  EXPECT_EQ(agent.outbox().Count(), 1u) << "only the watched directory fires";
  EXPECT_EQ(agent.outbox().Messages()[0].to, "alice@lab");
}

}  // namespace
}  // namespace sdci
