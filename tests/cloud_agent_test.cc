// CloudService + Agent behaviour, including the reliability machinery the
// paper highlights: report retry on loss, Lambda-crash redelivery
// (at-least-once), dedupe, and rule distribution to agents.
#include <gtest/gtest.h>

#include "monitor/flow_ledger.h"
#include "ripple/agent.h"
#include "ripple/cloud.h"

namespace sdci::ripple {
namespace {

class CloudAgentTest : public ::testing::Test {
 protected:
  CloudAgentTest()
      : authority_(2000.0),
        profile_(lustre::TestbedProfile::Test()),
        fs_(lustre::FileSystemConfig::FromProfile(profile_), authority_) {}

  CloudConfig FastCloud() {
    CloudConfig config;
    config.queue.visibility_timeout = Millis(30);
    config.worker_poll = Millis(1);
    config.cleanup_interval = Millis(10);
    return config;
  }

  std::unique_ptr<Agent> MakeAgent(CloudService& cloud, const std::string& name) {
    AgentConfig config;
    config.name = name;
    config.report_backoff = Millis(1);
    return std::make_unique<Agent>(config, fs_, cloud, endpoints_, authority_);
  }

  Rule EmailRule(const std::string& id, const std::string& agent,
                 const std::string& glob = "/**") {
    Rule rule;
    rule.id = id;
    rule.trigger.event_mask = kCreated;
    rule.trigger.path_glob = Glob(glob);
    rule.action.type = ActionType::kEmail;
    rule.action.agent = agent;
    json::Object params;
    params["to"] = json::Value("pi@lab.edu");
    rule.action.params = json::Value(std::move(params));
    rule.watch_agent = agent;
    return rule;
  }

  monitor::FsEvent CreateEvent(const std::string& path, uint64_t seq) {
    monitor::FsEvent event;
    event.type = lustre::ChangeLogType::kCreate;
    event.path = path;
    event.global_seq = seq;
    const size_t slash = path.find_last_of('/');
    event.name = path.substr(slash + 1);
    return event;
  }

  TimeAuthority authority_;
  lustre::TestbedProfile profile_;
  lustre::FileSystem fs_;
  EndpointRegistry endpoints_;
};

TEST_F(CloudAgentTest, RuleDistributionInstallsAgentFilter) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  // Matching event is reported; a MARK-ish unmatched event is not.
  agent->DeliverEvent(CreateEvent("/a.h5", 1));
  monitor::FsEvent unmatched = CreateEvent("/b.h5", 2);
  unmatched.type = lustre::ChangeLogType::kOpen;  // maps to no rule kind
  agent->DeliverEvent(unmatched);
  EXPECT_EQ(agent->Stats().events_seen, 2u);
  EXPECT_EQ(agent->Stats().events_matched, 1u);
  EXPECT_EQ(agent->Stats().events_reported, 1u);
  EXPECT_EQ(cloud.Stats().reports_received, 1u);
}

TEST_F(CloudAgentTest, RuleRegisteredBeforeAgentStillDistributed) {
  CloudService cloud(authority_, FastCloud());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("early", "hpc")).ok());
  auto agent = MakeAgent(cloud, "hpc");  // registers itself, pulls rules
  agent->DeliverEvent(CreateEvent("/x.h5", 1));
  EXPECT_EQ(agent->Stats().events_matched, 1u);
}

TEST_F(CloudAgentTest, RemoveRuleStopsMatching) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  ASSERT_TRUE(cloud.RemoveRule("r1").ok());
  EXPECT_EQ(cloud.RemoveRule("r1").code(), StatusCode::kNotFound);
  agent->DeliverEvent(CreateEvent("/a.h5", 1));
  EXPECT_EQ(agent->Stats().events_matched, 0u);
}

TEST_F(CloudAgentTest, EndToEndActionExecution) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  agent->DeliverEvent(CreateEvent("/data/a.h5", 1));
  EXPECT_EQ(cloud.PumpUntilQuiet(), 1u);
  EXPECT_EQ(agent->DrainActions(), 1u);
  EXPECT_EQ(agent->outbox().Count(), 1u);
  EXPECT_EQ(agent->Stats().actions_executed, 1u);
  EXPECT_EQ(agent->action_log().SuccessCount(), 1u);
}

TEST_F(CloudAgentTest, CrossAgentActionRouting) {
  CloudService cloud(authority_, FastCloud());
  auto hpc = MakeAgent(cloud, "hpc");
  auto laptop = MakeAgent(cloud, "laptop");
  // Watch on hpc, execute on laptop.
  Rule rule = EmailRule("route", "laptop");
  rule.watch_agent = "hpc";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  hpc->DeliverEvent(CreateEvent("/d/x.h5", 1));
  cloud.PumpUntilQuiet();
  EXPECT_EQ(laptop->DrainActions(), 1u);
  EXPECT_EQ(hpc->DrainActions(), 0u);
  EXPECT_EQ(laptop->outbox().Count(), 1u);
}

TEST_F(CloudAgentTest, ReportRetriesOnInjectedLoss) {
  CloudConfig config = FastCloud();
  config.report_drop_prob = 0.5;
  config.fault_seed = 7;
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  for (int i = 0; i < 40; ++i) {
    agent->DeliverEvent(CreateEvent("/f" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  const auto agent_stats = agent->Stats();
  const auto cloud_stats = cloud.Stats();
  EXPECT_EQ(agent_stats.events_reported, 40u) << "retries recover all losses";
  EXPECT_GT(agent_stats.report_retries, 0u);
  EXPECT_GT(cloud_stats.reports_dropped, 0u);
  EXPECT_EQ(cloud_stats.reports_received, 40u);
}

TEST_F(CloudAgentTest, WorkerCrashCausesRedeliveryNotLoss) {
  CloudConfig config = FastCloud();
  config.worker_crash_prob = 0.4;
  config.fault_seed = 13;
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  for (int i = 0; i < 30; ++i) {
    agent->DeliverEvent(CreateEvent("/g" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  // Pump repeatedly: crashed entries become visible after their timeout.
  for (int round = 0; round < 50 && cloud.queue().TotalDeleted() < 30; ++round) {
    cloud.PumpUntilQuiet();
    authority_.SleepFor(Millis(40));
  }
  agent->DrainActions();
  const auto stats = cloud.Stats();
  EXPECT_GT(stats.worker_crashes, 0u);
  EXPECT_GT(stats.redeliveries, 0u);
  // At-least-once: every event eventually processed; the agent deduped
  // duplicate deliveries so exactly 30 actions ran.
  EXPECT_EQ(agent->outbox().Count(), 30u);
  EXPECT_GT(agent->Stats().actions_deduped, 0u);
}

TEST_F(CloudAgentTest, ActionForStoppedAgentStaysQueuedAndLedgerBalances) {
  auto flow = std::make_shared<FlowLedger>();
  CloudConfig cloud_config = FastCloud();
  cloud_config.flow = flow;
  CloudService cloud(authority_, cloud_config);
  AgentConfig config;
  config.name = "hpc";
  config.flow = flow;
  Agent agent(config, fs_, cloud, endpoints_, authority_);
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  agent.Start();
  agent.Stop();  // closes the action queue
  agent.DeliverEvent(CreateEvent("/a.h5", 1));
  cloud.PumpUntilQuiet();
  // The turned-away action is not deleted: the message stays in flight
  // (or dead-letters at max_receives) and every ledger row balances.
  EXPECT_GE(agent.Stats().actions_received, 1u);
  EXPECT_EQ(cloud.Stats().actions_dispatched, 0u);
  EXPECT_EQ(cloud.queue().TotalDeleted(), 0u);
  const auto audit = flow->Audit();
  for (const auto& row : audit.rows) {
    EXPECT_EQ(row.imbalance, 0) << row.boundary << "/" << row.instance
                                << ": in=" << row.in << " out=" << row.out
                                << " held=" << row.held;
  }
  EXPECT_TRUE(audit.balanced);
}

TEST_F(CloudAgentTest, DedupeDisabledExecutesDuplicates) {
  CloudConfig config = FastCloud();
  CloudService cloud(authority_, config);
  AgentConfig agent_config;
  agent_config.name = "hpc";
  agent_config.dedupe_actions = false;
  Agent agent(agent_config, fs_, cloud, endpoints_, authority_);
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  // Deliver the same event twice (as a redelivery would).
  agent.DeliverEvent(CreateEvent("/dup.h5", 5));
  agent.DeliverEvent(CreateEvent("/dup.h5", 5));
  cloud.PumpUntilQuiet();
  EXPECT_EQ(agent.DrainActions(), 2u);
  EXPECT_EQ(agent.outbox().Count(), 2u);
}

TEST_F(CloudAgentTest, ThreadedWorkersProcessQueue) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  cloud.Start();
  agent->Start();
  for (int i = 0; i < 20; ++i) {
    agent->DeliverEvent(CreateEvent("/w" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (agent->outbox().Count() < 20 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  agent->Stop();
  cloud.Stop();
  EXPECT_EQ(agent->outbox().Count(), 20u);
}

TEST_F(CloudAgentTest, TransientActionFailuresAreRetried) {
  CloudService cloud(authority_, FastCloud());
  AgentConfig agent_config;
  agent_config.name = "hpc";
  agent_config.action_retries = 5;
  agent_config.action_retry_backoff = Millis(1);
  Agent agent(agent_config, fs_, cloud, endpoints_, authority_);
  // An executor that fails transiently twice, then succeeds.
  struct FlakyExecutor : ActionExecutor {
    int failures_left = 2;
    Result<ActionOutcome> Execute(const ActionContext& context,
                                  const ActionRequest&) override {
      if (failures_left-- > 0) return UnavailableError("backend hiccup");
      ActionOutcome outcome;
      outcome.success = true;
      outcome.completed_at = context.authority->Now();
      return outcome;
    }
  };
  agent.RegisterExecutor(ActionType::kContainer, std::make_unique<FlakyExecutor>());
  Rule rule;
  rule.id = "flaky";
  rule.trigger.event_mask = kCreated;
  rule.action.type = ActionType::kContainer;
  rule.action.agent = "hpc";
  json::Object params;
  params["image"] = json::Value("i");
  rule.action.params = json::Value(std::move(params));
  rule.watch_agent = "hpc";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  agent.DeliverEvent(CreateEvent("/r.h5", 1));
  cloud.PumpUntilQuiet();
  EXPECT_EQ(agent.DrainActions(), 1u);
  const auto stats = agent.Stats();
  EXPECT_EQ(stats.actions_executed, 1u);
  EXPECT_EQ(stats.actions_retried, 2u);
  EXPECT_EQ(stats.actions_failed, 0u);
}

TEST_F(CloudAgentTest, PermanentActionFailuresAreNotRetried) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  Rule rule = EmailRule("bad-params", "hpc");
  rule.action.params = json::Value(json::Object{});  // missing "to"
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  agent->DeliverEvent(CreateEvent("/p.h5", 1));
  cloud.PumpUntilQuiet();
  EXPECT_EQ(agent->DrainActions(), 1u);
  const auto stats = agent->Stats();
  EXPECT_EQ(stats.actions_failed, 1u);
  EXPECT_EQ(stats.actions_retried, 0u) << "invalid params never retried";
}

TEST_F(CloudAgentTest, UnknownTargetAgentIsNotFatal) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  Rule rule = EmailRule("ghost", "nonexistent");
  rule.watch_agent = "hpc";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  agent->DeliverEvent(CreateEvent("/a.h5", 1));
  EXPECT_EQ(cloud.PumpUntilQuiet(), 1u);
  EXPECT_EQ(cloud.Stats().actions_dispatched, 0u);
}

TEST_F(CloudAgentTest, PoisonMessageLandsInDeadLetterQueueAndCanBeDrained) {
  CloudConfig config = FastCloud();
  config.worker_crash_prob = 1.0;  // every processing attempt "crashes"
  config.queue.max_receives = 3;
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  agent->DeliverEvent(CreateEvent("/poison.h5", 1));

  // Redelivery can never succeed; after max_receives the queue routes the
  // message to the dead-letter list instead of looping forever.
  for (int round = 0; round < 50 && cloud.DeadLetterDepth() == 0; ++round) {
    cloud.PumpUntilQuiet();
    authority_.SleepFor(Millis(40));
  }
  EXPECT_EQ(cloud.DeadLetterDepth(), 1u);
  EXPECT_EQ(cloud.Stats().dead_letters, 1u);

  // Operator intervention: drain, inspect, queue goes quiet.
  auto drained = cloud.DrainDeadLetters();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_GE(drained[0].receive_count, config.queue.max_receives);
  EXPECT_NE(drained[0].body.find("/poison.h5"), std::string::npos)
      << "the poison payload is preserved for diagnosis";
  EXPECT_EQ(cloud.DeadLetterDepth(), 0u);
  EXPECT_EQ(cloud.queue().VisibleDepth(), 0u);
  EXPECT_EQ(cloud.queue().InFlight(), 0u);
}

TEST_F(CloudAgentTest, RulesListedFromRegistry) {
  CloudService cloud(authority_, FastCloud());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("a", "x")).ok());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("b", "y")).ok());
  EXPECT_EQ(cloud.Rules().size(), 2u);
  EXPECT_FALSE(cloud.RegisterRule(Rule{}).ok()) << "empty id rejected";
}

TEST_F(CloudAgentTest, RulesForWatchAgentUsesSecondaryMap) {
  CloudService cloud(authority_, FastCloud());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("a1", "hpc")).ok());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("a2", "hpc")).ok());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("b1", "laptop")).ok());
  EXPECT_EQ(cloud.RuleCount(), 3u);
  EXPECT_EQ(cloud.RulesForWatchAgent("hpc").size(), 2u);
  EXPECT_EQ(cloud.RulesForWatchAgent("laptop").size(), 1u);
  EXPECT_TRUE(cloud.RulesForWatchAgent("ghost").empty());
  ASSERT_TRUE(cloud.RemoveRule("a1").ok());
  EXPECT_EQ(cloud.RulesForWatchAgent("hpc").size(), 1u);
  EXPECT_EQ(cloud.RulesForWatchAgent("hpc")[0].id, "a2");
}

TEST_F(CloudAgentTest, ReplacingARuleRehomesItsWatchAgentEntry) {
  CloudService cloud(authority_, FastCloud());
  Rule rule = EmailRule("mv", "hpc");
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  EXPECT_EQ(cloud.RulesForWatchAgent("hpc").size(), 1u);
  // Re-register under the same id with a different watch agent: the old
  // secondary-map entry must disappear, not dangle.
  rule.watch_agent = "laptop";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  EXPECT_EQ(cloud.RuleCount(), 1u);
  EXPECT_TRUE(cloud.RulesForWatchAgent("hpc").empty());
  ASSERT_EQ(cloud.RulesForWatchAgent("laptop").size(), 1u);
  EXPECT_EQ(cloud.RulesForWatchAgent("laptop")[0].id, "mv");
}

TEST_F(CloudAgentTest, TenantOverQuotaActionsParkOnDeadLetterQueue) {
  CloudConfig config = FastCloud();
  // Metering on, but refill is negligible over any real test duration:
  // virtual time tracks wall time at dilation 2000, so a visible rate
  // would quietly re-arm the bucket while the pump runs under load.
  config.tenant_action_rate = 1e-9;
  config.tenant_action_burst = 3.0;
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  Rule rule = EmailRule("storm", "hpc");
  rule.tenant = "noisy";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  for (int i = 0; i < 10; ++i) {
    agent->DeliverEvent(CreateEvent("/s" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  cloud.PumpUntilQuiet();
  const auto stats = cloud.Stats();
  // The burst lets 3 actions through; the rest are throttled to the DLQ.
  EXPECT_EQ(stats.actions_dispatched, 3u);
  EXPECT_EQ(stats.actions_throttled, 7u);
  EXPECT_EQ(stats.dead_letters, 7u);
  EXPECT_EQ(agent->DrainActions(), 3u);
  const auto dead = cloud.queue().DeadLetters();
  ASSERT_EQ(dead.size(), 7u);
  EXPECT_EQ(dead[0].lane, "noisy");
  EXPECT_NE(dead[0].body.find("\"tenant\""), std::string::npos);
}

TEST_F(CloudAgentTest, TenantQuotaRefillsInVirtualTime) {
  CloudConfig config = FastCloud();
  // The bucket refills off the continuously-advancing virtual clock, so
  // exact counts would race wall time (dilation 2000 ≈ 2 tokens per real
  // second at this rate). The assertions are therefore monotone: the
  // burst bounds the first wave from below, something must throttle, and
  // a deliberate virtual sleep long enough for >= burst worth of tokens
  // guarantees the next action dispatches.
  config.tenant_action_rate = 0.001;
  config.tenant_action_burst = 2.0;
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  Rule rule = EmailRule("drip", "hpc");
  rule.tenant = "t";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  for (int i = 0; i < 10; ++i) {
    agent->DeliverEvent(CreateEvent("/a" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  cloud.PumpUntilQuiet();
  const uint64_t dispatched_before = cloud.Stats().actions_dispatched;
  const uint64_t throttled_before = cloud.Stats().actions_throttled;
  EXPECT_GE(dispatched_before, 2u) << "burst admits at least its size";
  EXPECT_GE(throttled_before, 1u) << "the storm must overrun the bucket";
  EXPECT_EQ(dispatched_before + throttled_before, 10u);
  // 2000 virtual seconds at 0.001 tokens/s = the full burst, regardless
  // of how much incidental wall time also leaked in (capped at burst).
  authority_.SleepFor(Seconds(2000.0));
  agent->DeliverEvent(CreateEvent("/a-late.h5", 11));
  cloud.PumpUntilQuiet();
  EXPECT_EQ(cloud.Stats().actions_dispatched, dispatched_before + 1)
      << "refilled tokens admit the late action";
  EXPECT_EQ(cloud.Stats().actions_throttled, throttled_before);
}

TEST_F(CloudAgentTest, UntenantedRulesAreUnmeteredByDefault) {
  CloudService cloud(authority_, FastCloud());  // tenant_action_rate = 0
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("free", "hpc")).ok());
  for (int i = 0; i < 100; ++i) {
    agent->DeliverEvent(CreateEvent("/u" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  cloud.PumpUntilQuiet();
  EXPECT_EQ(cloud.Stats().actions_dispatched, 100u);
  EXPECT_EQ(cloud.Stats().actions_throttled, 0u);
}

TEST_F(CloudAgentTest, TenantRuleReportsRideTheTenantLane) {
  CloudConfig config = FastCloud();
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  Rule u1 = EmailRule("lane-u1", "hpc", "/t/u1/**");
  u1.tenant = "u1";
  Rule u2 = EmailRule("lane-u2", "hpc", "/t/u2/**");
  u2.tenant = "u2";
  ASSERT_TRUE(cloud.RegisterRule(u1).ok());
  ASSERT_TRUE(cloud.RegisterRule(u2).ok());
  // Each tenant's reports land on its own lane; distinct tenants =>
  // distinct lanes in the queue.
  agent->DeliverEvent(CreateEvent("/t/u1/a.h5", 1));
  EXPECT_EQ(cloud.queue().LaneCount(), 1u);
  agent->DeliverEvent(CreateEvent("/t/u2/b.h5", 2));
  EXPECT_EQ(cloud.queue().LaneCount(), 2u);
  cloud.PumpUntilQuiet();
  EXPECT_EQ(cloud.queue().LaneCount(), 0u);
  EXPECT_EQ(cloud.Stats().actions_dispatched, 2u);
}

}  // namespace
}  // namespace sdci::ripple
