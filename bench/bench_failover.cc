// Failover harness: what aggregator durability costs and what it buys.
//
// Part 1 compares pipeline throughput for a standalone aggregator against
// the supervised deployment (checkpoint WAL + durable ingest socket) with
// fault injection off — the steady-state price of crash-safety.
//
// Part 2 turns the crash injector on at increasing rates and drives the
// stream through a RecoveringSubscriber: every event still arrives exactly
// once, and the table shows how much healing (gaps detected, events
// backfilled) that took and what it did to delivered throughput.
//
// Part 3 takes one shard of a federated fleet hard-down (past any restart)
// and measures degraded-mode query availability: the fraction of federated
// fetches during the outage that still answer — as correctly-labeled
// partial pages — instead of failing. With `--json out.json` only part 3
// runs (the CI gate) and its metrics are written as a flat JSON object.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "monitor/aggregator.h"
#include "monitor/aggregator_supervisor.h"
#include "monitor/consumer.h"
#include "monitor/federation.h"
#include "monitor/fleet.h"
#include "monitor/shard_health.h"

namespace {

using namespace sdci;
using namespace sdci::bench;

monitor::FsEvent MakeEvent(uint64_t i) {
  monitor::FsEvent event;
  event.mdt_index = 0;
  event.record_index = i;
  event.type = lustre::ChangeLogType::kCreate;
  event.time = Micros(static_cast<int64_t>(i));
  event.path = "/bench/f" + std::to_string(i);
  event.name = strings::Format("f{}", i);
  return event;
}

constexpr size_t kBatch = 64;
constexpr size_t kDrainStride = 4096;  // drain the consumer every N sent

struct RunResult {
  double wall_s = 0;
  uint64_t crashes = 0;
  uint64_t gaps = 0;
  uint64_t backfilled = 0;
  uint64_t unrecoverable = 0;
};

void SendBatch(msgq::PubSocket& pub, uint64_t first, size_t count) {
  std::vector<monitor::FsEvent> events;
  events.reserve(count);
  for (size_t i = 0; i < count; ++i) events.push_back(MakeEvent(first + i));
  pub.Publish(msgq::Message("collect.mdt0", monitor::EncodeEventBatch(events)));
}

// Baseline: no supervisor, no checkpoint, plain subscriber.
RunResult RunStandalone(size_t total) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  msgq::Context context;
  monitor::AggregatorConfig config;
  config.store_capacity = 1u << 20;
  monitor::Aggregator aggregator(profile, authority, context, config);
  aggregator.Start();
  monitor::EventSubscriber sub(context, config.publish_endpoint, "fsevent.",
                               1u << 18, msgq::HwmPolicy::kBlock);
  auto pub = context.CreatePub(config.collect_endpoint);

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t sent = 0; sent < total; sent += kBatch) {
    SendBatch(*pub, sent + 1, kBatch);
    if ((sent + kBatch) % kDrainStride == 0) {
      while (sub.received() + kDrainStride / 2 < sent + kBatch) {
        if (!sub.NextBatchFor(std::chrono::seconds(5)).ok()) break;
      }
    }
  }
  while (sub.received() < total) {
    if (!sub.NextBatchFor(std::chrono::seconds(5)).ok()) break;
  }
  RunResult result;
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  aggregator.Stop();
  return result;
}

// Supervised deployment; crash_prob 0 isolates the durability overhead.
RunResult RunSupervised(size_t total, double crash_prob) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  msgq::Context context;
  monitor::AggregatorConfig config;
  config.store_capacity = 1u << 20;
  monitor::AggregatorSupervisorConfig sup_config;
  sup_config.check_interval = Seconds(1.0);
  sup_config.crash_prob_per_check = crash_prob;
  sup_config.fault_seed = 7;
  monitor::AggregatorSupervisor supervisor(profile, authority, context, config,
                                           sup_config);
  supervisor.Start();
  monitor::RecoveringSubscriberConfig rec_config;
  rec_config.start_seq = 1;
  rec_config.hwm = 1u << 18;
  rec_config.policy = msgq::HwmPolicy::kBlock;
  monitor::RecoveringSubscriber sub(context, config.publish_endpoint,
                                    config.api_endpoint, rec_config);
  auto pub = context.CreatePub(config.collect_endpoint);

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::seconds(120);
  for (uint64_t sent = 0; sent < total; sent += kBatch) {
    SendBatch(*pub, sent + 1, kBatch);
    if ((sent + kBatch) % kDrainStride == 0) {
      while (sub.next_expected() + kDrainStride / 2 < sent + kBatch) {
        if (!sub.NextBatchFor(std::chrono::seconds(5)).ok()) break;
      }
    }
  }
  // A gap at the stream's tail is only visible once later traffic arrives,
  // so heartbeat until the consumer has every sequence up to `total`.
  uint64_t heartbeat = total;
  while (sub.next_expected() <= total &&
         std::chrono::steady_clock::now() < deadline) {
    SendBatch(*pub, ++heartbeat, 1);
    (void)sub.NextBatchFor(std::chrono::milliseconds(50));
  }
  RunResult result;
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.crashes = supervisor.crashes();
  result.gaps = sub.gaps_detected();
  result.backfilled = sub.events_backfilled();
  result.unrecoverable = sub.events_unrecoverable();
  supervisor.Stop();
  return result;
}

bool PollFor(const std::function<bool()>& pred,
             std::chrono::seconds budget = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

struct FleetOutageResult {
  size_t queries = 0;
  size_t answered = 0;         // fetches that returned ok during the outage
  size_t labeled_partial = 0;  // answered pages naming exactly the dead shard
  double mean_fetch_ms = 0;
  bool recovered_full = false;  // post-recovery fetch with no partial marker
  [[nodiscard]] double Availability() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(answered) / static_cast<double>(queries);
  }
};

// One shard of a supervised fleet goes hard-down (outage outlasts every
// restart attempt) while traffic keeps flowing to the healthy shards and a
// federated client keeps querying. The breaker's down-signal skips the dead
// shard, so each fetch spends its budget only on shards that can answer.
FleetOutageResult RunFleetOutage(size_t shards, size_t queries) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  msgq::Context context;
  monitor::AggregatorFleetConfig config;
  config.shards = shards;
  config.shard.store_capacity = 1u << 18;
  config.supervised = true;
  config.supervisor.check_interval = Millis(5);
  monitor::AggregatorFleet fleet(profile, authority, context, config);
  fleet.Start();

  monitor::ShardHealthConfig health_config;
  health_config.failure_threshold = 2;
  health_config.open_cooldown = std::chrono::milliseconds(20);
  auto health =
      std::make_shared<monitor::ShardHealthTracker>(shards, health_config);
  for (size_t shard = 0; shard < shards; ++shard) {
    monitor::AggregatorSupervisor* sup = fleet.supervisor(shard);
    health->AttachDownSignal(shard, [sup] { return sup->InOutage(); });
  }
  monitor::FleetHistoryClient history(context, fleet.api_endpoints(), nullptr,
                                      nullptr, health);

  std::vector<std::shared_ptr<msgq::PubSocket>> pubs;
  for (size_t shard = 0; shard < shards; ++shard) {
    pubs.push_back(context.CreatePub(fleet.collect_endpoint(shard)));
  }
  uint64_t next_index = 1;
  const auto feed = [&](size_t per_shard) {
    for (size_t shard = 0; shard < shards; ++shard) {
      std::vector<monitor::FsEvent> events;
      events.reserve(per_shard);
      for (size_t i = 0; i < per_shard; ++i) {
        monitor::FsEvent event = MakeEvent(next_index + i);
        event.mdt_index = static_cast<uint32_t>(shard);
        events.push_back(std::move(event));
      }
      pubs[shard]->Publish(
          msgq::Message("collect.mdt" + std::to_string(shard),
                        monitor::EncodeEventBatch(events)));
    }
    next_index += per_shard;
  };
  constexpr VirtualTime kRangeEnd = Micros(1'000'000'000'000);

  feed(kBatch);
  PollFor([&] { return fleet.Stats().stored >= shards * kBatch; });

  constexpr size_t kDownShard = 1;
  fleet.supervisor(kDownShard)->BeginOutage();
  PollFor([&] { return !fleet.supervisor(kDownShard)->IsUp(); });

  FleetOutageResult result;
  result.queries = queries;
  double fetch_ms_total = 0;
  for (size_t q = 0; q < queries; ++q) {
    feed(8);  // healthy shards keep ingesting throughout the outage
    const auto start = std::chrono::steady_clock::now();
    auto page = history.FetchTimeRange(VirtualTime(0), kRangeEnd, 4096,
                                       std::chrono::milliseconds(250));
    fetch_ms_total += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (!page.ok()) continue;
    ++result.answered;
    if (page->partial && page->missing_shards.size() == 1 &&
        page->missing_shards[0] == kDownShard) {
      ++result.labeled_partial;
    }
  }
  result.mean_fetch_ms = queries == 0 ? 0.0 : fetch_ms_total / static_cast<double>(queries);

  // Recovery: restart at the next health check, breaker heals through its
  // probe, and the partial marker disappears.
  fleet.supervisor(kDownShard)->EndOutage();
  PollFor([&] { return fleet.supervisor(kDownShard)->IsUp(); });
  result.recovered_full = PollFor([&] {
    auto page = history.FetchTimeRange(VirtualTime(0), kRangeEnd, 4096,
                                       std::chrono::seconds(2));
    return page.ok() && !page->partial;
  });
  fleet.Stop();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_out = JsonOutPath(argc, argv);
  if (!json_out.empty()) {
    // CI gate mode: only the fleet-outage availability scenario runs.
    const FleetOutageResult outage = RunFleetOutage(4, 200);
    PrintTable("Failover part 3: degraded-mode federated query availability "
               "(1 of 4 shards hard-down)",
               {{"queries", "answered", "labeled partial", "availability",
                 "mean fetch ms", "recovered"},
                {std::to_string(outage.queries), std::to_string(outage.answered),
                 std::to_string(outage.labeled_partial),
                 F2(outage.Availability()), F2(outage.mean_fetch_ms),
                 outage.recovered_full ? "yes" : "NO"}});
    MetricSet metrics;
    metrics.Set("degraded_query_availability", outage.Availability());
    metrics.Set("degraded_labeled_partial_fraction",
                outage.answered == 0
                    ? 0.0
                    : static_cast<double>(outage.labeled_partial) /
                          static_cast<double>(outage.answered));
    metrics.Set("degraded_mean_fetch_ms", outage.mean_fetch_ms);
    metrics.Set("fleet_recovered_full", outage.recovered_full ? 1.0 : 0.0);
    WriteMetricsJson(json_out, metrics);
    return 0;
  }

  constexpr size_t kTotal = 100000;

  const RunResult standalone = RunStandalone(kTotal);
  const RunResult durable = RunSupervised(kTotal, 0.0);
  PrintTable("Failover part 1: the steady-state price of crash-safety (" +
                 std::to_string(kTotal) + " events)",
             {{"deployment", "wall s", "events/s", "overhead"},
              {"standalone (no checkpoint)", F2(standalone.wall_s),
               F0(static_cast<double>(kTotal) / standalone.wall_s), "-"},
              {"supervised (WAL + durable socket)", F2(durable.wall_s),
               F0(static_cast<double>(kTotal) / durable.wall_s),
               F1((durable.wall_s / standalone.wall_s - 1.0) * 100.0) + "%"}});

  constexpr size_t kChaosTotal = 50000;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"crash prob/check", "crashes", "gaps", "backfilled",
                  "unrecoverable", "wall s", "delivered ev/s"});
  for (const double prob : {0.05, 0.2, 0.5}) {
    const RunResult run = RunSupervised(kChaosTotal, prob);
    rows.push_back({F2(prob), std::to_string(run.crashes), std::to_string(run.gaps),
                    std::to_string(run.backfilled), std::to_string(run.unrecoverable),
                    F2(run.wall_s),
                    F0(static_cast<double>(kChaosTotal) / run.wall_s)});
  }
  PrintTable("Failover part 2: crash-looping the aggregator, RecoveringSubscriber consumer",
             rows);
  std::printf(
      "\nEvery row delivered all %zu sequences exactly once to the consumer;\n"
      "'backfilled' events were recovered from the checkpoint-restored\n"
      "history API after a crash tore them out of the live stream.\n",
      kChaosTotal);

  const FleetOutageResult outage = RunFleetOutage(4, 200);
  PrintTable("Failover part 3: degraded-mode federated query availability "
             "(1 of 4 shards hard-down)",
             {{"queries", "answered", "labeled partial", "availability",
               "mean fetch ms", "recovered"},
              {std::to_string(outage.queries), std::to_string(outage.answered),
               std::to_string(outage.labeled_partial), F2(outage.Availability()),
               F2(outage.mean_fetch_ms), outage.recovered_full ? "yes" : "NO"}});
  std::printf(
      "\n'labeled partial' pages name the dead shard in missing_shards —\n"
      "the merge is a correctly-labeled subset, never silently short.\n");
  return 0;
}
