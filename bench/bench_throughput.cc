// Reproduces the Section 5.2 "Event Throughput" experiment.
//
// The event generator loads the file system with the combined workload
// while the monitor extracts records from the ChangeLog, resolves paths
// (per-event fid2path — the deployed configuration), and reports events
// to a listening consumer. Reported numbers:
//   - generation rate (events/s journaled),
//   - monitor throughput during the loaded window (events/s delivered),
//   - the per-stage pipeline breakdown showing the processing stage is
//     the bottleneck,
//   - the no-loss check: after the backlog drains, every extracted event
//     was delivered.
//
// Paper: AWS 1053 of 1366 generated (77.1%); Iota 8162 of 9593 (-14.91%).
#include <cstdio>

#include "bench_util.h"
#include "monitor/consumer.h"
#include "monitor/monitor.h"
#include "workload/generator.h"

namespace sdci::bench {
namespace {

struct ThroughputResult {
  double generated_rate = 0;
  double monitor_rate = 0;
  double fraction = 0;
  uint64_t generated = 0;
  uint64_t delivered_during_window = 0;
  uint64_t extracted_total = 0;
  uint64_t delivered_total = 0;
  double fid2path_share = 0;  // fraction of collector busy time
  std::string detect_p50;
  std::string detect_p99;
  std::string deliver_p99;
};

ThroughputResult RunOne(const lustre::TestbedProfile& profile,
                        VirtualDuration window) {
  Env env(profile);
  msgq::Context context;

  monitor::MonitorConfig config;
  config.collector.resolve_mode = monitor::ResolveMode::kPerEvent;
  config.collector.poll_interval = Millis(20);
  monitor::Monitor mon(env.fs, profile, env.authority, context, config);
  monitor::EventSubscriber consumer(context, config.aggregator.publish_endpoint,
                                    "fsevent.", 1u << 20, msgq::HwmPolicy::kBlock);
  mon.Start();

  // Let the monitor absorb the staging burst before the window opens, and
  // take baseline counters so only window events are measured.
  uint64_t published_baseline = 0;
  uint64_t extracted_baseline = 0;
  workload::GeneratorConfig gen_config;
  gen_config.before_window = [&] {
    for (int i = 0; i < 400; ++i) {
      env.authority.SleepFor(Millis(50));
      const auto stats = mon.Stats();
      uint64_t appended = 0;
      for (size_t m = 0; m < env.fs.MdsCount(); ++m) {
        appended += env.fs.Mds(m).changelog().TotalAppended();
      }
      if (stats.aggregator.published == appended) break;
    }
    const auto stats = mon.Stats();
    published_baseline = stats.aggregator.published;
    extracted_baseline = stats.total_extracted;
  };
  workload::EventGenerator gen(env.fs, profile, env.authority, gen_config);
  (void)gen.Prepare();
  const auto report = gen.RunMixedFor(window);

  // Snapshot delivery at the moment generation stops.
  const uint64_t delivered_at_window =
      mon.Stats().aggregator.published - published_baseline;

  // Let the monitor drain its backlog, then verify no loss.
  for (int i = 0; i < 400; ++i) {
    env.authority.SleepFor(Millis(50));
    const auto stats = mon.Stats();
    if (stats.total_extracted == stats.aggregator.published &&
        stats.total_extracted - extracted_baseline >= report.events) {
      break;
    }
  }
  mon.Stop();

  const auto stats = mon.Stats();
  ThroughputResult result;
  result.generated = report.events;
  result.generated_rate = report.events_per_second;
  result.delivered_during_window = delivered_at_window;
  result.monitor_rate = RatePerSecond(delivered_at_window, report.elapsed);
  result.fraction =
      result.generated_rate <= 0 ? 0 : result.monitor_rate / result.generated_rate;
  result.extracted_total = stats.total_extracted - extracted_baseline;
  result.delivered_total = stats.aggregator.published - published_baseline;
  // Processing share: fid2path calls x per-call latency vs collector busy.
  uint64_t fid2path_calls = 0;
  for (const auto& c : stats.collectors) fid2path_calls += c.fid2path_calls;
  const double resolve_time =
      static_cast<double>(fid2path_calls) * ToSecondsF(profile.fid2path_latency);
  const double read_time = static_cast<double>(stats.total_extracted) *
                           ToSecondsF(profile.changelog_read_per_record);
  const double publish_time =
      static_cast<double>(stats.total_reported) / 16.0 *
      ToSecondsF(profile.collector_publish_latency);
  const double total_stage = resolve_time + read_time + publish_time;
  result.fid2path_share = total_stage <= 0 ? 0 : resolve_time / total_stage;
  const auto& detect = mon.collector(0).detection_latency();
  result.detect_p50 = FormatDuration(detect.Quantile(0.5));
  result.detect_p99 = FormatDuration(detect.Quantile(0.99));
  result.deliver_p99 = FormatDuration(mon.aggregator().delivery_latency().Quantile(0.99));
  return result;
}

// Saturated drain rate with N resolver workers (AWS profile, per-event
// fid2path — the configuration where resolution dominates and the
// pipelined collector's concurrency pays off).
double DrainRateWithWorkers(size_t workers) {
  const auto profile = lustre::TestbedProfile::Aws();
  Env env(profile);
  const uint64_t backlog = BuildBacklog(env.fs, 24, 100);
  msgq::Context context;
  monitor::MonitorConfig config;
  config.collector.resolve_mode = monitor::ResolveMode::kPerEvent;
  config.collector.resolver_workers = workers;
  config.collector.poll_interval = Millis(20);
  monitor::Monitor mon(env.fs, profile, env.authority, context, config);
  const VirtualTime start = env.authority.Now();
  mon.Start();
  while (mon.Stats().aggregator.published < backlog) {
    env.authority.SleepFor(Millis(10));
  }
  const double rate = RatePerSecond(backlog, env.authority.Now() - start);
  mon.Stop();
  return rate;
}

// Multi-collector fan-in drain rate (AWS profile, `collectors` MDSes each
// drained by its own collector running batched resolution with a 4-worker
// resolver pool — fast enough that the aggregator's serial 35us/event
// ingest becomes the bottleneck at >1 collector). Each shard's receive
// thread binds, sequences and group-commits inline. `shards` > 1
// federates the aggregator into a fleet (collectors route by
// mdt % shards).
double FanInDrainRate(size_t collectors, size_t shards = 1) {
  auto profile = lustre::TestbedProfile::Aws();
  profile.mds_count = static_cast<uint32_t>(collectors);
  // A modeled decode-bound regime: 35us of ingest per event (the cost of
  // the field-wise decode the flat wire replaced) instead of the shipped
  // 6us bind-and-stamp, so one shard's receive thread is the ceiling
  // under fan-in and the fleet sweep below measures how far sharding
  // lifts it.
  profile.aggregator_ingest_latency = Micros(35);
  // Low dilation: real scheduler noise enters virtual time multiplied by
  // the dilation factor, and the 35us/event modeled ingest under test is
  // an order of magnitude smaller than the ops the default dilation is
  // tuned for (715us fid2path).
  TimeAuthority authority(Env::DilationFromEnv(2.0));
  // Spread directories over every MDS (DNE round-robin placement), so each
  // collector actually has a share of the backlog to feed in.
  lustre::FileSystemConfig fs_config = lustre::FileSystemConfig::FromProfile(profile);
  fs_config.dir_placement = lustre::DirPlacement::kRoundRobin;
  lustre::FileSystem fs(fs_config, authority);
  const uint64_t backlog = BuildBacklog(fs, 24, 100);
  msgq::Context context;
  monitor::MonitorConfig config;
  config.collector.resolve_mode = monitor::ResolveMode::kBatched;
  config.collector.resolver_workers = 4;
  config.collector.poll_interval = Millis(20);
  config.aggregator.wal_group_max = 16;
  config.aggregator_shards = shards;
  monitor::Monitor mon(fs, profile, authority, context, config);
  mon.Start();
  // Measure steady-state drain: start the clock only after 10% of the
  // backlog has been published, so thread spin-up and first-poll latency
  // don't dilute the rate.
  const uint64_t warmup = backlog / 10;
  while (mon.Stats().aggregator.published < warmup) {
    authority.SleepFor(Millis(5));
  }
  const uint64_t published_at_start = mon.Stats().aggregator.published;
  const VirtualTime start = authority.Now();
  while (mon.Stats().aggregator.published < backlog) {
    authority.SleepFor(Millis(5));
  }
  const double rate =
      RatePerSecond(backlog - published_at_start, authority.Now() - start);
  mon.Stop();
  return rate;
}

}  // namespace
}  // namespace sdci::bench

int main(int argc, char** argv) {
  using namespace sdci;
  using namespace sdci::bench;

  const std::string json_out = JsonOutPath(argc, argv);
  const auto aws = RunOne(lustre::TestbedProfile::Aws(), Seconds(5.0));
  const auto iota = RunOne(lustre::TestbedProfile::Iota(), Seconds(5.0));

  PrintTable(
      "Section 5.2: Event throughput (per-event fid2path, 1 MDS)",
      {{"testbed", "generated ev/s", "monitor ev/s", "fraction", "paper"},
       {"AWS", F0(aws.generated_rate), F0(aws.monitor_rate),
        F2(aws.fraction * 100) + "%", "1053/1366 = 77.1%"},
       {"Iota", F0(iota.generated_rate), F0(iota.monitor_rate),
        F2(iota.fraction * 100) + "%", "8162/9593 = 85.1%"}});

  PrintTable(
      "Pipeline breakdown and loss check",
      {{"testbed", "extracted", "delivered", "lost", "fid2path share of stage cost"},
       {"AWS", std::to_string(aws.extracted_total), std::to_string(aws.delivered_total),
        std::to_string(aws.extracted_total - aws.delivered_total),
        F1(aws.fid2path_share * 100) + "%"},
       {"Iota", std::to_string(iota.extracted_total),
        std::to_string(iota.delivered_total),
        std::to_string(iota.extracted_total - iota.delivered_total),
        F1(iota.fid2path_share * 100) + "%"}});

  PrintTable("Event latency through the saturated pipeline (virtual time)",
             {{"testbed", "detect p50", "detect p99", "deliver p99"},
              {"AWS", aws.detect_p50, aws.detect_p99, aws.deliver_p99},
              {"Iota", iota.detect_p50, iota.detect_p99, iota.deliver_p99}});

  std::printf(
      "\nShape: monitor trails generation (bottleneck = per-event path\n"
      "resolution), gap larger on AWS; zero events lost once processed;\n"
      "latencies grow with the backlog (the pipeline runs saturated).\n");

  // Resolver worker sweep: the pipelined collector overlaps fid2path
  // latency across workers while the publisher re-sequences, so drain
  // throughput should scale until the serial read stage dominates.
  const std::vector<size_t> worker_counts{1, 2, 4, 8};
  std::vector<double> sweep_rates;
  for (const size_t workers : worker_counts) {
    sweep_rates.push_back(DrainRateWithWorkers(workers));
  }
  std::vector<std::vector<std::string>> sweep_rows;
  sweep_rows.push_back({"resolver workers", "drain ev/s", "speedup vs 1"});
  for (size_t i = 0; i < worker_counts.size(); ++i) {
    sweep_rows.push_back({std::to_string(worker_counts[i]), F0(sweep_rates[i]),
                          F2(sweep_rates[i] / sweep_rates[0]) + "x"});
  }
  PrintTable("Resolver worker sweep (AWS, per-event fid2path, saturated drain)",
             sweep_rows);
  std::printf(
      "\nShape: near-linear scaling at low worker counts (resolution is the\n"
      "bottleneck), flattening as the serial ChangeLog read stage and the\n"
      "in-order publisher become the limit.\n");

  // Aggregator fan-in sweep: N collectors feed one aggregator, whose
  // single receive thread saturates at ~1/aggregator_ingest_latency
  // events/s no matter the fan-in. FanInDrainRate models the decode-bound
  // regime (35us/event ingest) for this sweep and the fleet sweep below.
  const std::vector<size_t> fanin_counts{1, 2, 4, 8};
  std::vector<double> fanin_rates;
  for (const size_t collectors : fanin_counts) {
    fanin_rates.push_back(FanInDrainRate(collectors));
  }
  std::vector<std::vector<std::string>> fanin_rows;
  fanin_rows.push_back({"collectors", "drain ev/s"});
  for (size_t c = 0; c < fanin_counts.size(); ++c) {
    fanin_rows.push_back({std::to_string(fanin_counts[c]), F0(fanin_rates[c])});
  }
  PrintTable(
      "Aggregator fan-in sweep (AWS, batched resolve, 35us/event ingest, saturated drain)",
      fanin_rows);
  std::printf(
      "\nShape: at 1 collector the aggregator keeps up; from 2 collectors\n"
      "its receive thread is the ceiling.\n");

  // Fleet sweep: the same 8-collector feed against one aggregator vs a
  // 4-shard fleet. Collectors route by mdt % shards, so each shard runs
  // its own receive thread, WAL and store. fleet_speedup_4_shards prices
  // the modeled 35us/event decode regime above, not the shipped 6us
  // profile, under which one shard's ingest is far from saturated.
  const double fleet_1_shard = fanin_rates[3];
  const double fleet_4_shards = FanInDrainRate(8, 4);
  const double fleet_speedup = fleet_4_shards / fleet_1_shard;
  PrintTable(
      "Aggregator fleet at 8-collector fan-in (35us/event ingest)",
      {{"shards", "drain ev/s", "speedup"},
       {"1", F0(fleet_1_shard), "1.00x"},
       {"4", F0(fleet_4_shards), F2(fleet_speedup) + "x"}});
  std::printf(
      "\nShape: one aggregator serializes all 8 collectors through a single\n"
      "receive thread; 4 shards split the fan-in so sequencing, WAL commits\n"
      "and store appends run in parallel across the fleet (speedup: %.2fx).\n",
      fleet_speedup);

  MetricSet metrics;
  // The 8-collector, 1-shard drain is the fleet sweep's baseline too; it
  // is emitted once, as fanin_8c_workers_1_drain_rate (the key keeps its
  // historical name).
  metrics.Set("fleet_8c_4_shards_drain_rate", fleet_4_shards);
  metrics.Set("fleet_speedup_4_shards", fleet_speedup);
  for (size_t c = 0; c < fanin_counts.size(); ++c) {
    metrics.Set("fanin_" + std::to_string(fanin_counts[c]) + "c_workers_1_drain_rate",
                fanin_rates[c]);
  }
  for (size_t i = 0; i < worker_counts.size(); ++i) {
    metrics.Set("workers_" + std::to_string(worker_counts[i]) + "_drain_rate",
                sweep_rates[i]);
  }
  metrics.Set("speedup_4_workers", sweep_rates[2] / sweep_rates[0]);
  metrics.Set("aws_generated_rate", aws.generated_rate);
  metrics.Set("aws_monitor_rate", aws.monitor_rate);
  metrics.Set("aws_fraction", aws.fraction);
  metrics.Set("aws_lost",
              static_cast<double>(aws.extracted_total - aws.delivered_total));
  metrics.Set("iota_generated_rate", iota.generated_rate);
  metrics.Set("iota_monitor_rate", iota.monitor_rate);
  metrics.Set("iota_fraction", iota.fraction);
  metrics.Set("iota_lost",
              static_cast<double>(iota.extracted_total - iota.delivered_total));
  WriteMetricsJson(json_out, metrics);
  return 0;
}
