// bench_e2e: one end-to-end benchmark of the shipped stack.
//
// Drives changelog → collector → aggregator fleet → FleetSubscriber →
// Ripple agent → cloud queue → local_command action through public APIs
// only. Every output is checked against an oracle the generator knows by
// construction (which records exist, which creates match a rule), and the
// run prints its metrics as `name value unit` lines followed by one JSON
// result line. With --trace 1 the same workload runs with the program's
// tracer, flow ledger and watermarks attached, and the last line carries
// the per-layer table instead. README.md explains the workloads and which
// end-to-end metric each layer metric should move.
//
//   bench_e2e --workload stream --seed 1 --seconds 10 --trace 0
//             [--json out.json] [--trace-dir dir]

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/tracing.h"
#include "harness.h"
#include "lustre/filesystem.h"
#include "lustre/profile.h"
#include "monitor/federation.h"
#include "monitor/flow_ledger.h"
#include "monitor/monitor.h"
#include "monitor/watermarks.h"
#include "monitor/wire_v4.h"
#include "msgq/context.h"
#include "ripple/actions.h"
#include "ripple/agent.h"
#include "ripple/cloud.h"
#include "ripple/rule.h"

namespace sdci::bench_e2e {
namespace {

constexpr size_t kRules = 1000;         // installed tenant rules
constexpr double kMatchFrac = 0.1;      // share of creates that fire a rule
constexpr size_t kModifyRecent = 4096;  // modifies target the newest files
constexpr int64_t kMs = 1000000;        // ns per ms
constexpr int64_t kQueryWindowNs = 100 * kMs;
constexpr size_t kQueryMaxPerShard = 1024;
constexpr size_t kSpanEvery = 100;  // bench spans: one request in 100
constexpr double kTraceSampleRate = 0.01;
constexpr int64_t kMaxRunMs = 240000;  // per-ms event counts cover this
constexpr auto kQuiesceTimeout = std::chrono::seconds(60);

// Bench span trace ids sit above anything the program's tracer issues;
// spans of one request share its generator sequence, query or update id.
constexpr uint64_t kGenTrace = 1ull << 62;
constexpr uint64_t kQueryTrace = 1ull << 61;
constexpr uint64_t kUpdateTrace = 1ull << 60;

enum ExitCode { kExitOk = 0, kExitViolation = 1, kExitUsage = 2, kExitGeneratorLimited = 3 };

int64_t NowNs(const TimeAuthority& authority) { return authority.Now().count(); }

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  std::string name;
  lustre::TestbedProfile profile;
  size_t shards = 1;
  bool backlog = false;      // staged before Start (catchup) instead of open loop
  size_t backlog_files = 0;  // per directory
  double rate = 0;           // open loop: operations per second
  double create_frac = 1.0;
  double modify_frac = 0.0;  // the rest are unlinks
  size_t dirs = 0;
  size_t burst = 1;  // creates per sibling burst; 1 = the next directory each time
  size_t pool = 0;   // files staged for the first modifies and unlinks
  bool query_client = false;  // closed-loop history reader during the window
  double update_rate = 0;     // rule register+remove pairs per second in the window
};

std::optional<Spec> SpecFor(const std::string& name) {
  Spec s;
  s.name = name;
  s.profile = lustre::TestbedProfile::Iota();
  if (name == "catchup") {
    s.profile.mds_count = 8;
    s.shards = 4;
    s.backlog = true;
    s.dirs = 256;
    s.backlog_files = 200;
    return s;
  }
  if (name == "stream" || name == "churn") {
    s.rate = name == "stream" ? 20000 : 10000;
    s.create_frac = 0.7;
    s.modify_frac = 0.2;
    s.dirs = 256;
    s.burst = 16;
    s.pool = 8192;
    if (name == "churn") s.update_rate = 10;
    return s;
  }
  if (name == "history") {
    s.shards = 2;
    s.rate = 8000;
    s.dirs = 4096;
    s.query_client = true;
    return s;
  }
  return std::nullopt;
}

// Run-length knobs, all derived from --seconds so both commits of a
// comparison run identical schedules.
struct Timing {
  Timing(double s, bool traced)
      : seconds(s),
        warmup(std::clamp(0.3 * s, 0.5, 3.0)),
        setups(s >= 5 ? 5 : 1),
        catchup_reps(s >= 5 ? 5 : 1),
        probes(traced ? static_cast<size_t>(std::max(10.0, 10 * s)) : 10) {}

  double seconds;
  double warmup;        // open loop: staging drains before the window opens
  size_t setups;        // open loop: deployments built to time set-up
  size_t catchup_reps;  // fresh deployments drained per catchup run
  // History reads and rule register+remove pairs after the window, where
  // none ran in it. Untraced runs make only enough to check the outputs.
  size_t probes;
};

enum class OpKind : uint8_t { kCreate, kModify, kUnlink };

struct Op {
  OpKind kind = OpKind::kCreate;
  bool matched = false;  // creates only: exactly one rule fires
  uint32_t file = 0;     // index into Plan::paths
};

// The generated inputs, all from --seed. The create that is op i makes the
// file "<m|f>_<i>", so the tail and the executor can tell which op an event
// belongs to; rules match exactly the "m_" files.
struct Plan {
  std::vector<std::string> dirs;   // made at staging, in order
  std::vector<std::string> paths;  // staged pool files first, then creates
  size_t pool = 0;
  std::vector<Op> ops;
  size_t matched = 0;
  double rate = 0;  // ops per second; 0 = a backlog staged before Start
};

std::string DirPath(size_t d) { return "/bench/d" + std::to_string(d); }

Plan BuildPlan(const Spec& spec, uint64_t seed, const Timing& timing) {
  Rng rng(seed);
  Plan plan;
  plan.rate = spec.backlog ? 0 : spec.rate;
  for (size_t d = 0; d < spec.dirs; ++d) plan.dirs.push_back(DirPath(d));
  for (size_t n = 0; n < spec.pool; ++n) {
    plan.paths.push_back(DirPath(n % spec.dirs) + "/s_" + std::to_string(n));
  }
  plan.pool = spec.pool;
  // Rules watch /bench/d0 … /bench/d999, so only creates there can match;
  // the odds are scaled so that kMatchFrac of all creates match.
  const double match_p = kMatchFrac * static_cast<double>(spec.dirs) /
                         static_cast<double>(std::min(spec.dirs, kRules));
  size_t creates = 0;
  const auto add_create = [&](size_t dir) {
    const size_t i = plan.ops.size();
    const bool matched = dir < kRules && rng.NextBool(match_p);
    plan.paths.push_back(DirPath(dir) + (matched ? "/m_" : "/f_") + std::to_string(i));
    plan.ops.push_back({OpKind::kCreate, matched, static_cast<uint32_t>(plan.paths.size() - 1)});
    ++creates;
    if (matched) ++plan.matched;
  };

  if (spec.backlog) {
    // Each file created and written once: CREAT + MTIME per file.
    for (size_t d = 0; d < spec.dirs; ++d) {
      for (size_t f = 0; f < spec.backlog_files; ++f) {
        add_create(d);
        plan.ops.push_back({OpKind::kModify, false, plan.ops.back().file});
      }
    }
    return plan;
  }

  const auto total = static_cast<size_t>(spec.rate * (timing.warmup + timing.seconds));
  plan.ops.reserve(total);
  size_t head = 0;  // oldest live file; unlinks take it (FIFO)
  size_t burst_left = 0;
  size_t burst_dir = 0;
  while (plan.ops.size() < total) {
    const double roll = rng.NextDouble();
    // Modifies pick among the newest kModifyRecent files and unlinks take
    // the oldest, so no op touches a file an earlier op removed.
    const bool can_touch = plan.paths.size() - head > 2 * kModifyRecent;
    if (roll < spec.create_frac || !can_touch) {
      if (spec.burst <= 1) {
        add_create(creates % spec.dirs);
        continue;
      }
      if (burst_left == 0) {
        burst_dir = rng.NextBelow(spec.dirs);
        burst_left = spec.burst;
      }
      --burst_left;
      add_create(burst_dir);
    } else if (roll < spec.create_frac + spec.modify_frac) {
      const size_t file = plan.paths.size() - 1 - rng.NextBelow(kModifyRecent);
      plan.ops.push_back({OpKind::kModify, false, static_cast<uint32_t>(file)});
    } else {
      plan.ops.push_back({OpKind::kUnlink, false, static_cast<uint32_t>(head++)});
    }
  }
  return plan;
}

Status ApplyOp(lustre::FileSystem& fs, const Plan& plan, size_t i) {
  const Op& op = plan.ops[i];
  const std::string& path = plan.paths[op.file];
  switch (op.kind) {
    case OpKind::kCreate:
      return fs.Create(path).status();
    case OpKind::kModify:
      return fs.WriteFile(path, 4096 + i % 4096);
    case OpKind::kUnlink:
      return fs.Unlink(path);
  }
  return OkStatus();
}

// "m_123" / "f_123" → 123; nullopt for anything else (staged "s_" files).
std::optional<size_t> OpIndexOf(std::string_view name) {
  if (name.size() < 3 || name[1] != '_' || (name[0] != 'm' && name[0] != 'f')) {
    return std::nullopt;
  }
  size_t i = 0;
  for (const char c : name.substr(2)) {
    if (c < '0' || c > '9') return std::nullopt;
    i = i * 10 + static_cast<size_t>(c - '0');
  }
  return i;
}

std::string RuleJson(const std::string& id, const std::string& tenant,
                     const std::string& path_glob) {
  return R"({"id": ")" + id + R"(", "tenant": ")" + tenant +
         R"(", "trigger": {"events": ["created"], "path": ")" + path_glob +
         R"("}, "action": {"type": "local_command", "agent": "site",)" +
         R"( "params": {"command": "process {path}"}}})";
}

// ---------------------------------------------------------------------------
// Oracle: what the outputs must be, and what they were.

class Oracle {
 public:
  Oracle(const Plan& plan, size_t shards, size_t mdts)
      : plan_(&plan),
        shards_(shards),
        receipt_ns_(plan.ops.size(), 0),
        action_ns_(plan.ops.size()),
        next_seq_(shards, 1),
        next_record_(mdts, 1),
        frontier_ns_(shards) {
    for (size_t s = 0; s < shards; ++s) {
      ms_counts_.push_back(std::make_unique<std::vector<std::atomic<uint32_t>>>(kMaxRunMs));
    }
  }

  // Due time of op i: its open-loop slot, or Start for a backlog.
  void SetSchedule(int64_t t0_ns) { t0_ns_ = t0_ns; }
  [[nodiscard]] int64_t DueNs(size_t i) const {
    if (plan_->rate <= 0) return t0_ns_;
    return t0_ns_ + static_cast<int64_t>(static_cast<double>(i) * 1e9 / plan_->rate);
  }

  // Tail thread only. Checks shard routing, dense per-shard global_seq (no
  // loss, no duplicate) and dense per-MDT record order. Returns the op
  // index when the event is a generated create.
  std::optional<size_t> OnEvent(uint32_t origin, int mdt, uint64_t record, uint64_t seq,
                                lustre::ChangeLogType type, int64_t time_ns,
                                std::string_view name, int64_t now_ns) {
    std::optional<size_t> op;
    if (origin >= shards_ || mdt < 0 || static_cast<size_t>(mdt) >= next_record_.size() ||
        static_cast<size_t>(mdt) % shards_ != origin) {
      Violation("event from the wrong shard");
    } else {
      if (seq != next_seq_[origin]) {
        Violation(seq < next_seq_[origin] ? "duplicate global_seq" : "gap in global_seq");
      }
      next_seq_[origin] = std::max(next_seq_[origin], seq + 1);
      if (record != next_record_[mdt]) Violation("MDT record order broken");
      next_record_[mdt] = std::max(next_record_[mdt], record + 1);
      if (time_ns >= 0 && time_ns / kMs < kMaxRunMs) {
        (*ms_counts_[origin])[time_ns / kMs].fetch_add(1, std::memory_order_relaxed);
      }
      int64_t seen = frontier_ns_[origin].load(std::memory_order_relaxed);
      while (time_ns > seen && !frontier_ns_[origin].compare_exchange_weak(seen, time_ns)) {
      }
    }
    if (type == lustre::ChangeLogType::kCreate) {
      op = OpIndexOf(name);
      if (op.has_value() && *op < receipt_ns_.size()) {
        if (receipt_ns_[*op] != 0) Violation("create delivered twice");
        receipt_ns_[*op] = now_ns;
      }
    }
    last_receipt_ns_.store(now_ns, std::memory_order_relaxed);
    received_.fetch_add(1, std::memory_order_release);
    return op;
  }

  // Executor callback (the agent's action thread).
  void OnAction(std::string_view name, int64_t now_ns) {
    const auto i = OpIndexOf(name);
    if (!i.has_value() || *i >= plan_->ops.size() || !plan_->ops[*i].matched) {
      Violation("action for an event no rule matches");
      return;
    }
    if (action_ns_[*i].exchange(now_ns) != 0) {
      Violation("action executed twice");
      return;
    }
    int64_t last = last_action_ns_.load(std::memory_order_relaxed);
    while (now_ns > last && !last_action_ns_.compare_exchange_weak(last, now_ns)) {
    }
    actions_.fetch_add(1, std::memory_order_release);
  }

  // After quiesce, with the tail stopped: every record delivered, every
  // generated create seen, every expected action run.
  void CheckComplete(uint64_t records_appended) {
    if (received() != records_appended) {
      Violation("tail holds " + std::to_string(received()) + " of " +
                std::to_string(records_appended) + " records");
    }
    for (size_t i = 0; i < plan_->ops.size(); ++i) {
      const Op& op = plan_->ops[i];
      if (op.kind == OpKind::kCreate && receipt_ns_[i] == 0) Violation("create never delivered");
      if (op.matched && action_ns_[i].load() == 0) Violation("expected action never ran");
    }
  }

  // Events the tail saw on `shard` with birth time in [from, to); both
  // bounds must be whole milliseconds.
  [[nodiscard]] uint64_t CountInWindow(size_t shard, int64_t from_ns, int64_t to_ns) const {
    uint64_t n = 0;
    for (int64_t ms = from_ns / kMs; ms < to_ns / kMs && ms < kMaxRunMs; ++ms) {
      n += (*ms_counts_[shard])[ms].load(std::memory_order_relaxed);
    }
    return n;
  }
  [[nodiscard]] int64_t Frontier(size_t shard) const {
    return frontier_ns_[shard].load(std::memory_order_relaxed);
  }

  void Violation(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++violations_;
    if (reasons_[what]++ == 0) std::fprintf(stderr, "bench_e2e: violation: %s\n", what.c_str());
  }

  [[nodiscard]] uint64_t received() const { return received_.load(std::memory_order_acquire); }
  [[nodiscard]] uint64_t actions() const { return actions_.load(std::memory_order_acquire); }
  [[nodiscard]] int64_t last_receipt_ns() const { return last_receipt_ns_.load(); }
  [[nodiscard]] int64_t last_action_ns() const { return last_action_ns_.load(); }
  // Read only after the tail has stopped.
  [[nodiscard]] int64_t receipt_ns(size_t i) const { return receipt_ns_[i]; }
  [[nodiscard]] int64_t action_ns(size_t i) const { return action_ns_[i].load(); }
  [[nodiscard]] uint64_t violations() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return violations_;
  }

 private:
  const Plan* plan_;
  const size_t shards_;
  int64_t t0_ns_ = 0;
  std::vector<int64_t> receipt_ns_;  // tail thread
  std::vector<std::atomic<int64_t>> action_ns_;
  std::vector<uint64_t> next_seq_;     // tail thread
  std::vector<uint64_t> next_record_;  // tail thread
  std::vector<std::unique_ptr<std::vector<std::atomic<uint32_t>>>> ms_counts_;
  std::vector<std::atomic<int64_t>> frontier_ns_;
  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> actions_{0};
  std::atomic<int64_t> last_receipt_ns_{0};
  std::atomic<int64_t> last_action_ns_{0};
  mutable std::mutex mutex_;
  uint64_t violations_ = 0;
  std::map<std::string, uint64_t> reasons_;
};

// ---------------------------------------------------------------------------
// Deployment

// The program's own observability hooks, attached only with --trace 1.
struct Instruments {
  explicit Instruments(uint64_t seed)
      : registry(std::make_shared<MetricsRegistry>()),
        sink(std::make_shared<trace::TraceCollector>()),
        tracer(std::make_shared<trace::Tracer>(sink, kTraceSampleRate, seed)),
        flow(std::make_shared<FlowLedger>()),
        watermarks(std::make_shared<WatermarkRegistry>()) {}

  std::shared_ptr<MetricsRegistry> registry;
  std::shared_ptr<trace::TraceCollector> sink;
  std::shared_ptr<trace::Tracer> tracer;
  std::shared_ptr<FlowLedger> flow;
  std::shared_ptr<WatermarkRegistry> watermarks;
};

lustre::FileSystemConfig FsConfig(const Spec& spec) {
  auto config = lustre::FileSystemConfig::FromProfile(spec.profile);
  config.dir_placement = lustre::DirPlacement::kRoundRobin;
  return config;
}

// One deployment of the whole stack with shipped defaults: file system,
// monitor (collectors + aggregator fleet), cloud, agent, and the bench's
// tail subscriber. Consumers read losslessly (start_seq 1, kBlock).
class Deployment {
 public:
  Deployment(const Spec& spec, const TimeAuthority& authority, Oracle& oracle,
             Instruments* instruments)
      : spec_(spec), authority_(authority), instruments_(instruments),
        fs_(FsConfig(spec), authority) {
    monitor::MonitorConfig config;
    config.aggregator_shards = spec.shards;
    ripple::CloudConfig cloud_config;
    ripple::AgentConfig agent_config;
    agent_config.name = "site";
    monitor::RecoveringSubscriberConfig sub_config;
    sub_config.start_seq = 1;
    sub_config.policy = msgq::HwmPolicy::kBlock;
    if (instruments != nullptr) {
      config.SetMetrics(instruments->registry);
      config.SetTracer(instruments->tracer);
      config.SetFlowLedger(instruments->flow);
      config.SetWatermarks(instruments->watermarks);
      cloud_config.metrics = instruments->registry;
      cloud_config.flow = instruments->flow;
      agent_config.metrics = instruments->registry;
      agent_config.tracer = instruments->tracer;
      agent_config.flow = instruments->flow;
      agent_config.watermarks = instruments->watermarks;
      sub_config.metrics = instruments->registry;
      sub_config.flow = instruments->flow;
      sub_config.watermarks = instruments->watermarks;
    }
    monitor_ = std::make_unique<monitor::Monitor>(fs_, spec.profile, authority, context_, config);
    cloud_ = std::make_unique<ripple::CloudService>(authority, cloud_config);
    endpoints_.Register("site", fs_);
    agent_ = std::make_unique<ripple::Agent>(agent_config, fs_, *cloud_, endpoints_, authority);
    const auto& fleet = monitor_->fleet();
    sub_config.name = "site";
    agent_->AttachSource(std::make_unique<monitor::FleetSubscriber>(
        context_, fleet.publish_endpoints(), fleet.api_endpoints(), sub_config));
    sub_config.name = "tail";
    tail_ = std::make_unique<monitor::FleetSubscriber>(
        context_, fleet.publish_endpoints(), fleet.api_endpoints(), sub_config);
    trace::Tracer* tracer = instruments != nullptr ? instruments->tracer.get() : nullptr;
    agent_->RegisterExecutor(
        ripple::ActionType::kLocalCommand,
        std::make_unique<ripple::LocalCommandExecutor>(
            [&oracle, &authority, tracer](const ripple::ActionContext&, const std::string&,
                                          const monitor::FsEvent& event) {
              const int64_t now = NowNs(authority);
              oracle.OnAction(event.name, now);
              const auto i = OpIndexOf(event.name);
              if (tracer != nullptr && i.has_value() && *i % kSpanEvery == 0) {
                tracer->Record(kGenTrace | *i, 0, "bench.action", "bench",
                               VirtualTime(oracle.DueNs(*i)), VirtualTime(now));
              }
              return OkStatus();
            }));
  }

  ~Deployment() { Stop(); }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Creates the namespace, plus the whole backlog when the plan is one
  // (direct FS calls, each timed into `op_us`). False if any call failed.
  bool Stage(const Plan& plan, Samples& op_us) {
    bool ok = fs_.Mkdir("/bench").ok();
    for (const std::string& dir : plan.dirs) ok = fs_.Mkdir(dir).ok() && ok;
    for (size_t n = 0; n < plan.pool; ++n) ok = fs_.Create(plan.paths[n]).ok() && ok;
    if (plan.rate <= 0) {
      for (size_t i = 0; i < plan.ops.size(); ++i) {
        const int64_t start = NowNs(authority_);
        ok = ApplyOp(fs_, plan, i).ok() && ok;
        op_us.Add(static_cast<double>(NowNs(authority_) - start) / 1e3);
      }
    }
    return ok;
  }

  // The tenant rule set through the control plane: rule k fires on
  // creates of /bench/d<k>/m_*.
  bool InstallRules() {
    bool ok = true;
    for (size_t k = 0; k < kRules; ++k) {
      auto rule = ripple::Rule::Parse(
          RuleJson("r" + std::to_string(k), "t" + std::to_string(k % 10), DirPath(k) + "/m_*"));
      ok = rule.ok() && cloud_->RegisterRule(*rule).ok() && ok;
    }
    return ok;
  }

  void StartRipple() {
    cloud_->Start();
    agent_->Start();
    started_ = true;
  }

  void StartMonitor() {
    monitor_->Start();
    monitor_started_ns_ = NowNs(authority_);
  }

  // Consumers first: a shard draining into a kBlock subscription nobody
  // reads would block forever, while a closed one refuses. Runs measure
  // only after quiescing, so nothing is left in flight to lose.
  void Stop() {
    if (!started_) return;
    started_ = false;
    tail_->Close();
    agent_->Stop();
    monitor_->Stop();
    cloud_->Stop();
  }

  [[nodiscard]] uint64_t RecordsAppended() const {
    uint64_t n = 0;
    for (size_t m = 0; m < fs_.MdsCount(); ++m) n += fs_.Mds(m).changelog().TotalAppended();
    return n;
  }

  std::unique_ptr<monitor::FleetHistoryClient> HistoryClient() {
    if (instruments_ != nullptr) {
      return std::make_unique<monitor::FleetHistoryClient>(
          context_, monitor_->fleet().api_endpoints(), instruments_->tracer, &authority_);
    }
    return std::make_unique<monitor::FleetHistoryClient>(context_,
                                                         monitor_->fleet().api_endpoints());
  }

  [[nodiscard]] const Spec& spec() const { return spec_; }
  lustre::FileSystem& fs() { return fs_; }
  monitor::Monitor& monitor() { return *monitor_; }
  ripple::CloudService& cloud() { return *cloud_; }
  ripple::Agent& agent() { return *agent_; }
  monitor::FleetSubscriber& tail() { return *tail_; }
  [[nodiscard]] int64_t monitor_started_ns() const { return monitor_started_ns_; }

 private:
  const Spec& spec_;
  const TimeAuthority& authority_;
  Instruments* instruments_;
  lustre::FileSystem fs_;
  msgq::Context context_;
  std::unique_ptr<monitor::Monitor> monitor_;
  std::unique_ptr<ripple::CloudService> cloud_;
  ripple::EndpointRegistry endpoints_;
  std::unique_ptr<ripple::Agent> agent_;
  std::unique_ptr<monitor::FleetSubscriber> tail_;
  bool started_ = false;
  int64_t monitor_started_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Bench threads: tail, generator, request clients

// The bench's own consumer: reads every event through its FleetSubscriber
// and hands it to the oracle with its receipt time.
class Tail {
 public:
  Tail(monitor::FleetSubscriber& sub, Oracle& oracle, const TimeAuthority& authority,
       trace::Tracer* tracer)
      : thread_([&sub, &oracle, &authority, tracer](const std::stop_token& stop) {
          Run(stop, sub, oracle, authority, tracer);
        }) {}

  ~Tail() { Stop(); }
  Tail(const Tail&) = delete;
  Tail& operator=(const Tail&) = delete;

  void Stop() {
    thread_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

 private:
  static void Run(const std::stop_token& stop, monitor::FleetSubscriber& sub, Oracle& oracle,
                  const TimeAuthority& authority, trace::Tracer* tracer) {
    const auto span = [&](std::optional<size_t> op, int64_t now) {
      if (tracer != nullptr && op.has_value() && *op % kSpanEvery == 0) {
        tracer->Record(kGenTrace | *op, 0, "bench.receipt", "bench",
                       VirtualTime(oracle.DueNs(*op)), VirtualTime(now));
      }
    };
    while (!stop.stop_requested()) {
      auto batch = sub.NextBatchFor(std::chrono::milliseconds(5));
      if (!batch.ok()) {
        if (batch.status().code() == StatusCode::kClosed) break;
        continue;
      }
      const int64_t now = NowNs(authority);
      // Live batches are read in place; backfilled ones arrive decoded.
      if (const auto payload = batch->FlatPayloadV4()) {
        auto view = monitor::wire::EventBatchView::Bind(*payload);
        if (view.ok()) {
          for (size_t i = 0; i < view->size(); ++i) {
            const monitor::wire::EventView e = (*view)[i];
            span(oracle.OnEvent(e.hlc().origin, e.mdt_index(), e.record_index(),
                                e.global_seq(), e.type(), e.time().count(), e.name(), now),
                 now);
          }
          continue;
        }
      }
      for (const monitor::FsEvent& e : batch->events()) {
        span(oracle.OnEvent(e.hlc.origin, e.mdt_index, e.record_index, e.global_seq, e.type,
                            e.time.count(), e.name, now),
             now);
      }
    }
  }

  std::jthread thread_;
};

struct GenStats {
  Samples late_ms;  // window ops: start of the FS call minus its due time
  Samples op_us;    // every op: duration of the FS call
};

// Open-loop generator: op i is issued at its due time whatever the system
// does, so a stall shows as lateness of every later op.
void Generate(lustre::FileSystem& fs, const Plan& plan, Oracle& oracle,
              const TimeAuthority& authority, int64_t window_lo, trace::Tracer* tracer,
              GenStats& out) {
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const int64_t due = oracle.DueNs(i);
    int64_t start = NowNs(authority);
    if (start < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - start));
      start = NowNs(authority);
    }
    const Status status = ApplyOp(fs, plan, i);
    const int64_t end = NowNs(authority);
    if (!status.ok()) oracle.Violation("generator op failed: " + status.ToString());
    if (due >= window_lo) out.late_ms.Add(static_cast<double>(start - due) / 1e6);
    out.op_us.Add(static_cast<double>(end - start) / 1e3);
    if (tracer != nullptr && i % kSpanEvery == 0) {
      tracer->Record(kGenTrace | i, 0, "bench.fs_call", "bench", VirtualTime(start),
                     VirtualTime(end));
    }
  }
}

struct RequestStats {
  Samples ms;
  uint64_t attempted = 0;
  uint64_t events = 0;  // history reads: events returned
};

// One federated history read of [from, to) (whole milliseconds), checked:
// not partial, HLC-sorted, inside the window, and per shard exactly the
// events the tail saw there (up to the page limit). `live` reads race the
// stream, so they first let the tail reach `to`.
void Query(monitor::FleetHistoryClient& client, Oracle& oracle, size_t shards, int64_t from,
           int64_t to, bool live, const TimeAuthority& authority, trace::Tracer* tracer,
           RequestStats& out) {
  const uint64_t id = out.attempted++;
  const int64_t start = NowNs(authority);
  auto page = client.FetchTimeRange(VirtualTime(from), VirtualTime(to), kQueryMaxPerShard);
  const int64_t end = NowNs(authority);
  out.ms.Add(static_cast<double>(end - start) / 1e6);
  if (tracer != nullptr) {
    tracer->Record(kQueryTrace | id, 0, "bench.query", "bench", VirtualTime(start),
                   VirtualTime(end));
  }
  if (!page.ok() || page->partial || page->shard_pages.size() != shards) {
    oracle.Violation("history query failed or partial");
    return;
  }
  out.events += page->events.size();
  for (size_t k = 0; k < page->events.size(); ++k) {
    const monitor::FsEvent& e = page->events[k];
    if (e.time.count() < from || e.time.count() >= to) {
      oracle.Violation("history event outside its window");
      return;
    }
    if (k > 0 && e.hlc < page->events[k - 1].hlc) {
      oracle.Violation("history page not HLC-sorted");
      return;
    }
  }
  for (size_t s = 0; s < shards; ++s) {
    for (int spins = 0; live && oracle.Frontier(s) < to && spins < 2000; ++spins) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const uint64_t expected =
        std::min<uint64_t>(oracle.CountInWindow(s, from, to), kQueryMaxPerShard);
    if (page->shard_pages[s].events.size() != expected) {
      oracle.Violation("history page incomplete");
      return;
    }
  }
}

// A random whole-millisecond 100 ms window ending in [lo + 100 ms, hi].
std::pair<int64_t, int64_t> QueryWindow(Rng& rng, int64_t lo, int64_t hi) {
  const int64_t lo_ms = lo / kMs + kQueryWindowNs / kMs;
  const int64_t hi_ms = std::max(lo_ms, hi / kMs);
  const int64_t to = (lo_ms + static_cast<int64_t>(rng.NextBelow(hi_ms - lo_ms + 1))) * kMs;
  return {to - kQueryWindowNs, to};
}

// Registers a fresh tenant rule that matches nothing, then removes it;
// each control-plane call is one timed sample.
void Update(ripple::CloudService& cloud, Oracle& oracle, const TimeAuthority& authority,
            trace::Tracer* tracer, RequestStats& out) {
  const uint64_t id = out.attempted / 2;
  const std::string rule_id = "churn-" + std::to_string(id);
  auto rule = ripple::Rule::Parse(
      RuleJson(rule_id, "churn", "/bench/churn/u" + std::to_string(id) + "/**"));
  if (!rule.ok()) {
    oracle.Violation("churn rule does not parse");
    return;
  }
  for (int step = 0; step < 2; ++step) {
    ++out.attempted;
    const int64_t start = NowNs(authority);
    const Status status = step == 0 ? cloud.RegisterRule(*rule) : cloud.RemoveRule(rule_id);
    const int64_t end = NowNs(authority);
    out.ms.Add(static_cast<double>(end - start) / 1e6);
    if (tracer != nullptr) {
      tracer->Record(kUpdateTrace | id, 0, "bench.rule_update", "bench", VirtualTime(start),
                     VirtualTime(end));
    }
    if (!status.ok()) oracle.Violation("rule update failed: " + status.ToString());
  }
}

// ---------------------------------------------------------------------------
// Per-layer sampling (--trace 1)

// Reads the layers from outside every 100 ms: public Stats()/depth
// accessors, the registry's queue gauges and the watermark table.
struct LayerSampler {
  void Sample(Deployment& d, Instruments& inst, const Oracle& oracle) {
    const monitor::MonitorStats stats = d.monitor().Stats();
    backlog_max = std::max(backlog_max, d.RecordsAppended() - stats.total_extracted);
    const uint64_t published = stats.aggregator.published;
    tail_lag_max = std::max(tail_lag_max, Positive(published, oracle.received()));
    const ripple::AgentStats agent = d.agent().Stats();
    seen_lag_max = std::max(seen_lag_max, Positive(published, agent.events_seen));
    actions_queue_max =
        std::max(actions_queue_max,
                 Positive(agent.actions_received,
                          agent.actions_deduped + agent.actions_executed + agent.actions_failed));
    const auto& queue = d.cloud().queue();
    cloud_depth_max = std::max<uint64_t>(cloud_depth_max, queue.VisibleDepth() + queue.InFlight());
    const json::Value gauges = inst.registry->ToJson()["gauges"];
    collector_inflight_max = std::max(
        collector_inflight_max, GaugeSum(gauges, "sdci_collector_reorder_occupancy") +
                                    GaugeSum(gauges, "sdci_collector_resolver_pool_depth"));
    ingest_inflight_max = std::max(
        ingest_inflight_max, GaugeSum(gauges, "sdci_aggregator_reorder_occupancy") +
                                 GaugeSum(gauges, "sdci_aggregator_ingest_pool_depth"));
    const VirtualTime head = inst.watermarks->Head();
    for (const auto& row : inst.watermarks->Snapshot()) {
      if (!row.advanced) continue;
      double& lag = stage_lag_ms_max[row.stage];
      lag = std::max(lag, static_cast<double>((head - row.watermark).count()) / 1e6);
    }
    threads_max = std::max(threads_max, ThreadCount());
  }

  static uint64_t Positive(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }
  static uint64_t GaugeSum(const json::Value& gauges, std::string_view name) {
    int64_t sum = 0;
    const json::Value& series = gauges[name];
    if (!series.is_array()) return 0;
    for (const json::Value& s : series.AsArray()) sum += s.GetInt("value");
    return sum > 0 ? static_cast<uint64_t>(sum) : 0;
  }

  uint64_t backlog_max = 0;
  uint64_t tail_lag_max = 0;
  uint64_t seen_lag_max = 0;
  uint64_t actions_queue_max = 0;
  uint64_t cloud_depth_max = 0;
  uint64_t collector_inflight_max = 0;
  uint64_t ingest_inflight_max = 0;
  double threads_max = 0;
  std::map<std::string, double> stage_lag_ms_max;
};

// The program's pipeline stages this deployment records spans for, and
// whether the stage keeps a watermark. wal.append and aggregator.commit
// need a checkpointed (supervised) shard, which the shipped Monitor is not.
struct StageInfo {
  std::string_view name;
  bool watermarked;
};
constexpr StageInfo kStages[] = {
    {trace::kChangelogRead, true},     {trace::kCollectorExtract, true},
    {trace::kFid2PathResolve, false},  {trace::kCollectorPublish, true},
    {trace::kAggregatorDecode, true},  {trace::kAggregatorIngest, true},
    {trace::kAggregatorPublish, true}, {trace::kStoreAppend, true},
    {trace::kFleetMerge, true},        {trace::kAgentRuleEval, true},
    {trace::kActionExecute, true}};

struct StageRow {
  std::string name;
  bool watermarked = false;
  uint64_t count = 0;
  double p50_us = 0;
  double self_us_p50 = 0;
  double lag_ms_max = 0;
};

// Per-stage count and p50 from the sink's histograms; self time is each
// span's duration minus the part of it its child spans cover.
std::vector<StageRow> StageTable(const trace::TraceCollector& sink,
                                 const LayerSampler& sampler) {
  const std::vector<trace::TraceSpan> spans = sink.Snapshot();
  std::unordered_map<uint64_t, std::vector<size_t>> children;  // parent span -> spans
  for (size_t k = 0; k < spans.size(); ++k) {
    if (spans[k].parent_id != 0) children[spans[k].parent_id].push_back(k);
  }
  std::map<std::string, Samples, std::less<>> self_us;
  std::map<std::string, Samples, std::less<>> dur_us;
  for (const trace::TraceSpan& span : spans) {
    const int64_t lo = span.start.count();
    const int64_t hi = lo + span.duration.count();
    std::vector<std::pair<int64_t, int64_t>> cover;
    if (const auto it = children.find(span.span_id); it != children.end()) {
      for (const size_t c : it->second) {
        const int64_t c_lo = std::max(lo, spans[c].start.count());
        const int64_t c_hi = std::min(hi, spans[c].start.count() + spans[c].duration.count());
        if (spans[c].trace_id == span.trace_id && c_lo < c_hi) cover.emplace_back(c_lo, c_hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = lo;
    for (const auto& [c_lo, c_hi] : cover) {
      covered += std::max<int64_t>(0, c_hi - std::max(c_lo, reach));
      reach = std::max(reach, c_hi);
    }
    self_us[span.name].Add(static_cast<double>(hi - lo - covered) / 1e3);
    dur_us[span.name].Add(static_cast<double>(hi - lo) / 1e3);
  }
  std::vector<StageRow> rows;
  for (const StageInfo& stage : kStages) {
    StageRow row;
    row.name = std::string(stage.name);
    row.watermarked = stage.watermarked;
    if (const auto it = dur_us.find(stage.name); it != dur_us.end()) {
      row.count = it->second.size();
      row.p50_us = it->second.Quantile(0.5);
      row.self_us_p50 = self_us[row.name].Quantile(0.5);
    }
    if (const auto it = sampler.stage_lag_ms_max.find(row.name);
        it != sampler.stage_lag_ms_max.end()) {
      row.lag_ms_max = it->second;
    }
    rows.push_back(row);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Runs

struct RunResult {
  Report e2e;
  Report layers;
  std::vector<StageRow> stages;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double gen_late_p99_ms = 0;
  std::string chrome_trace;  // --trace 1: Chrome trace_event JSON
};

// Returns the heap a torn-down deployment freed to the OS, so every
// deployment starts from the same resident baseline and peak RSS measures
// one deployment, not the fragmentation its predecessors left.
void ReleaseFreedMemory() { malloc_trim(0); }

// Waits until the tail holds every journaled record and every expected
// action has run. False on timeout.
bool Quiesce(Deployment& d, const Oracle& oracle, const Plan& plan) {
  const auto deadline = std::chrono::steady_clock::now() + kQuiesceTimeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (oracle.received() >= d.RecordsAppended() && oracle.actions() >= plan.matched) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

struct Setup {
  double setup_s = 0;
  double install_s = 0;
  int64_t staged_lo_ns = 0;  // staging ran in [lo, hi)
  int64_t staged_hi_ns = 0;
};

// Stages, deploys and installs the rules; starts the Ripple half, and the
// monitor too unless `start_monitor` is false (catchup times the drain
// from Monitor::Start).
std::unique_ptr<Deployment> SetUp(const Spec& spec, const Plan& plan,
                                  const TimeAuthority& authority, Oracle& oracle,
                                  Instruments* inst, bool start_monitor, Samples& op_us,
                                  Setup& out) {
  const int64_t t0 = NowNs(authority);
  auto d = std::make_unique<Deployment>(spec, authority, oracle, inst);
  out.staged_lo_ns = NowNs(authority);
  if (!d->Stage(plan, op_us)) oracle.Violation("staging failed");
  const int64_t t1 = NowNs(authority);
  out.staged_hi_ns = t1;
  if (!d->InstallRules()) oracle.Violation("rule install failed");
  out.install_s = static_cast<double>(NowNs(authority) - t1) / 1e9;
  d->StartRipple();
  if (start_monitor) d->StartMonitor();
  out.setup_s = static_cast<double>(NowNs(authority) - t0) / 1e9;
  return d;
}

// Post-window reads and rule updates on the quiesced deployment, so every
// workload reports query and rule-update latency. Each kind runs back to
// back: paced or interleaved with reads, update latency varied twice as
// much from run to run.
void Probe(Deployment& d, Oracle& oracle, const Timing& timing, uint64_t seed, int64_t lo,
           int64_t hi, bool queries, bool updates, const TimeAuthority& authority,
           trace::Tracer* tracer, RequestStats& query_stats, RequestStats& update_stats,
           double& rss_delta_mb) {
  if (queries) {
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    auto client = d.HistoryClient();
    for (size_t q = 0; q < timing.probes; ++q) {
      const auto [from, to] = QueryWindow(rng, lo, hi);
      Query(*client, oracle, d.spec().shards, from, to, false, authority, tracer, query_stats);
    }
  }
  if (updates) {
    const double rss0 = RssMb();
    for (size_t u = 0; u < timing.probes; ++u) {
      Update(d.cloud(), oracle, authority, tracer, update_stats);
    }
    rss_delta_mb = RssMb() - rss0;
  }
}

// Per-layer table of one measured deployment (--trace 1). `cpu_s` is the
// process CPU spent while `events` were delivered.
void LayerReport(Deployment& d, Instruments& inst, const LayerSampler& sampler,
                 const GenStats& gen, const Samples& stage_op_us, RequestStats& queries,
                 RequestStats& updates, double install_s, double rss_delta_mb, double cpu_s,
                 double events, const TimeAuthority& authority, RunResult& r) {
  Report& l = r.layers;
  // Request latencies are per layer: from run to run they moved by more
  // than the largest bound a metric may have. Their regressions still move
  // gated metrics: 1000 RegisterRule calls are most of setup_s.
  l.Set("federation.query_ms_p50", queries.ms.Quantile(0.5), "ms", queries.ms.size());
  l.Set("federation.query_ms_p90", queries.ms.Quantile(0.9), "ms", queries.ms.size());
  l.Set("control.update_ms_p50", updates.ms.Quantile(0.5), "ms", updates.ms.size());
  l.Set("control.update_ms_p90", updates.ms.Quantile(0.9), "ms", updates.ms.size());
  Samples op_us = stage_op_us;
  op_us.Append(gen.op_us);
  l.Set("lustre.op_p99_us", op_us.Quantile(0.99), "us", op_us.size());
  l.Set("lustre.changelog_backlog_max", static_cast<double>(sampler.backlog_max), "count");

  const monitor::MonitorStats ms = d.monitor().Stats();
  const auto usage =
      d.monitor().Usage(VirtualDuration(NowNs(authority) - d.monitor_started_ns()));
  double processed = 0, fid2path = 0, hit_rate = 0, failures = 0;
  for (const auto& c : ms.collectors) {
    processed += static_cast<double>(c.processed);
    fid2path += static_cast<double>(c.fid2path_calls);
    hit_rate += c.cache_hit_rate / static_cast<double>(ms.collectors.size());
    failures += static_cast<double>(c.resolve_failures);
  }
  double collector_busy = 0, ingest_busy = 0;
  for (size_t k = 0; k < usage.size(); ++k) {
    if (k < ms.collectors.size()) {
      collector_busy += usage[k].pipeline_busy_percent / static_cast<double>(ms.collectors.size());
    } else {
      ingest_busy += usage[k].pipeline_busy_percent /
                     static_cast<double>(usage.size() - ms.collectors.size());
    }
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  l.Set("collector.fid2path_per_event", ratio(fid2path, processed), "ratio");
  l.Set("collector.busy_pct", collector_busy, "%");
  l.Set("collector.cache_hit_rate", hit_rate, "ratio");
  l.Set("collector.inflight_max", static_cast<double>(sampler.collector_inflight_max), "count");
  l.Set("collector.resolve_failures", failures, "count");

  const monitor::AggregatorStats& agg = ms.aggregator;
  l.Set("ingest.events_per_batch",
        ratio(static_cast<double>(agg.received), static_cast<double>(agg.batches_received)),
        "count");
  l.Set("ingest.busy_pct", ingest_busy, "%");
  l.Set("ingest.inflight_max", static_cast<double>(sampler.ingest_inflight_max), "count");
  l.Set("serve.events_per_msg",
        ratio(static_cast<double>(agg.published), static_cast<double>(agg.batches_published)),
        "count");

  l.Set("catalog.events_per_query",
        ratio(static_cast<double>(queries.events), static_cast<double>(queries.attempted)),
        "count");
  l.Set("federation.tail_lag_max", static_cast<double>(sampler.tail_lag_max), "count");
  double dropped = 0;
  for (monitor::FleetSubscriber* sub :
       {&d.tail(), const_cast<monitor::FleetSubscriber*>(d.agent().fleet_source())}) {
    for (size_t s = 0; s < sub->shards(); ++s) {
      dropped += static_cast<double>(sub->shard(s).dropped_at_socket());
    }
  }
  const monitor::FleetSubscriber* agent_sub = d.agent().fleet_source();
  l.Set("federation.dropped", dropped, "count");
  l.Set("federation.gaps",
        static_cast<double>(d.tail().gaps_detected() + agent_sub->gaps_detected()), "count");
  l.Set("federation.backfilled",
        static_cast<double>(d.tail().events_backfilled() + agent_sub->events_backfilled()),
        "count");

  const ripple::AgentStats agent = d.agent().Stats();
  l.Set("agent.seen_lag_max", static_cast<double>(sampler.seen_lag_max), "count");
  l.Set("agent.match_frac",
        ratio(static_cast<double>(agent.events_matched), static_cast<double>(agent.events_seen)),
        "ratio");
  l.Set("agent.report_retries", static_cast<double>(agent.report_retries), "count");

  const ripple::CloudStats cloud = d.cloud().Stats();
  l.Set("cloud.queue_depth_max", static_cast<double>(sampler.cloud_depth_max), "count");
  l.Set("cloud.redeliveries", static_cast<double>(cloud.redeliveries), "count");
  l.Set("cloud.dead_letters", static_cast<double>(cloud.dead_letters), "count");

  l.Set("actions.queue_max", static_cast<double>(sampler.actions_queue_max), "count");
  l.Set("actions.deduped", static_cast<double>(agent.actions_deduped), "count");
  l.Set("actions.failed", static_cast<double>(agent.actions_failed), "count");

  l.Set("control.install_s", install_s, "s");
  l.Set("control.rss_mb_per_100_updates",
        ratio(rss_delta_mb * 100.0, static_cast<double>(updates.attempted / 2)), "MB");

  l.Set("proc.cpu_s", cpu_s, "s");
  l.Set("proc.cpu_ns_per_event", ratio(cpu_s * 1e9, events), "ns");
  l.Set("proc.threads", sampler.threads_max, "count");

  r.stages = StageTable(*inst.sink, sampler);
  for (const StageRow& row : r.stages) {
    const std::string p = "stage." + row.name;
    l.Set(p + ".count", static_cast<double>(row.count), "count");
    l.Set(p + ".p50_us", row.p50_us, "us", row.count);
    l.Set(p + ".self_us_p50", row.self_us_p50, "us", row.count);
    if (row.watermarked) l.Set(p + ".lag_ms_max", row.lag_ms_max, "ms");
  }
  r.chrome_trace = inst.sink->ToChromeTraceJson().Dump();
}

// After Stop: every (boundary, instance) row of the flow ledger balances.
void AuditLedger(Instruments& inst, Oracle& oracle, Report& layers) {
  const FlowLedger::AuditReport audit = inst.flow->Audit();
  int64_t imbalance = 0;
  for (const auto& row : audit.rows) imbalance += std::abs(row.imbalance);
  layers.Set("ledger.imbalance", static_cast<double>(imbalance), "count");
  if (imbalance != 0) oracle.Violation("flow ledger unbalanced at quiesce");
}

// Due time → tail receipt of creates, and → executor of matching ones.
struct Freshness {
  Freshness() = default;
  Freshness(Samples& lag, Samples& action)
      : lag_p50(lag.Quantile(0.5)),
        lag_p999(lag.Quantile(0.999)),
        action_p50(action.Quantile(0.5)),
        action_p99(action.Quantile(0.99)),
        lag_n(lag.size()),
        action_n(action.size()) {}

  double lag_p50 = 0;
  double lag_p999 = 0;
  double action_p50 = 0;
  double action_p99 = 0;
  size_t lag_n = 0;
  size_t action_n = 0;
};

void EndToEnd(Report& e, double setup_s, double events_per_s, const Freshness& f) {
  e.Set("setup_s", setup_s, "s");
  e.Set("peak_rss_mb", PeakRssMb(), "MB");
  e.Set("events_per_s", events_per_s, "ev/s");
  e.Set("lag_p50_ms", f.lag_p50, "ms", f.lag_n);
  e.Set("lag_p999_ms", f.lag_p999, "ms", f.lag_n);
  e.Set("action_p50_ms", f.action_p50, "ms", f.action_n);
  e.Set("action_p99_ms", f.action_p99, "ms", f.action_n);
}

// catchup: a staged backlog drained by fresh deployments; each rep times
// Monitor::Start until the tail holds every record and every expected
// action has run. Medians over reps are reported.
RunResult RunCatchup(const Spec& spec, const Timing& timing, uint64_t seed, bool traced,
                     const TimeAuthority& authority) {
  RunResult r;
  const Plan plan = BuildPlan(spec, seed, timing);
  std::vector<double> setup_s, install_s, eps, lag50, lag999, act50, act99;
  for (size_t rep = 0; rep < timing.catchup_reps; ++rep) {
    const bool last = rep + 1 == timing.catchup_reps;
    auto inst = traced ? std::make_unique<Instruments>(seed) : nullptr;
    auto oracle = std::make_unique<Oracle>(plan, spec.shards, spec.profile.mds_count);
    Samples stage_op_us;
    Setup setup;
    auto d = SetUp(spec, plan, authority, *oracle, inst.get(), false, stage_op_us, setup);
    setup_s.push_back(setup.setup_s);
    install_s.push_back(setup.install_s);

    Tail tail(d->tail(), *oracle, authority, inst ? inst->tracer.get() : nullptr);
    LayerSampler sampler;
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t_start = NowNs(authority);
    oracle->SetSchedule(t_start);
    d->StartMonitor();
    const auto deadline = std::chrono::steady_clock::now() + kQuiesceTimeout;
    const uint64_t records = d->RecordsAppended();
    auto next_sample = std::chrono::steady_clock::now();
    while (oracle->received() < records || oracle->actions() < plan.matched) {
      if (std::chrono::steady_clock::now() > deadline) {
        oracle->Violation("catchup did not drain");
        break;
      }
      if (inst && std::chrono::steady_clock::now() >= next_sample) {
        sampler.Sample(*d, *inst, *oracle);
        next_sample += std::chrono::milliseconds(100);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    const int64_t done = std::max(oracle->last_receipt_ns(), oracle->last_action_ns());
    eps.push_back(static_cast<double>(records) / (static_cast<double>(done - t_start) / 1e9));

    RequestStats queries, updates;
    double rss_delta_mb = 0;
    if (last) {
      Probe(*d, *oracle, timing, seed, setup.staged_lo_ns, setup.staged_hi_ns, true, true,
            authority, inst ? inst->tracer.get() : nullptr, queries, updates, rss_delta_mb);
    }
    tail.Stop();
    oracle->CheckComplete(records);
    Samples lag, action;
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      if (plan.ops[i].kind != OpKind::kCreate) continue;
      if (oracle->receipt_ns(i) != 0) {
        lag.Add(static_cast<double>(oracle->receipt_ns(i) - t_start) / 1e6);
      }
      if (plan.ops[i].matched && oracle->action_ns(i) != 0) {
        action.Add(static_cast<double>(oracle->action_ns(i) - t_start) / 1e6);
      }
    }
    Freshness rep_freshness(lag, action);
    lag50.push_back(rep_freshness.lag_p50);
    lag999.push_back(rep_freshness.lag_p999);
    act50.push_back(rep_freshness.action_p50);
    act99.push_back(rep_freshness.action_p99);
    r.attempted += plan.ops.size() + plan.matched + queries.attempted + updates.attempted;

    if (last) {
      // Each percentile is the median over reps of that rep's percentile.
      Freshness f = rep_freshness;
      f.lag_p50 = Median(lag50);
      f.lag_p999 = Median(lag999);
      f.action_p50 = Median(act50);
      f.action_p99 = Median(act99);
      EndToEnd(r.e2e, Median(setup_s), Median(eps), f);
      if (inst) {
        LayerReport(*d, *inst, sampler, GenStats{}, stage_op_us, queries, updates,
                    Median(install_s), rss_delta_mb, cpu_s, static_cast<double>(records),
                    authority, r);
      }
    }
    d->Stop();
    if (inst && last) AuditLedger(*inst, *oracle, r.layers);
    r.failed += oracle->violations();
    d.reset();
    ReleaseFreedMemory();
  }
  return r;
}

// stream / history / churn: an open-loop generator at a fixed rate; the
// window opens after the warm-up and lasts --seconds.
RunResult RunOpenLoop(const Spec& spec, const Timing& timing, uint64_t seed, bool traced,
                      const TimeAuthority& authority) {
  RunResult r;
  const Plan plan = BuildPlan(spec, seed, timing);
  std::unique_ptr<Instruments> inst;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<Deployment> d;
  std::vector<double> setup_s, install_s;
  Samples unused_op_us;
  for (size_t k = 0; k < timing.setups; ++k) {
    d.reset();
    ReleaseFreedMemory();
    inst = traced ? std::make_unique<Instruments>(seed) : nullptr;
    oracle = std::make_unique<Oracle>(plan, spec.shards, spec.profile.mds_count);
    Setup setup;
    d = SetUp(spec, plan, authority, *oracle, inst.get(), true, unused_op_us, setup);
    setup_s.push_back(setup.setup_s);
    install_s.push_back(setup.install_s);
    if (k + 1 < timing.setups) r.failed += oracle->violations();
  }
  trace::Tracer* tracer = inst ? inst->tracer.get() : nullptr;

  Tail tail(d->tail(), *oracle, authority, tracer);
  const int64_t t0 = NowNs(authority) + 20 * kMs;
  oracle->SetSchedule(t0);
  const int64_t window_lo = t0 + static_cast<int64_t>(timing.warmup * 1e9);
  const int64_t window_hi = window_lo + static_cast<int64_t>(timing.seconds * 1e9);
  GenStats gen;
  RequestStats queries, updates;
  double rss_delta_mb = 0;
  {
    std::jthread generator([&] {
      Generate(d->fs(), plan, *oracle, authority, window_lo, tracer, gen);
    });
    std::jthread client;
    if (spec.query_client) {
      client = std::jthread([&] {
        // Closed loop: the next read goes out when the last one returns.
        Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
        auto history = d->HistoryClient();
        // Windows end at least 1 s back, where the catalog has settled.
        authority.SleepUntil(VirtualTime(std::max(window_lo, t0 + kQueryWindowNs + 1000 * kMs)));
        while (NowNs(authority) < window_hi) {
          const int64_t now = NowNs(authority);
          const auto [from, to] = QueryWindow(rng, std::max(t0, now - 9000 * kMs), now - 1000 * kMs);
          Query(*history, *oracle, spec.shards, from, to, true, authority, tracer, queries);
        }
      });
    } else if (spec.update_rate > 0) {
      client = std::jthread([&] {
        // Open loop: update u is due at window_lo + u / rate.
        const double rss0 = RssMb();
        for (size_t u = 0;; ++u) {
          const int64_t due = window_lo + static_cast<int64_t>(static_cast<double>(u) * 1e9 /
                                                                spec.update_rate);
          if (due >= window_hi) break;
          authority.SleepUntil(VirtualTime(due));
          Update(d->cloud(), *oracle, authority, tracer, updates);
        }
        rss_delta_mb = RssMb() - rss0;
      });
    }

    LayerSampler sampler;
    authority.SleepUntil(VirtualTime(window_lo));
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t recv0 = oracle->received();
    if (inst) {
      for (int64_t next = window_lo; next < window_hi; next += 100 * kMs) {
        authority.SleepUntil(VirtualTime(next));
        sampler.Sample(*d, *inst, *oracle);
      }
    }
    authority.SleepUntil(VirtualTime(window_hi));
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    const uint64_t delivered = oracle->received() - recv0;
    generator.join();
    if (client.joinable()) client.join();

    if (!Quiesce(*d, *oracle, plan)) oracle->Violation("did not quiesce");
    const int64_t gen_end = oracle->DueNs(plan.ops.size());
    Probe(*d, *oracle, timing, seed, std::max(t0, gen_end - 9000 * kMs), gen_end - 100 * kMs,
          !spec.query_client, spec.update_rate <= 0, authority, tracer, queries, updates,
          rss_delta_mb);
    tail.Stop();
    oracle->CheckComplete(d->RecordsAppended());

    Samples lag, action;
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      const int64_t due = oracle->DueNs(i);
      if (plan.ops[i].kind != OpKind::kCreate || due < window_lo || due >= window_hi) continue;
      if (oracle->receipt_ns(i) != 0) {
        lag.Add(static_cast<double>(oracle->receipt_ns(i) - due) / 1e6);
      }
      if (plan.ops[i].matched && oracle->action_ns(i) != 0) {
        action.Add(static_cast<double>(oracle->action_ns(i) - due) / 1e6);
      }
    }
    EndToEnd(r.e2e, Median(setup_s), static_cast<double>(delivered) / timing.seconds,
             Freshness(lag, action));
    r.gen_late_p99_ms = gen.late_ms.Quantile(0.99);
    r.attempted += plan.ops.size() + plan.matched + queries.attempted + updates.attempted;
    if (inst) {
      LayerReport(*d, *inst, sampler, gen, Samples{}, queries, updates, Median(install_s),
                  rss_delta_mb, cpu_s, static_cast<double>(delivered), authority, r);
    }
  }
  d->Stop();
  if (inst) AuditLedger(*inst, *oracle, r.layers);
  r.failed += oracle->violations();
  return r;
}

// ---------------------------------------------------------------------------
// Command line and output

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string json_path;
  std::string trace_dir;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload catchup|stream|history|churn --seed N\n"
               "                 [--seconds S] [--trace 0|1] [--json out.json]"
               " [--trace-dir dir]\n",
               why);
  return kExitUsage;
}

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      o.traced = value == "1";
    } else if (arg == "--json") {
      o.json_path = value;
    } else if (arg == "--trace-dir") {
      o.trace_dir = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (o.workload.empty() || o.seconds < 1 || o.seconds > 60) return std::nullopt;
  return o;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return static_cast<bool>(out);
}

}  // namespace
}  // namespace sdci::bench_e2e

int main(int argc, char** argv) {
  using namespace sdci::bench_e2e;
  const auto options = ParseArgs(argc, argv);
  if (!options.has_value()) return Usage("bad arguments");
  const auto spec = SpecFor(options->workload);
  if (!spec.has_value()) return Usage("unknown workload");
  const Options& o = *options;
  const Timing timing(o.seconds, o.traced);
  const double load_start = LoadAvg1();
  // Dilation 1: virtual time is wall time, so no scheduler noise is scaled.
  const sdci::TimeAuthority authority(1.0);

  RunResult r = spec->backlog ? RunCatchup(*spec, timing, o.seed, o.traced, authority)
                              : RunOpenLoop(*spec, timing, o.seed, o.traced, authority);
  const double load_end = LoadAvg1();
  const bool correct = r.failed == 0;
  // The generator, not the system, limited a run whose lateness is a
  // tenth of the median lag it is measuring. Only the untraced run's
  // end-to-end numbers count, so only that run exits as invalid.
  const double lag_p50 = r.e2e.Get("lag_p50_ms");
  const bool generator_limited = !spec->backlog && r.gen_late_p99_ms > 0.1 * lag_p50;

  std::printf("# bench_e2e workload=%s seed=%llu seconds=%s trace=%d\n", spec->name.c_str(),
              static_cast<unsigned long long>(o.seed), Num(o.seconds).c_str(), o.traced ? 1 : 0);
  std::printf("# provenance git_sha=%s build_type=%s nproc=%ld loadavg_start=%s loadavg_end=%s "
              "profile=%s mdts=%u shards=%zu dilation=1 gen.late_p99_ms=%s%s\n",
              SDCI_GIT_SHA, SDCI_BUILD_TYPE, OnlineCpus(), Num(load_start).c_str(),
              Num(load_end).c_str(), spec->profile.name.c_str(), spec->profile.mds_count,
              spec->shards, Num(r.gen_late_p99_ms).c_str(),
              generator_limited ? " INVALID(generator-limited)" : "");
  r.e2e.Print(stdout);
  // Lost or duplicated events, missing or repeated actions, bad history
  // pages and failed updates, over everything attempted.
  std::printf("failed_frac %s fraction\n",
              Num(static_cast<double>(r.failed) /
                  static_cast<double>(std::max<uint64_t>(1, r.attempted)))
                  .c_str());
  r.layers.Print(stdout);

  if (!o.json_path.empty()) {
    std::string doc = "{\"workload\": " + Quote(spec->name) +
                      ", \"seed\": " + std::to_string(o.seed) +
                      ", \"seconds\": " + Num(o.seconds) +
                      ", \"trace\": " + (o.traced ? "1" : "0") +
                      ", \"provenance\": {\"git_sha\": " + Quote(SDCI_GIT_SHA) +
                      ", \"build_type\": " + Quote(SDCI_BUILD_TYPE) +
                      ", \"nproc\": " + std::to_string(OnlineCpus()) +
                      ", \"loadavg_start\": " + Num(load_start) +
                      ", \"loadavg_end\": " + Num(load_end) +
                      ", \"profile\": " + Quote(spec->profile.name) +
                      ", \"mdts\": " + std::to_string(spec->profile.mds_count) +
                      ", \"shards\": " + std::to_string(spec->shards) +
                      ", \"dilation\": 1, \"gen_late_p99_ms\": " + Num(r.gen_late_p99_ms) +
                      ", \"generator_limited\": " + (generator_limited ? "true" : "false") +
                      "}, \"correct\": " + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(r.attempted) +
                      ", \"failed\": " + std::to_string(r.failed) +
                      ", \"end_to_end\": " + r.e2e.Json(true) +
                      ", \"per_layer\": " + r.layers.Json(true) + ", \"stages\": [";
    for (size_t k = 0; k < r.stages.size(); ++k) {
      const StageRow& s = r.stages[k];
      doc += std::string(k > 0 ? ", " : "") + "{\"stage\": " + Quote(s.name) +
             ", \"count\": " + std::to_string(s.count) + ", \"p50_us\": " + Num(s.p50_us) +
             ", \"self_us_p50\": " + Num(s.self_us_p50) + ", \"lag_ms_max\": " +
             Num(s.lag_ms_max) + "}";
    }
    doc += "]}\n";
    if (!WriteFile(o.json_path, doc)) std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                                                   o.json_path.c_str());
  }
  if (o.traced && !o.trace_dir.empty()) {
    const std::string path = o.trace_dir + "/" + spec->name + "-seed" + std::to_string(o.seed) +
                             ".trace.json";
    if (!WriteFile(path, r.chrome_trace)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    } else {
      std::printf("# chrome trace: %s\n", path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              (o.traced ? r.layers : r.e2e).Json(false).c_str());
  std::fflush(stdout);
  if (!correct) return kExitViolation;
  if (generator_limited && !o.traced) return kExitGeneratorLimited;
  return kExitOk;
}
