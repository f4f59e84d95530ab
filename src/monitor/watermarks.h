// Per-stage freshness watermarks keyed by the trace-stage taxonomy.
//
// Every pipeline stage that finishes handling an event advances a
// watermark with that event's *birth* time (FsEvent::time, the changelog
// timestamp riding the wire beside the HLC stamp): "this stage has fully
// processed the stream up to here". The registry derives freshness lag
// from the spread of those watermarks:
//
//   Head                = max over every watermark (newest birth time any
//                         stage has seen — the frontier of the stream)
//   stage lag           = Head - watermark(stage, instance)
//   e2e lag (instance)  = Head - min over that instance's stages
//   e2e lag (fleet)     = Head - min over every advanced watermark
//
// During a shard outage the downed shard's watermarks freeze while the
// healthy shards keep moving Head forward, so per-shard and fleet e2e lag
// grow by exactly the staleness an operator would experience querying
// that shard — and fall back to ~0 once spool replay catches the shard
// up. This is the signal the `e2e_lag` SLO rule (common/slo.h) fires on.
//
// Advance() is a relaxed fetch-max on one atomic: cheap enough for every
// stage boundary at 0% trace sampling.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace sdci {

class MetricsRegistry;

namespace json {
class Value;
}  // namespace json

// One (stage, instance) high-water mark of event birth times. Lock-free.
class StageWatermark {
 public:
  // Advances to `event_time` if it is newer; older stamps are no-ops
  // (batches can interleave, replayed spool events are old by design).
  void Advance(VirtualTime event_time) noexcept {
    const int64_t stamp = event_time.count();
    int64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (stamp > seen &&
           !max_ns_.compare_exchange_weak(seen, stamp,
                                          std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] bool HasAdvanced() const noexcept {
    return max_ns_.load(std::memory_order_relaxed) >= 0;
  }

  // Meaningful only when HasAdvanced().
  [[nodiscard]] VirtualTime Get() const noexcept {
    return VirtualTime{max_ns_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<int64_t> max_ns_{-1};
};

// The fleet's watermark table. Handles are created once per
// (stage, instance) and advanced lock-free afterwards; derivations scan
// the table (dozens of entries) under a mutex. Hold in a shared_ptr —
// metric callbacks keep weak references and go quiet when it dies.
class WatermarkRegistry {
 public:
  WatermarkRegistry();

  // Create-or-get. `stage` should come from the trace::k* taxonomy;
  // `instance` names the component replica ("mdt0", "shard1", "agent").
  // "fleet" is reserved for the rollup series.
  std::shared_ptr<StageWatermark> Handle(std::string_view stage,
                                         std::string_view instance);

  // Pipeline position of a taxonomy stage (0 = changelog.read …
  // 12 = action.execute); -1 for names outside the taxonomy.
  static int StageRank(std::string_view stage);

  // Newest event birth time any stage has seen; zero before any traffic.
  [[nodiscard]] VirtualTime Head() const;

  // Head minus the instance's slowest stage; zero when the instance has
  // no advanced watermark yet.
  [[nodiscard]] VirtualDuration InstanceLag(std::string_view instance) const;

  // Head minus the slowest advanced watermark anywhere.
  [[nodiscard]] VirtualDuration FleetLag() const;

  struct Row {
    std::string stage;
    std::string instance;
    int rank = -1;
    bool advanced = false;
    VirtualTime watermark{};
  };
  // Rows sorted by (rank, stage, instance).
  [[nodiscard]] std::vector<Row> Snapshot() const;

  // Distinct instance names registered so far.
  [[nodiscard]] std::vector<std::string> Instances() const;

  // {"head_ns": N, "fleet_lag_ns": N,
  //  "stages": [{"stage","instance","watermark_ns","lag_ns"}...],
  //  "instances": [{"instance","e2e_lag_ns"}...]}
  [[nodiscard]] json::Value ToJson() const;

  // Exports sdci_stage_watermark / sdci_stage_lag per handle and
  // sdci_e2e_lag per instance plus {instance="fleet"}, as callback
  // gauges (ns). Handles created after this call self-register.
  void AttachMetrics(std::shared_ptr<MetricsRegistry> metrics);

 private:
  struct State;
  void ExportSeries(const std::string& stage, const std::string& instance,
                    bool new_instance);

  std::shared_ptr<State> state_;
};

}  // namespace sdci
