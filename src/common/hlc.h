// Hybrid logical clock: the cross-shard ordering stamp of the federated
// aggregator fleet.
//
// Each aggregator shard assigns its own dense per-shard `global_seq`, so
// sequences from different shards are incomparable. The HLC stamp gives
// every event a fleet-wide total order that respects causality and stays
// close to physical (virtual) time: `wall_ns` tracks the shard's clock,
// `logical` breaks ties among same-instant events on one shard, and
// `origin` (the shard id) breaks ties across shards. Comparison is
// lexicographic over (wall_ns, logical, origin) — a strict total order as
// long as every shard uses a distinct origin, because one clock never
// issues the same (wall, logical) twice (Tick is strictly monotone even
// when the underlying clock steps backwards).
//
// This is the Kulkarni et al. HLC construction with the logical component
// widened to 32 bits; virtual time stands in for the physical clock, so
// "clock skew" in tests is literal backwards movement of `now`.
#pragma once

#include <compare>
#include <cstdint>

#include "common/clock.h"

namespace sdci {

struct HlcStamp {
  int64_t wall_ns = 0;   // physical component (virtual time, ns)
  uint32_t logical = 0;  // same-wall tie-breaker within one origin
  uint32_t origin = 0;   // issuing shard: cross-origin tie-breaker

  // Lexicographic (wall_ns, logical, origin): the fleet's total order.
  friend constexpr auto operator<=>(const HlcStamp&, const HlcStamp&) = default;

  // An all-zero stamp marks an event that predates HLC stamping (one born
  // outside an aggregator shard, not yet sequenced).
  [[nodiscard]] constexpr bool IsZero() const noexcept {
    return wall_ns == 0 && logical == 0 && origin == 0;
  }
};

// One shard's clock. Not internally synchronized: Tick() is called from
// the shard's single sequencer thread (Observe() from a federation
// consumer's single drain thread); wrap externally if that ever changes.
class HlcClock {
 public:
  explicit HlcClock(uint32_t origin) : origin_(origin) {}

  // Stamps a local event. Strictly monotone: if `now` has not advanced
  // past the last stamp's wall component (including a clock that stepped
  // backwards), the logical counter increments instead.
  HlcStamp Tick(VirtualTime now) {
    const int64_t wall = now.count();
    if (wall > last_wall_) {
      last_wall_ = wall;
      logical_ = 0;
    } else {
      ++logical_;
    }
    return {last_wall_, logical_, origin_};
  }

  // Merges a remote stamp (a federation consumer observing another
  // shard's event), keeping this clock ahead of everything it has seen.
  HlcStamp Observe(const HlcStamp& remote, VirtualTime now) {
    const int64_t wall = now.count();
    if (wall > last_wall_ && wall > remote.wall_ns) {
      last_wall_ = wall;
      logical_ = 0;
    } else if (remote.wall_ns > last_wall_) {
      last_wall_ = remote.wall_ns;
      logical_ = remote.logical + 1;
    } else if (remote.wall_ns == last_wall_) {
      logical_ = (logical_ > remote.logical ? logical_ : remote.logical) + 1;
    } else {
      ++logical_;
    }
    return {last_wall_, logical_, origin_};
  }

  [[nodiscard]] HlcStamp Last() const noexcept {
    return {last_wall_, logical_, origin_};
  }
  [[nodiscard]] uint32_t origin() const noexcept { return origin_; }

 private:
  int64_t last_wall_ = 0;
  uint32_t logical_ = 0;
  uint32_t origin_;
};

}  // namespace sdci
